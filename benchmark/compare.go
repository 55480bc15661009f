package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readResults parses a file of result lines, as -out writes them.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// series is every value of one metric on one workload in one file, with the
// seeds that produced them.
type series struct {
	values []float64
	seeds  []int64
}

func collect(results []result) map[[2]string]*series {
	out := map[[2]string]*series{}
	for _, r := range results {
		if r.Trace != 0 {
			continue // end-to-end metrics are never taken from a traced run
		}
		for name, m := range r.Metrics {
			k := [2]string{name, r.Workload}
			if out[k] == nil {
				out[k] = &series{}
			}
			out[k].values = append(out[k].values, m.Value)
			out[k].seeds = append(out[k].seeds, r.Seed)
		}
	}
	return out
}

func sameSeeds(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = append([]int64(nil), a...), append([]int64(nil), b...)
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compare prints one row per (metric, workload) with both files' medians,
// the change from a to b and the declared bound, and reports whether b
// holds: no end-to-end metric worse than a by more than its bound, no exact
// metric different at all when both sides ran the same seeds, and nothing
// missing from b.
func compare(sp *spec, a, b []result, out io.Writer) bool {
	as, bs := collect(a), collect(b)
	ok := true
	fmt.Fprintf(out, "%-26s %-9s %16s %16s %9s %7s  %s\n", "metric", "workload", "a", "b", "delta", "bound", "verdict")
	for _, m := range sp.EndToEnd {
		for _, w := range sp.Workloads {
			k := [2]string{m.Name, w.Name}
			sa, sb := as[k], bs[k]
			if sa == nil && sb == nil {
				continue
			}
			if sa == nil || sb == nil {
				fmt.Fprintf(out, "%-26s %-9s %16s %16s %9s %7s  MISSING\n", m.Name, w.Name, "-", "-", "-", "-")
				ok = false
				continue
			}
			ma, mb := median(sa.values), median(sb.values)
			delta := (mb - ma) / ma
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			verdict := "ok"
			switch {
			case exactMetric(m.Name) && sameSeeds(sa.seeds, sb.seeds) && ma != mb:
				verdict = "DIFFERS (exact metric)"
				ok = false
			case worse > m.Bound:
				verdict = "WORSE"
				ok = false
			}
			fmt.Fprintf(out, "%-26s %-9s %16.6g %16.6g %+8.2f%% %6.1f%%  %s\n",
				m.Name, w.Name, ma, mb, 100*delta, 100*m.Bound, verdict)
		}
	}
	return ok
}
