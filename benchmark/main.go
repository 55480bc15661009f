// Command benchmark is the repository's benchmark: four workloads on the
// ST-TCP testbed that separate per-byte, per-packet, per-connection and
// per-failover cost, the end-to-end metrics BENCHMARK.json declares, and a
// traced run that attributes host time to layers from outside the program.
// See README.md beside this file.
//
//	go run ./benchmark -workload bulk -seed 42 -seconds 28
//	go run ./benchmark -traced -reps 5
//	go run ./benchmark -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
)

// traceFile is where the traced run leaves its spans.
const traceFile = "benchmark/out/trace.json"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadFlag = fs.String("workload", "all", "workload to run: bulk, echo, failover, scale or all")
		seed         = fs.Int64("seed", 42, "seed of the testbed, its link jitter and the crash phases")
		seconds      = fs.Float64("seconds", 28, "host seconds each workload measures for")
		traceFlag    = fs.Int("trace", 0, "1 runs the traced ladder and reports the per-layer metrics")
		traced       = fs.Bool("traced", false, "same as -trace 1")
		reps         = fs.Int("reps", 0, "run exactly this many operations (per rung when traced) instead of measuring for -seconds")
		outPath      = fs.String("out", "", "append one JSON result line per workload to this file")
		cpuProfile   = fs.String("cpuprofile", "", "write a CPU profile of each workload to this file (suffixed .<workload> when running several); keep it outside the repository")
		memProfile   = fs.String("memprofile", "", "write an allocation profile of each workload, as -cpuprofile")
		doCompare    = fs.Bool("compare", false, "compare two -out files: benchmark -compare A B")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *doCompare {
		return runCompare(fs.Args(), specFile, stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *traced {
		*traceFlag = 1
	}
	var ws []workload
	if *workloadFlag == "all" {
		ws = workloads()
	} else if w, ok := workloadByName(*workloadFlag); ok {
		ws = []workload{w}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workloadFlag)
		return 2
	}

	// The simulator is one goroutine; the only other user of a second
	// processor is the garbage collector. On one processor the collector's
	// work is part of the measured time instead of depending on how free a
	// shared machine's second processor happens to be: on the 2-core sandbox
	// bulk reads 6 % faster and its run-to-run range shrinks from 10 % to 4 %.
	runtime.GOMAXPROCS(1)
	fmt.Fprintf(stdout, "# %s GOMAXPROCS=%d NumCPU=%d seed=%d; one simulator goroutine, closed loop\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), *seed)
	var sess *session
	if *traceFlag == 1 {
		sess = newSession()
	}
	code := 0
	for i, w := range ws {
		suffix := ""
		if len(ws) > 1 {
			suffix = "." + w.name
		}
		stopProfile, err := startProfiles(*cpuProfile, *memProfile, suffix)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		var res *result
		if sess != nil {
			res = sess.traced(w, *seed, *seconds, *reps)
		} else {
			res = measure(w, *seed, *seconds, *reps)
		}
		if err := stopProfile(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			code = 1
		}
		if *outPath != "" {
			if err := appendResult(*outPath, res); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				code = 1
			}
		}
		if !res.Correct {
			code = 1
		}
		if sess != nil && i == len(ws)-1 {
			// Before the result line, which has to be the last.
			if err := sess.finish(traceFile); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				code = 1
			} else {
				fmt.Fprintf(stdout, "# %d spans written to %s\n", len(sess.spans.spans), traceFile)
			}
		}
		report(stdout, res)
	}
	return code
}

// report prints every metric by name with its unit and sample count, any
// failures, and last the one-line JSON object the driver reads.
func report(out io.Writer, res *result) {
	fmt.Fprintf(out, "## %s (trace %d)\n", res.Workload, res.Trace)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m, n := res.Metrics[name], res.samples[name]
		note := ""
		if p := declaredPercentile(name); p > supportedPercentile(n) {
			note = fmt.Sprintf("  (fewer than ten samples beyond p%v)", p)
		}
		fmt.Fprintf(out, "%-34s %16.6g %-7s n=%d%s\n", name, m.Value, m.Unit, n, note)
	}
	for _, p := range res.problems {
		fmt.Fprintf(out, "FAILED: %s\n", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintf(out, "FAILED: %v\n", err)
		return
	}
	fmt.Fprintf(out, "%s\n", line)
}

// declaredPercentile returns the NN of a metric named ..._pNN, 0 otherwise.
func declaredPercentile(name string) float64 {
	i := strings.LastIndex(name, "_p")
	if i < 0 {
		return 0
	}
	p, err := strconv.ParseFloat(name[i+2:], 64)
	if err != nil {
		return 0
	}
	return p
}

func appendResult(path string, res *result) (err error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	return err
}

// startProfiles begins the requested profiles and returns the function that
// finishes them.
func startProfiles(cpuPath, memPath, suffix string) (func() error, error) {
	var cpu *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath + suffix)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpu = f
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath + suffix)
		if err != nil {
			return err
		}
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

func runCompare(paths []string, specPath string, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
		return 2
	}
	sp, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	a, err := readResults(paths[0])
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := readResults(paths[1])
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	if !compare(sp, a, b, stdout) {
		return 1
	}
	return 0
}
