package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// sparkGlyphs are the eight block heights a sparkline cell can take.
var sparkGlyphs = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders points as a fixed-width run of block glyphs, scaled
// to the series' own max. Series longer than width are downsampled by
// taking the max of each cell's span, so a one-window spike survives
// compression instead of averaging away.
func Sparkline(points []float64, width int) string {
	if width <= 0 || len(points) == 0 {
		return ""
	}
	cells := make([]float64, width)
	if len(points) <= width {
		cells = cells[:len(points)]
		copy(cells, points)
	} else {
		for i := range cells {
			lo := i * len(points) / width
			hi := (i + 1) * len(points) / width
			if hi <= lo {
				hi = lo + 1
			}
			m := points[lo]
			for _, v := range points[lo+1 : hi] {
				if v > m {
					m = v
				}
			}
			cells[i] = m
		}
	}
	var max float64
	for _, v := range cells {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range cells {
		if max <= 0 || v <= 0 {
			b.WriteRune(sparkGlyphs[0])
			continue
		}
		idx := int(v / max * float64(len(sparkGlyphs)-1))
		if idx >= len(sparkGlyphs) {
			idx = len(sparkGlyphs) - 1
		}
		b.WriteRune(sparkGlyphs[idx])
	}
	return b.String()
}

// RenderOptions tunes the dashboard.
type RenderOptions struct {
	// Width is the sparkline width in cells (default 60).
	Width int
	// Filter, when non-empty, keeps only series whose name contains it.
	Filter string
}

// RenderDashboard writes the report as an ASCII dashboard: run identity,
// one sparkline row per series, the failover anatomy table, and chaos
// invariant verdicts. Output is deterministic for a given report, so it
// golden-tests cleanly.
func RenderDashboard(w io.Writer, r *Report, opts RenderOptions) error {
	width := opts.Width
	if width <= 0 {
		width = 60
	}
	var b strings.Builder
	fmt.Fprintf(&b, "run report v%d", r.Version)
	if r.Demo != "" {
		fmt.Fprintf(&b, "  demo=%s", r.Demo)
	}
	fmt.Fprintf(&b, "  seed=%d", r.Seed)
	b.WriteByte('\n')
	if len(r.Params) > 0 {
		b.WriteString("params:")
		for _, k := range sortedKeys(r.Params) {
			fmt.Fprintf(&b, " %s=%s", k, r.Params[k])
		}
		b.WriteByte('\n')
	}

	if tl := r.Telemetry; tl != nil {
		fmt.Fprintf(&b, "\ntelemetry: %d windows x %v", tl.Windows, tl.Window)
		if tl.Dropped > 0 {
			fmt.Fprintf(&b, " (%d oldest dropped)", tl.Dropped)
		}
		b.WriteString("\n\n")
		nameW := 0
		for _, s := range tl.Series {
			if opts.Filter != "" && !strings.Contains(s.Name, opts.Filter) {
				continue
			}
			if len(s.Name) > nameW {
				nameW = len(s.Name)
			}
		}
		for _, s := range tl.Series {
			if opts.Filter != "" && !strings.Contains(s.Name, opts.Filter) {
				continue
			}
			peak, at := s.Max()
			fmt.Fprintf(&b, "  %-*s %s  peak %s @w%d  mean %s\n",
				nameW, s.Name, Sparkline(s.Points, width), fmtValue(peak, s.Unit), at, fmtValue(s.Mean(), s.Unit))
		}
	}

	if len(r.Anatomy) > 0 {
		b.WriteString("\nfailover anatomy:\n")
		b.WriteString("  #  detection     takeover      retransmit-wait  client-stall\n")
		for i, p := range r.Anatomy {
			fmt.Fprintf(&b, "  %-2d %-13v %-13v %-16v %v\n",
				i, p.Detection, p.Takeover, p.RetransmitWait, p.ClientStall)
		}
	}

	if c := r.Chaos; c != nil {
		fmt.Fprintf(&b, "\nchaos: %d events\n", c.Events)
		if len(c.Injected) > 0 {
			names := make([]string, 0, len(c.Injected))
			for name := range c.Injected {
				names = append(names, name)
			}
			sort.Strings(names)
			b.WriteString("  injected:")
			for _, name := range names {
				fmt.Fprintf(&b, " %s×%d", name, c.Injected[name])
			}
			b.WriteString("\n")
		}
		for _, iv := range c.Invariants {
			verdict := "held"
			if len(iv.Violations) > 0 {
				verdict = fmt.Sprintf("VIOLATED (%d)", len(iv.Violations))
			}
			fmt.Fprintf(&b, "  %-28s %s\n", iv.Name, verdict)
		}
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// fmtValue renders a point with its unit: seconds get duration form,
// everything else a compact number.
func fmtValue(v float64, unit string) string {
	if unit == "seconds" {
		return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
	}
	return fmt.Sprintf("%.6g", v)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
