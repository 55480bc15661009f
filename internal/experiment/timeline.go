package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/app"
)

// ProgressTimeline samples a client's progress series at fixed intervals,
// returning the fraction complete at each instant — the data behind the
// demo GUI's pie chart. A seamless failover shows as a flat stretch
// followed by continued growth; a broken connection would never grow again.
func ProgressTimeline(samples []app.ProgressSample, total int64, start, end time.Time, step time.Duration) []float64 {
	if step <= 0 || !end.After(start) || total <= 0 {
		return nil
	}
	var out []float64
	i := 0
	var bytes int64
	for t := start; !t.After(end); t = t.Add(step) {
		for i < len(samples) && !samples[i].Time.After(t) {
			bytes = samples[i].Bytes
			i++
		}
		out = append(out, min(float64(bytes)/float64(total), 1))
	}
	return out
}

// FormatTimeline draws a one-line text chart of the fractions (the pie
// chart as seen over time), one filling glyph per sample, with percentage
// bookends.
func FormatTimeline(fractions []float64) string {
	if len(fractions) == 0 {
		return "(no samples)"
	}
	const glyphs = " .:-=+*#%@"
	var b strings.Builder
	for _, f := range fractions {
		b.WriteByte(glyphs[max(0, min(int(f*float64(len(glyphs)-1)), len(glyphs)-1))])
	}
	return fmt.Sprintf("0%% |%s| %.0f%%", b.String(), fractions[len(fractions)-1]*100)
}
