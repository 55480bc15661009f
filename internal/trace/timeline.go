package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// TimelineOptions controls RenderSpanTimeline.
type TimelineOptions struct {
	// Start/End bound the rendered window; zero values mean the full
	// recorded range.
	Start, End time.Time
	// Width is the number of chart columns (default 80).
	Width int
	// Epoch is the zero point for the axis labels (default sim start is
	// whatever the recorder's clock counts from; the testbed passes
	// sim.Epoch).
	Epoch time.Time
}

// RenderSpanTimeline draws spans as bars and events as point marks on one
// ASCII lane per component with activity in the window — the terminal
// counterpart of the Perfetto export, good enough to read a failover's
// anatomy in a CI log. It draws the milestones: high-volume kinds
// (thousands per second of simulated transfer) and free-form generic notes
// stay in the Perfetto view.
func (r *Recorder) RenderSpanTimeline(o TimelineOptions) string {
	if r == nil {
		return ""
	}
	r.FinalizeAutoSpans()

	drawn := func(k Kind) bool { return !k.HighVolume() && k != KindGeneric }

	// Establish the window.
	start, end := o.Start, o.End
	if start.IsZero() || end.IsZero() {
		lo, hi := r.timeRange()
		if start.IsZero() {
			start = lo
		}
		if end.IsZero() {
			end = hi
		}
	}
	if !end.After(start) {
		return "timeline: empty window\n"
	}
	width := o.Width
	if width <= 0 {
		width = 80
	}
	span := end.Sub(start)
	col := func(t time.Time) int {
		c := int(int64(t.Sub(start)) * int64(width-1) / int64(span))
		if c < 0 {
			c = 0
		}
		if c > width-1 {
			c = width - 1
		}
		return c
	}

	// Gather per-component content.
	type bar struct {
		c0, c1 int
		label  string
	}
	lanes := map[string][]bar{}
	for _, s := range r.spans {
		if !drawn(s.Kind) || s.Start.After(end) || s.End.Before(start) {
			continue
		}
		label := fmt.Sprintf("%s %v", s.Kind, s.End.Sub(s.Start).Round(time.Millisecond))
		lanes[s.Component] = append(lanes[s.Component], bar{col(s.Start), col(s.End), label})
	}
	for i := range r.events.end {
		e := r.events.at(i)
		if !drawn(Kind(e.kind)) || e.at.Before(start) || e.at.After(end) {
			continue
		}
		c := col(e.at)
		lanes[e.component] = append(lanes[e.component], bar{c, c, "*" + Kind(e.kind).String()})
	}

	comps := make([]string, 0, len(lanes))
	for c := range lanes {
		comps = append(comps, c)
	}
	sort.Strings(comps)

	var b strings.Builder
	fmt.Fprintf(&b, "timeline %v -> %v  (%v, %d cols, 1 col ~ %v)\n",
		start.Sub(o.Epoch), end.Sub(o.Epoch), span, width,
		(span / time.Duration(width)).Round(time.Microsecond))

	nameW := 4
	for _, c := range comps {
		if len(c) > nameW {
			nameW = len(c)
		}
	}
	// Axis: quarter ticks with elapsed-time labels.
	ruler := makeRow(width, '-')
	labels := makeRow(width, ' ')
	for q := 0; q <= 4; q++ {
		c := (width - 1) * q / 4
		ruler[c] = '+'
		at := start.Add(span * time.Duration(q) / 4).Sub(o.Epoch)
		placeText(labels, c, fmt.Sprintf("%v", at.Round(time.Millisecond)))
	}
	fmt.Fprintf(&b, "%*s  %s\n", nameW, "", string(ruler))
	fmt.Fprintf(&b, "%*s  %s\n", nameW, "", strings.TrimRight(string(labels), " "))

	for _, c := range comps {
		// First-fit row packing so overlapping bars stack.
		var rows [][]byte
	place:
		for _, bar := range lanes[c] {
			for _, row := range rows {
				if rowFree(row, bar.c0, bar.c1) {
					drawBar(row, bar.c0, bar.c1, bar.label)
					continue place
				}
			}
			row := makeRow(width, ' ')
			drawBar(row, bar.c0, bar.c1, bar.label)
			rows = append(rows, row)
		}
		for i, row := range rows {
			name := c
			if i > 0 {
				name = ""
			}
			fmt.Fprintf(&b, "%-*s  %s\n", nameW, name, strings.TrimRight(string(row), " "))
		}
	}
	return b.String()
}

func (r *Recorder) timeRange() (lo, hi time.Time) {
	first := true
	visit := func(a, z time.Time) {
		if first {
			lo, hi = a, z
			first = false
			return
		}
		if a.Before(lo) {
			lo = a
		}
		if z.After(hi) {
			hi = z
		}
	}
	for i := range r.events.end {
		at := r.events.at(i).at
		visit(at, at)
	}
	for _, s := range r.spans {
		z := s.End
		if s.Open() {
			z = s.Start
		}
		visit(s.Start, z)
	}
	return lo, hi
}

func makeRow(width int, fill byte) []byte {
	row := make([]byte, width)
	for i := range row {
		row[i] = fill
	}
	return row
}

func rowFree(row []byte, c0, c1 int) bool {
	// One column of breathing room between neighbours.
	lo, hi := c0-1, c1+1
	if lo < 0 {
		lo = 0
	}
	if hi > len(row)-1 {
		hi = len(row) - 1
	}
	for i := lo; i <= hi; i++ {
		if row[i] != ' ' {
			return false
		}
	}
	return true
}

func drawBar(row []byte, c0, c1 int, label string) {
	if c1 == c0 {
		placeText(row, c0, label)
		return
	}
	for i := c0; i <= c1; i++ {
		row[i] = '='
	}
	row[c0] = '['
	row[c1] = ']'
	inner := c1 - c0 - 1
	if inner > 0 {
		if len(label) > inner {
			label = label[:inner]
		}
		copy(row[c0+1:], label)
	}
}

func placeText(row []byte, c int, text string) {
	if c+len(text) > len(row) {
		c = len(row) - len(text)
	}
	if c < 0 {
		c = 0
		if len(text) > len(row) {
			text = text[:len(row)]
		}
	}
	copy(row[c:], text)
}
