// Package metrics is the testbed's measurement substrate: a registry of
// counters, gauges, and fixed-bucket latency histograms keyed by
// (component, name, labels), driven by the simulator's virtual clock.
//
// The design rule is zero allocation on the hot path. Instruments are
// created once (typically at host/stack construction) and the returned
// pointers are kept by the instrumented component; Inc/Add/Set/Observe
// are plain field operations. The simulation is single-threaded, so no
// atomics or locking are needed.
//
// Every method on Registry and on the instruments is nil-receiver safe:
// a component handed a nil *Registry gets nil instruments, and updating
// a nil instrument is a no-op. That makes metrics strictly opt-in —
// existing call sites can pass nil and pay nothing.
package metrics

import (
	"sort"
	"strings"
	"time"
)

// Label is one key=value dimension attached to an instrument, e.g.
// {"link", "client-switch"}.
type Label struct {
	Key, Value string
}

// key identifies an instrument inside a registry. Labels are rendered
// to a canonical sorted "k=v,k=v" string at registration time so the
// hot path never touches them.
type key struct {
	component string
	name      string
	labels    string
}

func canonLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// Registry holds every instrument for one simulation run. The zero
// value is not useful; create one with New. A nil *Registry is a valid
// no-op sink.
type Registry struct {
	now      func() time.Time
	counters map[key]*Counter
	gauges   map[key]*Gauge
	histos   map[key]*Histogram
	order    []key // registration order, for stable iteration before sort
}

// noteKey records k in the registration order exactly once, even when one
// key later grows a second instrument type (a counter and a gauge may
// legally share a key). Without the dedupe, Snapshot and Instruments
// would emit that key's samples twice.
func (r *Registry) noteKey(k key) {
	if _, ok := r.counters[k]; ok {
		return
	}
	if _, ok := r.gauges[k]; ok {
		return
	}
	if _, ok := r.histos[k]; ok {
		return
	}
	r.order = append(r.order, k)
}

// New creates a registry. now supplies the virtual clock (pass
// sim.Now); it may be nil, in which case snapshots carry a zero time.
func New(now func() time.Time) *Registry {
	return &Registry{
		now:      now,
		counters: make(map[key]*Counter),
		gauges:   make(map[key]*Gauge),
		histos:   make(map[key]*Histogram),
	}
}

// Counter is a monotonically increasing count. The zero value and nil
// are both usable (nil is a no-op).
type Counter struct {
	v int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Add adds n (n must be >= 0; negative deltas are ignored to keep the
// counter monotonic).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v += n
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous value that can move both ways. It remembers
// the maximum it has ever been set to, which is what most capacity
// questions ("how full did the hold buffer get?") actually want.
type Gauge struct {
	v, max int64
}

// Set replaces the current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Add applies a delta.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.Set(g.v + n)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a fixed-bucket latency histogram. Bucket i counts
// observations d with d <= Buckets[i] (and above Buckets[i-1]); one
// extra overflow bucket counts everything larger than the last bound.
// Bounds are fixed at registration, so Observe is a linear scan over a
// small array and never allocates.
type Histogram struct {
	bounds []time.Duration
	counts []int64 // len(bounds)+1; last is overflow
	count  int64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

// DefaultLatencyBuckets spans the scales the testbed cares about: from
// sub-millisecond queueing delay to multi-second failover stalls.
var DefaultLatencyBuckets = []time.Duration{
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	2 * time.Second,
	5 * time.Second,
	10 * time.Second,
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
	for i, b := range h.bounds {
		if d <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.counts)-1]++
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// BucketCount returns the number of observations in bucket i, where
// i == NumBounds() is the overflow bucket (0 on nil). It is read by the
// telemetry sampler once per window, so like the update path it never
// allocates.
func (h *Histogram) BucketCount(i int) int64 {
	if h == nil || i < 0 || i >= len(h.counts) {
		return 0
	}
	return h.counts[i]
}

// NumBounds returns the number of finite bucket upper bounds (0 on nil);
// the histogram holds one extra overflow bucket beyond them.
func (h *Histogram) NumBounds() int {
	if h == nil {
		return 0
	}
	return len(h.bounds)
}

// Bound returns the i-th bucket upper bound (0 on nil or out of range).
func (h *Histogram) Bound(i int) time.Duration {
	if h == nil || i < 0 || i >= len(h.bounds) {
		return 0
	}
	return h.bounds[i]
}

// Max returns the largest observation (0 on nil or empty).
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	return h.max
}

// Counter returns (creating if needed) the counter for
// (component, name, labels). Nil registry returns nil.
func (r *Registry) Counter(component, name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	k := key{component, name, canonLabels(labels)}
	if c, ok := r.counters[k]; ok {
		return c
	}
	c := &Counter{}
	r.noteKey(k)
	r.counters[k] = c
	return c
}

// Gauge returns (creating if needed) the gauge for
// (component, name, labels). Nil registry returns nil.
func (r *Registry) Gauge(component, name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	k := key{component, name, canonLabels(labels)}
	if g, ok := r.gauges[k]; ok {
		return g
	}
	g := &Gauge{}
	r.noteKey(k)
	r.gauges[k] = g
	return g
}

// Histogram returns (creating if needed) the histogram for
// (component, name, labels), with the given bucket upper bounds
// (DefaultLatencyBuckets if bounds is nil). Bounds are fixed on first
// registration; later calls with different bounds get the original.
func (r *Registry) Histogram(component, name string, bounds []time.Duration, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	k := key{component, name, canonLabels(labels)}
	if h, ok := r.histos[k]; ok {
		return h
	}
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	bs := append([]time.Duration(nil), bounds...)
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	h := &Histogram{bounds: bs, counts: make([]int64, len(bs)+1)}
	r.noteKey(k)
	r.histos[k] = h
	return h
}

// Len reports how many distinct (component, name, labels) keys are
// registered. The telemetry sampler polls it to detect instruments
// registered after sampling began (0 on nil).
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.order)
}

// InstrumentRef is one registered key with direct handles to its live
// instruments. At least one of Counter/Gauge/Histogram is non-nil; a key
// that holds several instrument types (legal, if unusual) carries them
// all in one ref.
type InstrumentRef struct {
	Component string
	Name      string
	Labels    string // canonical "k=v,k=v" form, empty for none

	Counter   *Counter
	Gauge     *Gauge
	Histogram *Histogram
}

// Instruments returns one ref per registered key in registration order.
// The slice is freshly allocated but the handles are the live
// instruments, so a caller may keep them and read values later without
// touching the registry again — that is how the telemetry sampler keeps
// its per-window sampling loop allocation-free.
func (r *Registry) Instruments() []InstrumentRef {
	if r == nil {
		return nil
	}
	out := make([]InstrumentRef, 0, len(r.order))
	for _, k := range r.order {
		out = append(out, InstrumentRef{
			Component: k.component,
			Name:      k.name,
			Labels:    k.labels,
			Counter:   r.counters[k],
			Gauge:     r.gauges[k],
			Histogram: r.histos[k],
		})
	}
	return out
}
