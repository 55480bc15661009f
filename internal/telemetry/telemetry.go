// Package telemetry is the testbed's time-series layer: it samples every
// instrument in a metrics.Registry once per virtual-time window and keeps
// the per-window values in preallocated rings, so a run's whole history —
// not just its final totals — can be exported, rendered as a dashboard,
// and diffed against another run.
//
// The sampling tick is on the simulator hot path (one event per window for
// the whole run), so it follows the repo's zero-allocation discipline:
// every ring, track, and scratch buffer is allocated when the series is
// registered, and the steady-state tick only reads instruments and writes
// ring cells. Registry growth after sampling began is detected by
// comparing Registry.Len and handled on a cold refresh path.
//
// On top of raw instrument sampling the package offers derived series:
//
//   - Windowed: per-window latency percentiles (p50/p99/max) computed from
//     a histogram's bucket deltas;
//   - ClientTrack: per-connection progress cells aggregated into
//     stalled-connection counts and delivered-byte rates;
//   - probes: arbitrary cold-registered closures polled once per window
//     (scheduler queue depth, serial-link utilization, ...).
//
// Telemetry must never change simulation behavior: the tick consumes no
// randomness and schedules via a sim.Ticker, so enabling it shifts event
// sequence numbers but preserves the relative order of protocol events —
// a run with telemetry reaches the same virtual-time outcome as without.
package telemetry

import (
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// DefaultWindow is the sampling period a run report implies: fine enough to
// resolve a sub-second failover stall, coarse enough that a minutes-long run
// stays in a few thousand windows.
const DefaultWindow = 100 * time.Millisecond

// maxWindows bounds each series ring. Older windows are evicted once the ring
// is full; Timeline reports how many were dropped. Sized so a standard
// 10-minute demo horizon at DefaultWindow (6,000 windows) fits without
// evicting the failover activity at the start of the run.
const maxWindows = 8192

// series is one named time series backed by a fixed ring. The Sampler's
// global window counter indexes every ring, so a series registered
// mid-run simply has zero cells for the windows before it existed.
type series struct {
	name string
	unit string
	ring []float64
}

// trackKind says which instrument a track samples.
type trackKind uint8

const (
	trackCounter trackKind = iota
	trackGauge
	trackHisto
)

// track binds one registry instrument to its series. Counters and
// histograms are sampled as per-window deltas, gauges as instantaneous
// values.
type track struct {
	kind trackKind
	c    *metrics.Counter
	g    *metrics.Gauge
	h    *metrics.Histogram
	last int64
	ser  *series
}

// probe is a cold-registered callback polled once per window.
type probe struct {
	fn  func() float64
	ser *series
}

// Sampler drives the per-window sampling loop for one simulation run.
// Create it with NewSampler, register derived series, then Start it.
type Sampler struct {
	sim    *sim.Simulator
	reg    *metrics.Registry
	window time.Duration

	ticker  *sim.Ticker
	start   time.Time
	windows int // completed windows

	allSeries []*series
	tracks    []track
	probes    []probe
	windowed  []*Windowed
	clients   []*ClientTrack

	clientStalled  *series
	clientProgress *series
	clientLatency  bool // client.response_latency windowed series created

	regLen int // Registry.Len at last refresh
}

// NewSampler builds a sampler over s and reg that closes one window every
// window of virtual time (DefaultWindow if not positive). reg may be nil
// (only probes, Windowed, and ClientTrack series are collected then). The
// sampler is idle until Start.
func NewSampler(s *sim.Simulator, reg *metrics.Registry, window time.Duration) *Sampler {
	if window <= 0 {
		window = DefaultWindow
	}
	sp := &Sampler{sim: s, reg: reg, window: window}
	sp.refresh()
	return sp
}

// Window returns the sampling period (0 on nil).
func (sp *Sampler) Window() time.Duration {
	if sp == nil {
		return 0
	}
	return sp.window
}

// Start begins sampling: the first window closes one period from now.
// Calling Start twice panics (the sim.Ticker would double-fire). Like the
// metrics registry, a nil *Sampler is a valid no-op sink, so telemetry
// stays strictly opt-in for every layer that plumbs it through.
func (sp *Sampler) Start() {
	if sp == nil {
		return
	}
	if sp.ticker != nil {
		panic("telemetry: Sampler.Start called twice")
	}
	sp.refresh() // baseline instruments registered since construction
	sp.start = sp.sim.Now()
	// A daemon ticker: sampling must never extend the run. The last
	// partial window after the workload drains goes unsampled, which is
	// the right trade — it would otherwise be an endless tail of zeros.
	sp.ticker = sim.NewDaemonTicker(sp.sim, sp.window, sp.tick)
}

// newSeries allocates a ring and registers the series (cold path).
func (sp *Sampler) newSeries(name, unit string) *series {
	s := &series{name: name, unit: unit, ring: make([]float64, maxWindows)}
	sp.allSeries = append(sp.allSeries, s)
	return s
}

// AddProbe registers a callback polled once per window; its values form
// the series name. The closure is created here, on the cold path — the
// tick merely calls it. No-op on nil.
func (sp *Sampler) AddProbe(name, unit string, fn func() float64) {
	if sp == nil {
		return
	}
	sp.probes = append(sp.probes, probe{fn: fn, ser: sp.newSeries(name, unit)})
}

// refresh rescans the registry and adds tracks for instruments that
// appeared since the last scan. Cold path: runs at construction and
// whenever the tick notices Registry.Len changed.
func (sp *Sampler) refresh() {
	sp.regLen = sp.reg.Len()
	known := make(map[string]bool, len(sp.tracks))
	for i := range sp.tracks {
		known[sp.tracks[i].ser.name] = true
	}
	for _, ref := range sp.reg.Instruments() {
		base := ref.Component + "." + ref.Name
		if ref.Labels != "" {
			base += "{" + ref.Labels + "}"
		}
		if ref.Counter != nil && !known[base+".rate"] {
			sp.tracks = append(sp.tracks, track{
				kind: trackCounter, c: ref.Counter, last: ref.Counter.Value(),
				ser: sp.newSeries(base+".rate", "count/window"),
			})
		}
		if ref.Gauge != nil && !known[base] {
			sp.tracks = append(sp.tracks, track{
				kind: trackGauge, g: ref.Gauge,
				ser: sp.newSeries(base, "value"),
			})
		}
		if ref.Histogram != nil && !known[base+".rate"] {
			sp.tracks = append(sp.tracks, track{
				kind: trackHisto, h: ref.Histogram, last: ref.Histogram.Count(),
				ser: sp.newSeries(base+".rate", "count/window"),
			})
		}
	}
}

// tick closes one window: it samples every track, probe, windowed
// percentile set, and client track into ring cell windows%maxWindows.
// One event per window for the whole run, so it must not allocate.
//
//sttcp:hotpath
func (sp *Sampler) tick() {
	if sp.reg.Len() != sp.regLen {
		sp.refresh() //sttcp:allow hotpathalloc cold: runs only when instruments were added mid-run
	}
	idx := sp.windows % maxWindows
	for i := range sp.tracks {
		t := &sp.tracks[i]
		switch t.kind {
		case trackCounter:
			v := t.c.Value()
			t.ser.ring[idx] = float64(v - t.last)
			t.last = v
		case trackGauge:
			t.ser.ring[idx] = float64(t.g.Value())
		case trackHisto:
			v := t.h.Count()
			t.ser.ring[idx] = float64(v - t.last)
			t.last = v
		}
	}
	for i := range sp.probes {
		sp.probes[i].ser.ring[idx] = sp.probes[i].fn()
	}
	for i := range sp.windowed {
		sp.windowed[i].sample(idx)
	}
	sp.sampleClients(idx)
	sp.windows++
}

// Windowed computes per-window latency percentiles from a histogram's
// bucket deltas. A percentile is reported as the upper bound of the
// bucket the target observation falls in (in seconds); the windowed max
// is the highest non-empty bucket's bound, or the histogram's global
// max when the overflow bucket was hit.
type Windowed struct {
	h    *metrics.Histogram
	last []int64 // previous cumulative bucket counts
	cur  []int64 // scratch: this window's deltas

	p50, p99, max *series
}

// NewWindowed registers p50/p99/max per-window percentile series for h
// under name (name.p50, name.p99, name.max, all in seconds). Cold path;
// nil on a nil sampler.
func (sp *Sampler) NewWindowed(name string, h *metrics.Histogram) *Windowed {
	if sp == nil {
		return nil
	}
	n := h.NumBounds() + 1
	w := &Windowed{
		h:    h,
		last: make([]int64, n),
		cur:  make([]int64, n),
		p50:  sp.newSeries(name+".p50", "seconds"),
		p99:  sp.newSeries(name+".p99", "seconds"),
		max:  sp.newSeries(name+".max", "seconds"),
	}
	for i := 0; i < n; i++ {
		w.last[i] = h.BucketCount(i)
	}
	sp.windowed = append(sp.windowed, w)
	return w
}

//sttcp:hotpath
func (w *Windowed) sample(idx int) {
	var total int64
	for i := range w.cur {
		c := w.h.BucketCount(i)
		w.cur[i] = c - w.last[i]
		w.last[i] = c
		total += w.cur[i]
	}
	if total == 0 {
		w.p50.ring[idx] = 0
		w.p99.ring[idx] = 0
		w.max.ring[idx] = 0
		return
	}
	w.p50.ring[idx] = w.quantile(total, 50)
	w.p99.ring[idx] = w.quantile(total, 99)
	hi := 0
	for i := range w.cur {
		if w.cur[i] > 0 {
			hi = i
		}
	}
	w.max.ring[idx] = w.boundSeconds(hi)
}

// quantile returns the upper bound (seconds) of the bucket holding the
// q-th percentile observation among this window's total deltas.
//
//sttcp:hotpath
func (w *Windowed) quantile(total, q int64) float64 {
	target := (total*q + 99) / 100 // ceil(total*q/100)
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range w.cur {
		cum += w.cur[i]
		if cum >= target {
			return w.boundSeconds(i)
		}
	}
	return w.boundSeconds(len(w.cur) - 1)
}

// boundSeconds maps bucket i to a representative latency in seconds: the
// bucket's upper bound, or the histogram's global max for the overflow
// bucket (the best in-range figure available without per-window reservoirs).
//
//sttcp:hotpath
func (w *Windowed) boundSeconds(i int) float64 {
	if i >= w.h.NumBounds() {
		return w.h.Max().Seconds()
	}
	return w.h.Bound(i).Seconds()
}

// ClientTrack is one connection's progress cell. The delivery path calls
// Deliver; the sampler reads and resets the per-window delta to derive
// the aggregate stalled-connection and progress-rate series.
type ClientTrack struct {
	hist  *metrics.Histogram // shared response-latency histogram; may be nil
	bytes int64              // cumulative delivered bytes
	last  int64              // sampler-side: bytes at previous window close
}

// Deliver records n delivered bytes and, when lat > 0, one client-visible
// response latency observation.
//
//sttcp:hotpath
func (t *ClientTrack) Deliver(n int, lat time.Duration) {
	if t == nil {
		return
	}
	t.bytes += int64(n)
	if lat > 0 {
		t.hist.Observe(lat)
	}
}

// NewClientTrack registers a per-connection progress cell. The first call
// also creates the aggregate derived series (client.stalled_conns,
// client.progress_bytes) and the shared client.response_latency windowed
// percentiles. Cold path; returns a track safe to use from hot code.
func (sp *Sampler) NewClientTrack() *ClientTrack {
	if sp == nil {
		return nil
	}
	if sp.clientStalled == nil {
		sp.clientStalled = sp.newSeries("client.stalled_conns", "connections")
		sp.clientProgress = sp.newSeries("client.progress_bytes", "bytes/window")
	}
	var h *metrics.Histogram
	if sp.reg != nil {
		h = sp.reg.Histogram("telemetry", "client.response_latency", nil)
		if !sp.clientLatency {
			sp.clientLatency = true
			sp.NewWindowed("client.response_latency", h)
		}
	}
	t := &ClientTrack{hist: h}
	sp.clients = append(sp.clients, t)
	return t
}

//sttcp:hotpath
func (sp *Sampler) sampleClients(idx int) {
	if sp.clientStalled == nil {
		return
	}
	var stalled, prog int64
	for _, ct := range sp.clients {
		d := ct.bytes - ct.last
		ct.last = ct.bytes
		prog += d
		if d == 0 {
			stalled++
		}
	}
	sp.clientStalled.ring[idx] = float64(stalled)
	sp.clientProgress.ring[idx] = float64(prog)
}

// Timeline is the exported, serializable view of a sampler's rings:
// every series' points in chronological order, plus enough metadata to
// align two runs window-for-window.
type Timeline struct {
	Window  time.Duration `json:"window"`
	Start   time.Time     `json:"start"`             // virtual time sampling began
	Windows int           `json:"windows"`           // windows sampled over the run
	Dropped int           `json:"dropped,omitempty"` // oldest windows evicted from the rings
	Series  []SeriesData  `json:"series"`
}

// SeriesData is one series' retained points, oldest first. When windows
// were dropped, Points starts at window index Timeline.Dropped.
type SeriesData struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit,omitempty"`
	Points []float64 `json:"points"`
}

// Timeline materializes the rings into a Timeline (cold path, end of
// run). Series are sorted by name so serialization is deterministic.
// Nil on a nil sampler.
func (sp *Sampler) Timeline() *Timeline {
	if sp == nil {
		return nil
	}
	tl := &Timeline{
		Window:  sp.window,
		Start:   sp.start,
		Windows: sp.windows,
	}
	n := sp.windows
	if n > maxWindows {
		tl.Dropped = n - maxWindows
		n = maxWindows
	}
	for _, s := range sp.allSeries {
		pts := make([]float64, n)
		if sp.windows <= maxWindows {
			copy(pts, s.ring[:n])
		} else {
			head := sp.windows % maxWindows // oldest retained cell
			copy(pts, s.ring[head:])
			copy(pts[maxWindows-head:], s.ring[:head])
		}
		tl.Series = append(tl.Series, SeriesData{Name: s.name, Unit: s.unit, Points: pts})
	}
	sort.Slice(tl.Series, func(i, j int) bool { return tl.Series[i].Name < tl.Series[j].Name })
	return tl
}

// Max returns the largest point and its window index (-1 when empty).
func (s *SeriesData) Max() (float64, int) {
	if s == nil || len(s.Points) == 0 {
		return 0, -1
	}
	best, at := s.Points[0], 0
	for i, v := range s.Points {
		if v > best {
			best, at = v, i
		}
	}
	return best, at
}

// Mean returns the arithmetic mean of the points (0 when empty).
func (s *SeriesData) Mean() float64 {
	if s == nil || len(s.Points) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Points {
		sum += v
	}
	return sum / float64(len(s.Points))
}
