package telemetry

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func newTestSampler(t *testing.T, window time.Duration) (*sim.Simulator, *metrics.Registry, *Sampler) {
	t.Helper()
	s := sim.New(1)
	r := metrics.New(s.Now)
	return s, r, NewSampler(s, r, window)
}

// runTo drives the sim to d with a sentinel workload event at the end.
// The sampler's ticks are daemon events — they only fire while foreground
// work remains — so a test workload must span the range it wants sampled,
// exactly like a real run.
func runTo(t *testing.T, s *sim.Simulator, d time.Duration) {
	t.Helper()
	s.Post(d, func() {})
	if err := s.Run(d); err != nil {
		t.Fatal(err)
	}
}

func TestSamplerCounterDeltasAndGaugeValues(t *testing.T) {
	s, r, sp := newTestSampler(t, 100*time.Millisecond)
	c := r.Counter("tcp", "segments_sent")
	g := r.Gauge("backup", "hold_buffer_bytes")
	sp.Start()

	// Window 0: 3 increments. Window 1: none. Window 2: 5 via Add.
	s.Post(10*time.Millisecond, func() { c.Inc(); c.Inc(); c.Inc(); g.Set(100) })
	s.Post(210*time.Millisecond, func() { c.Add(5); g.Set(40) })
	runTo(t, s, 350*time.Millisecond)

	tl := sp.Timeline()
	if tl.Windows != 3 {
		t.Fatalf("windows = %d, want 3", tl.Windows)
	}
	rate := find(tl, "tcp.segments_sent.rate")
	if rate == nil {
		t.Fatal("counter rate series missing")
	}
	if want := []float64{3, 0, 5}; !floatsEqual(rate.Points, want) {
		t.Errorf("counter deltas = %v, want %v", rate.Points, want)
	}
	gauge := find(tl, "backup.hold_buffer_bytes")
	if want := []float64{100, 100, 40}; !floatsEqual(gauge.Points, want) {
		t.Errorf("gauge values = %v, want %v", gauge.Points, want)
	}
}

func TestSamplerPicksUpLateRegisteredInstruments(t *testing.T) {
	s, r, sp := newTestSampler(t, 100*time.Millisecond)
	sp.Start()
	// Instrument registered after sampling began: the tick's Len check
	// must notice it on the next window.
	s.Post(150*time.Millisecond, func() { r.Counter("late", "arrivals").Add(2) })
	runTo(t, s, 350*time.Millisecond)
	rate := find(sp.Timeline(), "late.arrivals.rate")
	if rate == nil {
		t.Fatal("late-registered counter was never tracked")
	}
	// Registered inside window 1 with initial value 2 observed at
	// refresh, so the delta series is flat zero afterwards — the point is
	// that it exists and later increments would show.
	if len(rate.Points) != 3 {
		t.Fatalf("late series has %d points, want 3", len(rate.Points))
	}
}

func TestWindowedPercentiles(t *testing.T) {
	s, r, sp := newTestSampler(t, 100*time.Millisecond)
	h := r.Histogram("app", "latency", []time.Duration{
		time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond, time.Second,
	})
	sp.NewWindowed("app.latency", h)
	sp.Start()

	// Window 0: 99 fast observations (<=1ms) and 1 slow (<=1s): p50 on
	// the 1ms bound, p99 on 1ms too (99th of 100 = the 99th observation,
	// still fast), max on 1s.
	s.Post(10*time.Millisecond, func() {
		for i := 0; i < 99; i++ {
			h.Observe(500 * time.Microsecond)
		}
		h.Observe(700 * time.Millisecond)
	})
	// Window 1: all slow — p50 jumps to the 1s bound.
	s.Post(110*time.Millisecond, func() {
		for i := 0; i < 10; i++ {
			h.Observe(400 * time.Millisecond)
		}
	})
	runTo(t, s, 350*time.Millisecond)

	tl := sp.Timeline()
	p50 := find(tl, "app.latency.p50")
	p99 := find(tl, "app.latency.p99")
	max := find(tl, "app.latency.max")
	if p50 == nil || p99 == nil || max == nil {
		t.Fatal("windowed percentile series missing")
	}
	if p50.Points[0] != 0.001 {
		t.Errorf("window 0 p50 = %v, want 0.001 (1ms bound)", p50.Points[0])
	}
	if p99.Points[0] != 0.001 {
		t.Errorf("window 0 p99 = %v, want 0.001 (99 of 100 fast)", p99.Points[0])
	}
	if max.Points[0] != 1.0 {
		t.Errorf("window 0 max = %v, want 1.0 (1s bound)", max.Points[0])
	}
	if p50.Points[1] != 1.0 {
		t.Errorf("window 1 p50 = %v, want 1.0 (all slow)", p50.Points[1])
	}
	// Quiet window: all three series report zero.
	if p50.Points[2] != 0 || p99.Points[2] != 0 || max.Points[2] != 0 {
		t.Errorf("quiet window percentiles = %v/%v/%v, want zeros",
			p50.Points[2], p99.Points[2], max.Points[2])
	}
}

func TestWindowedOverflowUsesGlobalMax(t *testing.T) {
	s, r, sp := newTestSampler(t, 100*time.Millisecond)
	h := r.Histogram("app", "latency", []time.Duration{time.Millisecond})
	sp.NewWindowed("app.latency", h)
	sp.Start()
	s.Post(10*time.Millisecond, func() { h.Observe(3 * time.Second) }) // overflow bucket
	runTo(t, s, 150*time.Millisecond)
	max := find(sp.Timeline(), "app.latency.max")
	if max.Points[0] != 3.0 {
		t.Errorf("overflow window max = %v, want 3.0 (histogram global max)", max.Points[0])
	}
}

func TestClientTracksDeriveStallAndProgress(t *testing.T) {
	s, _, sp := newTestSampler(t, 100*time.Millisecond)
	a := sp.NewClientTrack()
	b := sp.NewClientTrack()
	c := sp.NewClientTrack()
	sp.Start()

	// Window 0: all three progress. Window 1: only a progresses (b stalled),
	// and c finishes. Window 2: a and b stalled; c, finished, is not.
	s.Post(10*time.Millisecond, func() {
		a.Deliver(100, 2*time.Millisecond)
		b.Deliver(50, time.Millisecond)
		c.Deliver(30, time.Millisecond)
	})
	s.Post(110*time.Millisecond, func() { a.Deliver(70, 3*time.Millisecond) })
	s.Post(120*time.Millisecond, c.Finish)
	runTo(t, s, 350*time.Millisecond)

	tl := sp.Timeline()
	stalled := find(tl, "client.stalled_conns")
	if want := []float64{0, 1, 2}; !floatsEqual(stalled.Points, want) {
		t.Errorf("stalled_conns = %v, want %v", stalled.Points, want)
	}
	prog := find(tl, "client.progress_bytes")
	if want := []float64{180, 70, 0}; !floatsEqual(prog.Points, want) {
		t.Errorf("progress_bytes = %v, want %v", prog.Points, want)
	}
	if find(tl, "client.response_latency.p99") == nil {
		t.Error("client latency percentile series missing")
	}
	if a.bytes != 170 || b.bytes != 50 {
		t.Errorf("cumulative bytes = %d/%d, want 170/50", a.bytes, b.bytes)
	}
	// Nil track is a no-op, matching the metrics package contract.
	var nilTrack *ClientTrack
	nilTrack.Deliver(10, time.Millisecond)
	nilTrack.Finish()
}

func TestProbesSampledPerWindow(t *testing.T) {
	s, _, sp := newTestSampler(t, 100*time.Millisecond)
	depth := 0.0
	sp.AddProbe("sched.pending", "events", func() float64 { return depth })
	sp.Start()
	s.Post(50*time.Millisecond, func() { depth = 7 })
	s.Post(150*time.Millisecond, func() { depth = 3 })
	runTo(t, s, 250*time.Millisecond)
	ser := find(sp.Timeline(), "sched.pending")
	if want := []float64{7, 3}; !floatsEqual(ser.Points, want) {
		t.Errorf("probe series = %v, want %v", ser.Points, want)
	}
}

// TestRingWrapKeepsMostRecentWindows: a run that outlives the ring keeps
// its last maxWindows (8,192) windows, oldest first, and counts the evicted.
func TestRingWrapKeepsMostRecentWindows(t *testing.T) {
	s, _, sp := newTestSampler(t, time.Millisecond)
	w := 0.0
	sp.AddProbe("w", "index", func() float64 { w++; return w })
	sp.Start()
	const windows = maxWindows + 6
	runTo(t, s, windows*time.Millisecond+time.Millisecond/2)
	tl := sp.Timeline()
	if tl.Windows != windows || tl.Dropped != 6 {
		t.Fatalf("windows/dropped = %d/%d, want %d/6", tl.Windows, tl.Dropped, windows)
	}
	ser := find(tl, "w")
	if n := len(ser.Points); n != maxWindows || ser.Points[0] != 7 || ser.Points[n-1] != windows {
		t.Errorf("retained %d points from %v to %v, want the most recent %d: 7 to %d",
			n, ser.Points[0], ser.Points[n-1], maxWindows, windows)
	}
}

// TestWindowIndex pins how a reader finds an instant in a timeline: window
// i covers [Start+i*Window, Start+(i+1)*Window), with Start the instant
// sampling began, not the epoch.
func TestWindowIndex(t *testing.T) {
	s, r, sp := newTestSampler(t, 100*time.Millisecond)
	c := r.Counter("x", "hits")
	s.Post(time.Second, sp.Start)
	at := sim.Epoch.Add(1250 * time.Millisecond)
	s.Post(at.Sub(sim.Epoch), c.Inc)
	runTo(t, s, 1450*time.Millisecond)

	tl := sp.Timeline()
	if !tl.Start.Equal(sim.Epoch.Add(time.Second)) {
		t.Fatalf("Start = %v, want the instant sampling began", tl.Start)
	}
	idx, got := int(at.Sub(tl.Start)/tl.Window), find(tl, "x.hits.rate").Points
	if want := []float64{0, 0, 1, 0}; idx != 2 || !floatsEqual(got, want) {
		t.Errorf("+250ms maps to window %d of %v, want window 2 of %v", idx, got, want)
	}
}

// TestTickDoesNotAllocate is the hot-path gate: one sampling tick over a
// realistic instrument population (counters, gauges, a windowed
// histogram, client tracks, probes) must not allocate once warm.
func TestTickDoesNotAllocate(t *testing.T) {
	s := sim.New(1)
	r := metrics.New(s.Now)
	sp := NewSampler(s, r, 100*time.Millisecond)
	c := r.Counter("tcp", "segments_sent")
	g := r.Gauge("backup", "hold_buffer_bytes")
	h := r.Histogram("app", "latency", nil)
	sp.NewWindowed("app.latency", h)
	ct := sp.NewClientTrack()
	pending := 0.0
	sp.AddProbe("sched.pending", "events", func() float64 { return pending })
	sp.start = s.Now()

	sp.tick() // absorb the refresh for the client latency histogram
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(42)
		h.Observe(3 * time.Millisecond)
		ct.Deliver(64, 2*time.Millisecond)
		sp.tick()
	}); n != 0 {
		t.Errorf("sampling tick allocated %.1f times per run, want 0", n)
	}
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// find returns the named series of tl, or nil.
func find(tl *Timeline, name string) *SeriesData {
	for i := range tl.Series {
		if tl.Series[i].Name == name {
			return &tl.Series[i]
		}
	}
	return nil
}
