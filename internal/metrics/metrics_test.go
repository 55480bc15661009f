package metrics

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestNilSafety: every operation on a nil registry or nil instrument
// must be a silent no-op — that is the contract that lets components
// take a *Registry unconditionally.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "c")
	g := r.Gauge("x", "g")
	h := r.Histogram("x", "h", nil)
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil instruments: %v %v %v", c, g, h)
	}
	c.Inc()
	c.Add(5)
	g.Set(7)
	g.Add(-2)
	h.Observe(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Samples) != 0 {
		t.Fatalf("nil registry snapshot has %d samples", len(snap.Samples))
	}
	if snap.CounterTotal("c") != 0 || snap.Find("h") != nil {
		t.Fatal("empty snapshot lookups must be zero")
	}
}

// TestCounterGauge: basic semantics, including the gauge high-water
// mark and counter monotonicity.
func TestCounterGauge(t *testing.T) {
	r := New(nil)
	c := r.Counter("host/tcp", "tcp.segments_sent")
	c.Inc()
	c.Add(9)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	if again := r.Counter("host/tcp", "tcp.segments_sent"); again != c {
		t.Fatal("re-registering must return the same instrument")
	}

	g := r.Gauge("host/sttcp", "sttcp.holdbuf_bytes")
	g.Set(100)
	g.Add(50)
	g.Set(20)
	if g.Value() != 20 || g.max != 150 {
		t.Fatalf("gauge value=%d max=%d, want 20/150", g.Value(), g.max)
	}
}

// TestLabels: labels are canonicalised (sorted) so registration order
// of the label slice doesn't split an instrument in two.
func TestLabels(t *testing.T) {
	r := New(nil)
	a := r.Counter("hb", "hb.sent", Label{"link", "serial"}, Label{"dir", "tx"})
	b := r.Counter("hb", "hb.sent", Label{"dir", "tx"}, Label{"link", "serial"})
	if a != b {
		t.Fatal("label order must not create distinct instruments")
	}
	other := r.Counter("hb", "hb.sent", Label{"link", "udp"})
	if other == a {
		t.Fatal("different label values must create distinct instruments")
	}
	a.Add(3)
	other.Inc()
	snap := r.Snapshot()
	if got := snap.CounterTotal("hb.sent"); got != 4 {
		t.Fatalf("CounterTotal = %d, want 4", got)
	}
	var got int64
	for _, sm := range snap.Find("hb.sent") {
		if sm.Component == "hb" && sm.Labels == "dir=tx,link=serial" {
			got = sm.Value
		}
	}
	if got != 3 {
		t.Fatalf("labelled sample = %d, want 3", got)
	}
}

// TestHistogramBucketEdges: an observation exactly on a bucket's upper
// bound lands in that bucket, one past it in the next, and anything
// beyond the last bound in the overflow bucket.
func TestHistogramBucketEdges(t *testing.T) {
	r := New(nil)
	bounds := []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond}
	h := r.Histogram("x", "lat", bounds)

	h.Observe(time.Millisecond)       // == bound 0 → bucket 0
	h.Observe(time.Millisecond + 1)   // just over → bucket 1
	h.Observe(10 * time.Millisecond)  // == bound 1 → bucket 1
	h.Observe(100 * time.Millisecond) // == bound 2 → bucket 2
	h.Observe(5 * time.Second)        // overflow
	h.Observe(0)                      // below everything → bucket 0

	found := r.Snapshot().Find("lat")
	if len(found) != 1 {
		t.Fatal("histogram sample missing from snapshot")
	}
	snap := found[0]
	want := []int64{2, 2, 1, 1}
	for i, w := range want {
		if snap.Buckets[i] != w {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, snap.Buckets[i], w, snap.Buckets)
		}
	}
	if snap.Count != 6 {
		t.Fatalf("count = %d, want 6", snap.Count)
	}
	if snap.MinDur != 0 || snap.MaxDur != 5*time.Second {
		t.Fatalf("min/max = %v/%v", snap.MinDur, snap.MaxDur)
	}
	wantSum := time.Millisecond + (time.Millisecond + 1) + 10*time.Millisecond +
		100*time.Millisecond + 5*time.Second
	if snap.Sum != wantSum {
		t.Fatalf("sum = %v, want %v", snap.Sum, wantSum)
	}
}

// TestHistogramBoundsSorted: bounds given out of order are sorted at
// registration so the linear scan stays correct.
func TestHistogramBoundsSorted(t *testing.T) {
	r := New(nil)
	h := r.Histogram("x", "lat", []time.Duration{time.Second, time.Millisecond})
	h.Observe(2 * time.Millisecond)
	s := r.Snapshot().Find("lat")[0]
	if s.Bounds[0] != time.Millisecond || s.Bounds[1] != time.Second {
		t.Fatalf("bounds not sorted: %v", s.Bounds)
	}
	if s.Buckets[0] != 0 || s.Buckets[1] != 1 {
		t.Fatalf("observation landed wrong: %v", s.Buckets)
	}
}

// TestSnapshotImmutability: a snapshot must not change when the live
// registry keeps moving.
func TestSnapshotImmutability(t *testing.T) {
	r := New(nil)
	c := r.Counter("x", "c")
	h := r.Histogram("x", "h", []time.Duration{time.Second})
	c.Inc()
	h.Observe(time.Millisecond)

	snap := r.Snapshot()
	c.Add(100)
	h.Observe(time.Minute)
	r.Counter("x", "late").Inc()

	if got := snap.CounterTotal("c"); got != 1 {
		t.Fatalf("snapshot counter moved: %d", got)
	}
	hs := snap.Find("h")[0]
	if hs.Count != 1 || hs.Buckets[1] != 0 {
		t.Fatalf("snapshot histogram moved: %+v", hs)
	}
	if len(snap.Find("late")) != 0 {
		t.Fatal("instrument registered after snapshot appeared in it")
	}
	// Mutating the snapshot's slices must not reach the registry.
	hs.Buckets[0] = 999
	if r.Snapshot().Find("h")[0].Buckets[0] == 999 {
		t.Fatal("snapshot shares bucket storage with the registry")
	}
}

// TestSnapshotDeterminism: two identical sequences of operations yield
// byte-identical JSON — snapshots are sorted, not map-ordered.
func TestSnapshotDeterminism(t *testing.T) {
	run := func() []byte {
		r := New(func() time.Time { return time.Unix(1000, 0).UTC() })
		// Register in a scrambled order on purpose.
		r.Counter("b/tcp", "tcp.retransmits").Add(2)
		r.Gauge("a/sttcp", "sttcp.holdbuf_bytes").Set(512)
		r.Counter("a/tcp", "tcp.segments_sent", Label{"dir", "tx"}).Add(7)
		r.Histogram("c/netem", "netem.queue_delay", nil).Observe(time.Millisecond)
		r.Counter("a/tcp", "tcp.segments_sent").Inc()
		var buf bytes.Buffer
		if err := r.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshots differ:\n%s\n---\n%s", a, b)
	}
	var decoded Snapshot
	if err := json.Unmarshal(a, &decoded); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(decoded.Samples) != 5 {
		t.Fatalf("decoded %d samples, want 5", len(decoded.Samples))
	}
	for i := 1; i < len(decoded.Samples); i++ {
		p, q := decoded.Samples[i-1], decoded.Samples[i]
		if p.Component > q.Component || (p.Component == q.Component && p.Name > q.Name) {
			t.Fatalf("samples not sorted at %d: %v then %v", i, p, q)
		}
	}
}

// TestZeroAllocHotPath: Inc/Add/Set/Observe on pre-registered
// instruments must not allocate.
func TestZeroAllocHotPath(t *testing.T) {
	r := New(nil)
	c := r.Counter("x", "c")
	g := r.Gauge("x", "g")
	h := r.Histogram("x", "h", nil)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(5)
		g.Add(1)
		h.Observe(3 * time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates %.1f allocs/op, want 0", allocs)
	}
}
