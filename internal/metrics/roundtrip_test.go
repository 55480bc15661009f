package metrics

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// scrambledRegistry registers instruments in deliberately unsorted order,
// including one key that holds both a counter and a gauge — the case the
// type tie-break in the snapshot order exists for.
func scrambledRegistry() *Registry {
	r := New(func() time.Time { return time.Date(2005, 6, 28, 0, 0, 1, 0, time.UTC) })
	r.Counter("zeta", "tcp.segments_sent").Add(7)
	r.Gauge("alpha", "shared.key").Set(3)
	r.Histogram("mid", "lat", []time.Duration{time.Millisecond, time.Second}).Observe(2 * time.Millisecond)
	r.Counter("alpha", "shared.key").Add(11) // same key as the gauge above
	r.Counter("alpha", "b.counter", Label{"link", "x"}).Inc()
	r.Counter("alpha", "b.counter").Inc()
	return r
}

func TestSnapshotOrderIsDocumentedAndDeterministic(t *testing.T) {
	snap := scrambledRegistry().Snapshot()
	type k struct{ c, n, l, ty string }
	var got []k
	for _, sm := range snap.Samples {
		got = append(got, k{sm.Component, sm.Name, sm.Labels, sm.Type})
	}
	want := []k{
		{"alpha", "b.counter", "", "counter"},
		{"alpha", "b.counter", "link=x", "counter"},
		{"alpha", "shared.key", "", "counter"},
		{"alpha", "shared.key", "", "gauge"},
		{"mid", "lat", "", "histogram"},
		{"zeta", "tcp.segments_sent", "", "counter"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot order = %v, want (component, name, labels, type) order %v", got, want)
	}
	// The same registry state must serialize identically every time.
	var a, b bytes.Buffer
	if err := scrambledRegistry().Snapshot().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := scrambledRegistry().Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two snapshots of identical registry state serialized differently:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	snap := scrambledRegistry().Snapshot()
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back Snapshot
	if err := json.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !snap.At.Equal(back.At) {
		t.Errorf("At round-tripped to %v, want %v", back.At, snap.At)
	}
	back.At = snap.At // time.Time location differs after JSON; value equality checked above
	if !reflect.DeepEqual(snap.Samples, back.Samples) {
		t.Errorf("samples did not round-trip.\nwrote: %+v\nread:  %+v", snap.Samples, back.Samples)
	}
}
