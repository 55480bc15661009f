package metrics

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"io"
	"reflect"
	"strconv"
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

// writeCSV writes the snapshot as CSV with one row per sample:
// component,name,labels,type,value,max,count,sum_ns. Histogram buckets
// are elided — use JSON for the full distribution.
func writeCSV(s *Snapshot, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"component", "name", "labels", "type", "value", "max", "count", "sum_ns"}); err != nil {
		return err
	}
	for _, sm := range s.Samples {
		rec := []string{
			sm.Component, sm.Name, sm.Labels, sm.Type,
			strconv.FormatInt(sm.Value, 10),
			strconv.FormatInt(sm.Max, 10),
			strconv.FormatInt(sm.Count, 10),
			strconv.FormatInt(int64(sm.Sum), 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func TestSnapshotCSVRoundTrip(t *testing.T) {
	snap := scrambledRegistry().Snapshot()
	var buf bytes.Buffer
	if err := writeCSV(snap, &buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("parse CSV back: %v", err)
	}
	wantHeader := []string{"component", "name", "labels", "type", "value", "max", "count", "sum_ns"}
	if !reflect.DeepEqual(rows[0], wantHeader) {
		t.Fatalf("CSV header = %v, want %v", rows[0], wantHeader)
	}
	if len(rows)-1 != len(snap.Samples) {
		t.Fatalf("CSV has %d data rows, want %d", len(rows)-1, len(snap.Samples))
	}
	for i, sm := range snap.Samples {
		row := rows[i+1]
		if row[0] != sm.Component || row[1] != sm.Name || row[2] != sm.Labels || row[3] != sm.Type {
			t.Errorf("row %d identity = %v, want %s/%s/%q/%s (CSV must follow snapshot order)",
				i, row[:4], sm.Component, sm.Name, sm.Labels, sm.Type)
		}
		for col, want := range map[int]int64{4: sm.Value, 5: sm.Max, 6: sm.Count, 7: int64(sm.Sum)} {
			got, err := strconv.ParseInt(row[col], 10, 64)
			if err != nil || got != want {
				t.Errorf("row %d col %d = %q, want %d", i, col, row[col], want)
			}
		}
	}
}
