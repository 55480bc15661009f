package metrics

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// Sample is one instrument's state at snapshot time. Exactly one of the
// Counter/Gauge/Histogram views is populated, per Type.
type Sample struct {
	Component string `json:"component"`
	Name      string `json:"name"`
	Labels    string `json:"labels,omitempty"`
	Type      string `json:"type"` // "counter", "gauge", "histogram"

	// Counter / gauge.
	Value int64 `json:"value,omitempty"`
	Max   int64 `json:"max,omitempty"` // gauge high-water mark

	// Histogram.
	Count   int64           `json:"count,omitempty"`
	Sum     time.Duration   `json:"sum,omitempty"`
	MinDur  time.Duration   `json:"min,omitempty"`
	MaxDur  time.Duration   `json:"max_dur,omitempty"`
	Bounds  []time.Duration `json:"bounds,omitempty"`
	Buckets []int64         `json:"buckets,omitempty"` // len(Bounds)+1, last = overflow
}

// Snapshot is an immutable copy of every instrument in a registry,
// sorted by (component, name, labels, type) — type breaks the tie when
// one key holds several instrument kinds, so the order is total and two
// snapshots of the same registry state serialize identically; WriteJSON
// emits samples in exactly this order. Taking a snapshot does not disturb the live instruments, and later updates to the
// registry do not alter an already-taken snapshot.
type Snapshot struct {
	At      time.Time `json:"at"` // virtual time the snapshot was taken
	Samples []Sample  `json:"samples"`
}

// Snapshot captures the registry's current state. Nil registry yields
// an empty snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	if r == nil {
		return s
	}
	if r.now != nil {
		s.At = r.now()
	}
	for _, k := range r.order {
		if c, ok := r.counters[k]; ok {
			s.Samples = append(s.Samples, Sample{
				Component: k.component, Name: k.name, Labels: k.labels,
				Type: "counter", Value: c.v,
			})
		}
		if g, ok := r.gauges[k]; ok {
			s.Samples = append(s.Samples, Sample{
				Component: k.component, Name: k.name, Labels: k.labels,
				Type: "gauge", Value: g.v, Max: g.max,
			})
		}
		if h, ok := r.histos[k]; ok {
			s.Samples = append(s.Samples, Sample{
				Component: k.component, Name: k.name, Labels: k.labels,
				Type: "histogram", Count: h.count, Sum: h.sum,
				MinDur: h.min, MaxDur: h.max,
				Bounds:  append([]time.Duration(nil), h.bounds...),
				Buckets: append([]int64(nil), h.counts...),
			})
		}
	}
	sort.Slice(s.Samples, func(i, j int) bool {
		a, b := s.Samples[i], s.Samples[j]
		if a.Component != b.Component {
			return a.Component < b.Component
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Labels != b.Labels {
			return a.Labels < b.Labels
		}
		// sort.Slice is not stable: without the type tie-break a key
		// holding both a counter and a gauge could serialize in either
		// order run to run.
		return a.Type < b.Type
	})
	return s
}

// CounterTotal sums every counter sample named name across all
// components and label sets. Nil-safe.
func (s *Snapshot) CounterTotal(name string) int64 {
	if s == nil {
		return 0
	}
	var total int64
	for _, sm := range s.Samples {
		if sm.Type == "counter" && sm.Name == name {
			total += sm.Value
		}
	}
	return total
}

// Find returns every sample named name, in snapshot order. Nil-safe.
func (s *Snapshot) Find(name string) []Sample {
	if s == nil {
		return nil
	}
	var out []Sample
	for _, sm := range s.Samples {
		if sm.Name == name {
			out = append(out, sm)
		}
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
