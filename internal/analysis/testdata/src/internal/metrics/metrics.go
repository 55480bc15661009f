// Package metrics is a corpus stand-in: the snapshot type a run's
// artifacts include, on the real package-path suffix.
package metrics

// Snapshot mimics a run's metrics snapshot.
type Snapshot struct{}
