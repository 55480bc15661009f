// Package telemetry is a corpus stand-in: the timeline type a run's
// artifacts include, on the real package-path suffix.
package telemetry

// Timeline mimics a run's sampled timeline.
type Timeline struct{}
