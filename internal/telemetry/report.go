package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// ReportVersion is the run-report schema version. Readers reject files
// whose version they do not understand; bump it on incompatible changes
// and teach Read about the old shape if migration matters.
const ReportVersion = 1

// Report is the single versioned artifact a run emits: everything a later
// session (or CI) needs to reproduce, inspect, and diff the run. Every
// figure in it derives from virtual time — no wall clocks, hostnames, or
// toolchain versions — so reports are byte-comparable across machines.
//
// The package deliberately does not import the experiment or chaos
// packages (they import telemetry); those layers fill the plain-typed
// sections here.
type Report struct {
	Version int `json:"version"`

	// Run identity: which demo/scenario, under what knobs.
	Demo   string            `json:"demo,omitempty"`
	Seed   int64             `json:"seed"`
	Params map[string]string `json:"params,omitempty"`

	// FinishedAt is the virtual instant the run ended.
	FinishedAt time.Time `json:"finished_at"`

	Metrics   *metrics.Snapshot `json:"metrics,omitempty"`
	Telemetry *Timeline         `json:"telemetry,omitempty"`
	Anatomy   []Phases          `json:"anatomy,omitempty"`
	Chaos     *ChaosReport      `json:"chaos,omitempty"`
}

// NewReport is the one constructor every report producer goes through
// (registry demos, chaos runs — which then add their Chaos section — and
// scenario scripts): it stamps the schema version, takes FinishedAt from
// the snapshot, and converts the tracer's anatomies to their report form.
// snap, tl and anatomies may each be nil.
func NewReport(demo string, seed int64, params map[string]string, snap *metrics.Snapshot, tl *Timeline, anatomies []trace.FailoverAnatomy) *Report {
	r := &Report{
		Version:   ReportVersion,
		Demo:      demo,
		Seed:      seed,
		Params:    params,
		Metrics:   snap,
		Telemetry: tl,
	}
	if snap != nil {
		r.FinishedAt = snap.At
	}
	for _, a := range anatomies {
		r.Anatomy = append(r.Anatomy, PhasesFromAnatomy(a))
	}
	return r
}

// Phases is the plain-typed mirror of trace.FailoverAnatomy: one
// failover's phase decomposition, in a shape that serializes compactly
// and diffs field-by-field.
type Phases struct {
	Component string `json:"component"`
	FaultKind string `json:"fault_kind,omitempty"`

	Detection      time.Duration `json:"detection"`
	Takeover       time.Duration `json:"takeover"`
	RetransmitWait time.Duration `json:"retransmit_wait"`

	PipelineDrain   time.Duration `json:"pipeline_drain"`
	DeliveryLatency time.Duration `json:"delivery_latency"`
	ClientStall     time.Duration `json:"client_stall"`
	Residual        time.Duration `json:"residual,omitempty"`
}

// PhasesFromAnatomy converts one recorded anatomy into its report form.
func PhasesFromAnatomy(a trace.FailoverAnatomy) Phases {
	return Phases{
		Component:       a.Component,
		FaultKind:       a.FaultKind.String(),
		Detection:       a.Detection,
		Takeover:        a.Takeover,
		RetransmitWait:  a.RetransmitWait,
		PipelineDrain:   a.PipelineDrain,
		DeliveryLatency: a.DeliveryLatency,
		ClientStall:     a.ClientStall,
		Residual:        a.Residual(),
	}
}

// ChaosReport captures a chaos run's schedule and invariant verdicts.
type ChaosReport struct {
	// Schedule is the human-readable fault schedule (chaos.Schedule.String).
	Schedule string `json:"schedule"`
	// Events is the number of scheduled fault events.
	Events int `json:"events"`
	// Invariants holds one verdict per system-wide invariant, in
	// chaos.InvariantNames order.
	Invariants []InvariantVerdict `json:"invariants"`
	// Injected counts successfully applied fault events per injector
	// name — the ground truth for what the run actually exercised (a
	// skipped event leaves no count here).
	Injected map[string]int `json:"injected,omitempty"`
	// Skipped lists events the harness could not apply (if any).
	Skipped []string `json:"skipped,omitempty"`
}

// InvariantVerdict is one invariant's outcome: an empty Violations slice
// means it held.
type InvariantVerdict struct {
	Name       string   `json:"name"`
	Violations []string `json:"violations,omitempty"`
}

// Write serializes the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	if r.Version == 0 {
		r.Version = ReportVersion
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Read parses a report and validates its version.
func Read(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("telemetry: read report: %w", err)
	}
	if r.Version != ReportVersion {
		return nil, fmt.Errorf("telemetry: report version %d, this build reads version %d", r.Version, ReportVersion)
	}
	return &r, nil
}

// ReadFile reads a report from path.
func ReadFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: read report: %w", err)
	}
	defer f.Close()
	return Read(f)
}
