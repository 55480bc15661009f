package chaos

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/sttcp"
	"repro/internal/trace"
)

// What the gray invariants may expect of an injected gray fault — the
// after hooks of the gray rows in kinds. Verdict-class faults (starve, asym
// partition) record a detection expectation: the run FAILS if no takeover
// happens by the deadline. Noise-class faults (corruption, skew) record the
// opposite: the detectors must ride them out, judged by gray-quiescence.
// Flaps sit in between — flap-containment tolerates one takeover but never
// two.

// grayExpect is one recorded detection obligation: the gray fault just
// applied must cause a takeover whose span starts at or before deadline
// (run-relative). Judged by the gray-detection-bound invariant.
type grayExpect struct {
	deadline time.Duration
	what     string
}

// grayEvidence is one end-of-run predicate proving an injected gray fault
// actually bit (corruption counters advanced, the drift note fired).
// Judged by the gray-evidence invariant.
type grayEvidence struct {
	desc string
	ok   func() bool
}

// expectTakeoverBy records that the fault just injected must be detected: a
// takeover span must start within d of now. Judged by gray-detection-bound.
func (h *harness) expectTakeoverBy(d time.Duration, what string) {
	h.grayExpects = append(h.grayExpects, grayExpect{deadline: h.tb.Sim.Elapsed() + d, what: what})
}

// expectEvidence records an end-of-run predicate proving the fault actually
// bit; desc names it in the gray-evidence violation.
func (h *harness) expectEvidence(desc string, ok func() bool) {
	h.grayEvidence = append(h.grayEvidence, grayEvidence{desc: desc, ok: ok})
}

// expectStarveVerdict: with a long echo workload keeping responses
// flowing, a starve this deep holds response staleness past the SLO
// (staleness ≈ (scale−1)·1ms of app quantum stretch), so the scorer must
// reach its threshold: its SLO and hold (DESIGN.md §7) plus heartbeat
// piggyback lag, with slack for the score ramp.
func expectStarveVerdict(h *harness, ev Event, _ *cluster.Host) {
	if h.sc.Workload == "echo" && ev.Scale >= 420 && ev.Dur >= 5*time.Second {
		h.expectTakeoverBy(4*time.Second, fmt.Sprintf("slow-not-dead primary (cpu ×%.0f) past response SLO", ev.Scale))
	}
}

// expectAsymVerdict: the standby's asymmetric-partition criterion must
// convict within its bound, with slack for ping and detector cadence.
func expectAsymVerdict(h *harness, _ Event, t *cluster.Host) {
	h.expectTakeoverBy(sttcp.AsymPartitionBound(h.cfg.HBPeriod)+1500*time.Millisecond,
		fmt.Sprintf("asymmetric partition (%s outbound cut)", t.Name()))
}

// Corruption evidence is statistical: a clean window proves nothing if
// almost no frames crossed the wire (an overlapping loss or delay fault
// can stall the workload into RTO backoff). An exposure counts traffic
// actually subjected to the corruption rate; the evidence check only
// demands a reject once enough frames were exposed that a clean window is
// astronomically unlikely (0.95^250 ≈ 3e-6 at the gray campaign's rate floor;
// 0.70^25 ≈ 1e-4 on serial).
const (
	corruptMinFrames     = 250
	serialCorruptMinMsgs = 25
)

// exposure reads a monotonic traffic counter from the injection until the
// window closes, where it freezes so later traffic does not inflate it.
func (h *harness) exposure(dur time.Duration, count func() int64) func() int64 {
	start, end, closed := count(), int64(0), false
	h.tb.Sim.Schedule(dur, func() { end, closed = count(), true })
	return func() int64 {
		if closed {
			return end - start
		}
		return count() - start
	}
}

func observeLinkCorruption(h *harness, ev Event, t *cluster.Host) {
	h.extendLossWindow(ev.Dur)
	h.grayNoise++
	link := h.tb.Link(t.Name())
	exposed := h.exposure(ev.Dur, func() int64 { return link.Delivered })
	h.expectEvidence(fmt.Sprintf("checksum rejects on the %s link", t.Name()),
		func() bool { return link.Corrupted > 0 || exposed() < corruptMinFrames })
}

// observeSerialCorruption counts the messages that actually reached a
// receiver's CRC check (delivered plus rejected — a flapped-down port drops
// in flight without ever checking the FCS).
func observeSerialCorruption(h *harness, ev Event, _ *cluster.Host) {
	h.grayNoise++
	a, b := h.tb.SerialPrimary, h.tb.SerialBackup
	exposed := h.exposure(ev.Dur, func() int64 { return a.RxMessages + a.CRCErrors + b.RxMessages + b.CRCErrors })
	h.expectEvidence("CRC rejects on the serial cable",
		func() bool { return a.CRCErrors+b.CRCErrors > 0 || exposed() < serialCorruptMinMsgs })
}

// expectDriftNote: large enough skew held long enough must trip the peer's
// cadence drift estimator (±80‰ note threshold, EWMA warm-up ≈ 30 samples
// at the heartbeat period). Only demanded when the schedule leaves the
// observer alive and its heartbeat stream intact — see
// Schedule.DriftObservable.
func expectDriftNote(h *harness, ev Event, t *cluster.Host) {
	h.grayNoise++
	d := ev.Scale - 1
	if d < 0 {
		d = -d
	}
	if h.sc.DriftObservable() && d >= 0.10 && ev.Dur >= 5*time.Second {
		h.expectEvidence(fmt.Sprintf("heartbeat cadence drift note for %s (×%.3f)", t.Name(), ev.Scale), func() bool {
			for _, e := range h.tb.Tracer.Filter(trace.KindGeneric) {
				if strings.Contains(e.Message, "clock-rate skew suspected") {
					return true
				}
			}
			return false
		})
	}
}
