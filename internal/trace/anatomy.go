package trace

import (
	"fmt"
	"strings"
	"time"
)

// FailoverAnatomy decomposes one failover into the phases of the paper's
// Table 1: failure detection, the takeover action itself, and the wait for
// the client's TCP retransmission that lets the backup pick the stream up.
// The phases provably reconcile with the client-visible stall:
//
//	Detection + Takeover + RetransmitWait
//	    = ClientStall + PipelineDrain − DeliveryLatency
//
// because both sides equal ResumeTxAt − FaultAt. PipelineDrain is the data
// still in flight when the fault hit (the client keeps receiving for a
// moment after the primary dies), DeliveryLatency is the network time of
// the first post-takeover delivery.
type FailoverAnatomy struct {
	// Component is the node that performed the takeover ("backup/sttcp").
	Component string
	// FaultKind is the injected fault that started the clock
	// (host-crash, os-crash, app-crash, nic-fail, link-drop).
	FaultKind Kind

	FaultAt    time.Time // fault injection
	SuspectAt  time.Time // failure declared
	TakeoverAt time.Time // backup took over the connections
	ResumeTxAt time.Time // first post-takeover transmission on a service conn
	StallStart time.Time // last client delivery before the stall
	StallEnd   time.Time // first client delivery after the stall

	Detection      time.Duration // FaultAt → SuspectAt
	Takeover       time.Duration // SuspectAt → TakeoverAt
	RetransmitWait time.Duration // TakeoverAt → ResumeTxAt

	PipelineDrain   time.Duration // FaultAt → StallStart (in-flight data draining)
	DeliveryLatency time.Duration // ResumeTxAt → StallEnd (network + delivery)
	ClientStall     time.Duration // StallStart → StallEnd

	DetectionSpan, TakeoverSpan, RetransmitWaitSpan SpanID
}

// PhaseSum is the anatomy's account of the outage: detection plus takeover
// plus retransmission wait.
func (a FailoverAnatomy) PhaseSum() time.Duration {
	return a.Detection + a.Takeover + a.RetransmitWait
}

// Residual is the (signed) difference between PhaseSum and the
// client-derived measurement ClientStall + PipelineDrain − DeliveryLatency.
// It is zero whenever all boundary events were observed.
func (a FailoverAnatomy) Residual() time.Duration {
	return a.PhaseSum() - (a.ClientStall + a.PipelineDrain - a.DeliveryLatency)
}

func (a FailoverAnatomy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "failover anatomy (%s, fault %s):\n", a.Component, a.FaultKind)
	fmt.Fprintf(&b, "  detection        %12v  (fault → suspect)\n", a.Detection)
	fmt.Fprintf(&b, "  takeover         %12v  (suspect → taken over)\n", a.Takeover)
	fmt.Fprintf(&b, "  retransmit-wait  %12v  (taken over → first retransmission)\n", a.RetransmitWait)
	fmt.Fprintf(&b, "  ---------------  ------------\n")
	fmt.Fprintf(&b, "  phase sum        %12v\n", a.PhaseSum())
	fmt.Fprintf(&b, "  client stall     %12v  (+%v pipeline drain, -%v delivery latency)\n",
		a.ClientStall, a.PipelineDrain, a.DeliveryLatency)
	return b.String()
}

// faultKinds are the injected faults that can start a failover clock.
// PowerOff is excluded: it is the STONITH *consequence* of a suspicion,
// not a cause.
var faultKinds = []Kind{KindHostCrash, KindOSCrash, KindAppCrash, KindNICFail, KindLinkDrop}

// Anatomy analyzes the recorded run and returns one FailoverAnatomy per
// takeover, in takeover order. Runs without a takeover (baselines, clean
// runs, non-FT fallbacks) yield an empty slice.
func (r *Recorder) Anatomy() []FailoverAnatomy {
	if r == nil {
		return nil
	}
	r.FinalizeAutoSpans()
	var out []FailoverAnatomy
	for _, sp := range r.FilterSpans(KindTakeover) {
		out = append(out, r.anatomyOf(sp))
	}
	return out
}

func (r *Recorder) anatomyOf(take Span) FailoverAnatomy {
	a := FailoverAnatomy{
		Component:    take.Component,
		TakeoverAt:   take.Start,
		TakeoverSpan: take.ID,
	}

	// The suspect event lives on the detection span (the takeover's
	// parent); fall back to the last suspect at or before the takeover.
	if det, ok := r.SpanByID(take.Parent); ok && det.Kind == KindDetection {
		a.DetectionSpan = det.ID
	}
	for _, e := range r.Filter(KindSuspect) {
		if !e.Time.After(a.TakeoverAt) && (a.DetectionSpan == 0 || e.Span == a.DetectionSpan) {
			a.SuspectAt = e.Time
		}
	}
	if a.SuspectAt.IsZero() {
		a.SuspectAt = a.TakeoverAt
	}

	// The fault that started the clock: the latest injection at or before
	// the suspicion. Spontaneous (false) suspicions have no fault; their
	// detection phase is zero by construction.
	for _, k := range faultKinds {
		for _, e := range r.Filter(k) {
			if !e.Time.After(a.SuspectAt) && e.Time.After(a.FaultAt) {
				a.FaultAt = e.Time
				a.FaultKind = k
			}
		}
	}
	if a.FaultAt.IsZero() {
		a.FaultAt = a.SuspectAt
	}

	// Resumption: the retransmit-wait span is a child of the takeover
	// span; its end is the first post-takeover transmission.
	for _, sp := range r.FilterSpans(KindRetransmitWait) {
		if sp.Parent == take.ID {
			a.RetransmitWaitSpan = sp.ID
			if !sp.Open() {
				a.ResumeTxAt = sp.End
			}
		}
	}
	if a.ResumeTxAt.IsZero() {
		a.ResumeTxAt = a.TakeoverAt
	}

	a.Detection = a.SuspectAt.Sub(a.FaultAt)
	a.Takeover = a.TakeoverAt.Sub(a.SuspectAt)
	a.RetransmitWait = a.ResumeTxAt.Sub(a.TakeoverAt)

	// Client-side view: the deliveries that bracket the takeover, read from
	// the clients' own progress series (BindProgress). A recorder with no
	// series bound — a baseline run, a bare recorder — leaves it zero.
	if r.progress == nil {
		return a
	}
	before, after := r.progress(a.TakeoverAt)
	if !before.IsZero() && !after.IsZero() {
		a.StallStart = before
		a.StallEnd = after
		a.ClientStall = after.Sub(before)
		a.PipelineDrain = before.Sub(a.FaultAt)
		a.DeliveryLatency = after.Sub(a.ResumeTxAt)
	}
	return a
}
