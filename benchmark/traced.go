package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// span is one timed interval of the traced run: a driver batch, a rung, or
// one repetition of a rung. Times are host nanoseconds since the run began.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for the root
	Name     string `json:"name"`
	Workload string `json:"workload,omitempty"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`

	log *spanLog
}

// end closes the span and returns its duration.
func (sp *span) end() time.Duration {
	sp.EndNS = hostNow().Sub(sp.log.origin).Nanoseconds()
	return time.Duration(sp.EndNS - sp.StartNS)
}

// spanLog keeps the traced run's spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	spans  []*span
}

func (l *spanLog) begin(parent *span, name, workload string) *span {
	sp := &span{ID: len(l.spans) + 1, Name: name, Workload: workload, log: l}
	if parent != nil {
		sp.Parent = parent.ID
	}
	l.spans = append(l.spans, sp)
	sp.StartNS = hostNow().Sub(l.origin).Nanoseconds()
	return sp
}

// write stores the spans as one JSON document.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Spans []*span `json:"spans"`
	}{l.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// countingScheduler counts the event queue's traffic from outside the
// simulator. It forwards every call unchanged, so pop order — and with it
// the run's virtual-time outcome — is the inner queue's.
type countingScheduler struct { //sttcp:allow simdeterminism pure pass-through decorator: counts calls, never reorders
	inner                    sim.Scheduler
	schedules, cancels, pops uint64
	maxDepth                 int
}

func (c *countingScheduler) Kind() sim.SchedulerKind { return c.inner.Kind() }
func (c *countingScheduler) Len() int                { return c.inner.Len() }
func (c *countingScheduler) Peek() *sim.Event        { return c.inner.Peek() }

func (c *countingScheduler) Schedule(e *sim.Event) {
	c.inner.Schedule(e)
	c.schedules++
	if n := c.inner.Len(); n > c.maxDepth {
		c.maxDepth = n
	}
}

func (c *countingScheduler) Cancel(e *sim.Event) {
	c.inner.Cancel(e)
	c.cancels++
}

func (c *countingScheduler) Pop() *sim.Event {
	e := c.inner.Pop()
	if e != nil {
		c.pops++
	}
	return e
}

// session is one traced process: the span log, and the driver figures every
// workload's ladder shares.
type session struct {
	spans          *spanLog
	root           *span
	driverSpan     *span
	drivers        map[string]metric
	eventsPerFrame float64 // events the netem driver fires per frame
	// driverDiv divides every driver's batch size; the smoke test raises it.
	driverDiv int
}

func newSession() *session {
	s := &session{spans: &spanLog{origin: hostNow()}, driverDiv: 1}
	s.root = s.spans.begin(nil, "traced-run", "")
	return s
}

// finish closes the root span and writes the log.
func (s *session) finish(path string) error {
	s.root.end()
	return s.spans.write(path)
}

// rung is one step of the ladder measured on the workload itself.
type rung struct {
	name string
	v    variant
	// host figures per segment, one per repetition
	ns, allocs, bytes []float64
}

// countedOps is how many operations of the counted rung the exact counts
// are summed over: a fixed number, so the counts do not depend on how many
// repetitions the machine had time for.
const countedOps = 10

// traced runs one workload's ladder and reports the per-layer metrics.
func (s *session) traced(w workload, seed int64, seconds float64, reps int) *result {
	res := newResult(w, seed, 1)
	if err := s.runDrivers(); err != nil {
		res.problem("%v", err)
		return res
	}
	for name, m := range s.drivers {
		res.set(name, m.Value, m.Unit, driverBatches)
	}
	p := newPlan(w, seed)
	wspan := s.spans.begin(s.root, "workload", w.name)
	defer wspan.end()

	counted := w.ops
	if counted > countedOps {
		counted = countedOps
	}
	if reps > 0 && reps < counted {
		counted = reps
	}
	var (
		counters   []*countingScheduler
		snaps      []*metrics.Snapshot
		detections []float64
		segments   int64
		simFired   uint64
		payload    int64
		serialTx   int64
		traceLen   int
		traceSpans int
		windows    int
	)
	rungs := []*rung{
		{name: "tcp", v: variant{plainTCP: true}},
		{name: "sttcp", v: variant{}},
		{name: "counted", v: variant{sched: func() sim.Scheduler {
			c := &countingScheduler{inner: sim.NewScheduler(sim.SchedulerHeap)}
			counters = append(counters, c)
			return c
		}}},
		{name: "trace-detail", v: variant{detail: true}},
		{name: "telemetry", v: variant{telemetry: 100 * time.Millisecond}},
	}
	// Rungs take turns, one operation each per round, and each round starts
	// one rung later than the last, so that over five rounds every rung has
	// followed every other: an operation reads up to 13 % faster after a
	// memory-hungry one, whose grown heap it inherits, than after a lean one.
	b := budget{reps: reps, min: counted, seconds: seconds}
	var spent []float64
	began := hostNow()
	for n := 0; b.more(n, began, spent); n++ {
		op := n % w.ops
		round := s.spans.begin(wspan, fmt.Sprintf("round %d", n), w.name)
		for i := range rungs {
			rg := rungs[(n+i)%len(rungs)]
			sp := s.spans.begin(round, "rung:"+rg.name, w.name)
			r := p.run(op, rg.v)
			sp.end()
			res.count(fmt.Sprintf("rung %s operation %d", rg.name, op), r)
			if r.failed > 0 {
				continue
			}
			segs := float64(r.segments)
			rg.ns = append(rg.ns, float64(r.host.Nanoseconds())/segs)
			rg.allocs = append(rg.allocs, float64(r.mem.mallocs)/segs)
			rg.bytes = append(rg.bytes, float64(r.mem.bytes)/segs)
			switch {
			case rg.name == "counted" && len(snaps) < counted:
				snaps = append(snaps, r.tb.Metrics.Snapshot())
				segments += r.segments
				simFired += r.fired
				payload += r.payload
				serialTx += r.tb.SerialPrimary.TxBytes + r.tb.SerialBackup.TxBytes
				traceLen += r.tb.Tracer.Len()
				traceSpans += len(r.tb.Tracer.Spans())
				if w.crash {
					detections = append(detections, float64(r.detection.Nanoseconds())/1e6)
				}
			case rg.name == "telemetry" && windows == 0:
				windows = r.tb.Telemetry.Timeline().Windows
			}
		}
		spent = append(spent, round.end().Seconds())
	}
	for _, rg := range rungs {
		if len(rg.ns) == 0 {
			res.problem("rung %s: no repetition succeeded", rg.name)
		}
	}
	if len(res.problems) > 0 || len(snaps) < counted {
		return res
	}
	counters = counters[:counted]

	tcpRung, full, countedRung, detail, telemetry := rungs[0], rungs[1], rungs[2], rungs[3], rungs[4]
	total := func(name string) float64 {
		var n int64
		for _, snap := range snaps {
			n += snap.CounterTotal(name)
		}
		return float64(n)
	}
	count := func(name string, v float64) { res.set(name, v, "count", counted) }

	// sim: the decorator's counts over the counted operations.
	var fired, schedules, cancels float64
	depth := 0
	for _, c := range counters {
		fired += float64(c.pops)
		schedules += float64(c.schedules)
		cancels += float64(c.cancels)
		if c.maxDepth > depth {
			depth = c.maxDepth
		}
	}
	count("sim.events_fired", float64(simFired))
	count("sim.schedule_ops", schedules)
	count("sim.cancel_ops", cancels)
	count("sim.pop_ops", fired)
	res.set("sim.cancel_ratio", cancels/schedules, "ratio", counted)
	count("sim.queue_depth_max", float64(depth))

	// Boundary counters, read from the registry the testbed already keeps.
	for _, name := range []string{
		"netem.link_frames", "netem.link_drops",
		"tcp.segments_sent", "tcp.segments_received", "tcp.segments_suppressed",
		"tcp.retransmits", "tcp.rto_backoffs",
		"hb.sent", "hb.received", "hb.link_down",
		"sttcp.takeovers", "sttcp.suspects", "sttcp.nonft_transitions", "sttcp.recovered_bytes",
	} {
		count(name, total(name))
	}
	res.set("tcp.retransmit_ratio", total("tcp.retransmits")/total("tcp.segments_sent"), "ratio", counted)
	var serialHB int64
	var heldSegs, holdBytes int64
	var takeovers []float64
	queue := mergedHistogram{}
	for _, snap := range snaps {
		for _, sm := range snap.Samples {
			switch {
			case sm.Name == "hb.sent" && sm.Labels == "link=serial-link":
				serialHB += sm.Value
			case sm.Name == "sttcp.held_segments" && sm.Max > heldSegs:
				heldSegs = sm.Max
			case sm.Name == "sttcp.holdbuf_bytes" && sm.Max > holdBytes:
				holdBytes = sm.Max
			case sm.Name == "sttcp.takeover_latency" && sm.Count > 0:
				takeovers = append(takeovers, float64(sm.Sum.Nanoseconds())/float64(sm.Count)/1e6)
			case sm.Name == "netem.queue_delay":
				queue.add(sm)
			}
		}
	}
	bytesPerHB := 0.0
	if serialHB > 0 {
		bytesPerHB = float64(serialTx) / float64(serialHB)
	}
	res.set("hb.bytes_per_message", bytesPerHB, "B", int(serialHB))
	count("sttcp.held_segments", float64(heldSegs))
	res.set("sttcp.holdbuf_bytes_max", float64(holdBytes), "B", counted)
	res.set("sttcp.takeover_latency_ms_p50", percentile(takeovers, 50), "ms", len(takeovers))
	res.set("sttcp.detection_ms_p50", percentile(detections, 50), "ms", len(detections))
	res.set("netem.queue_delay_us_p99", float64(queue.percentile(99).Nanoseconds())/1e3, "us", int(queue.count))

	// Observers.
	count("trace.events", float64(traceLen))
	count("trace.spans", float64(traceSpans))
	count("metrics.instruments", float64(len(snaps[0].Samples)))
	res.set("telemetry.windows", float64(windows), "count", 1)
	res.set("trace.detail_ratio", median(detail.ns)/median(full.ns), "ratio", len(detail.ns))
	res.set("telemetry.ratio", median(telemetry.ns)/median(full.ns), "ratio", len(telemetry.ns))
	res.set("trace_overhead_ratio", median(countedRung.ns)/median(full.ns), "ratio", len(countedRung.ns))

	// The ladder. Its two lowest rungs are modelled — a driver's unit cost
	// times the workload's count — because the queue and the links cannot
	// run a workload without the layers above them; the rungs above are the
	// workload itself, measured. A layer's self time is its rung minus the
	// rung below.
	// The driver figure nearest the workload: the queue at the depth it
	// reached, frames of the size it sends.
	perEvent := s.drivers["sim.heap_ns_per_event_d16"].Value
	if depth > 1000 {
		perEvent = s.drivers["sim.heap_ns_per_event_d4k"].Value
	}
	perFrame := s.drivers["netem.ns_per_frame_1514"].Value
	if w.rounds > 0 {
		perFrame = s.drivers["netem.ns_per_frame_64"].Value
	}
	simRung := fired / float64(segments) * perEvent
	framesPerSeg := total("netem.link_frames") / float64(segments)
	netemRung := simRung + framesPerSeg*(perFrame-s.eventsPerFrame*perEvent)
	// Every payload byte is generated once and verified once below ST-TCP;
	// the backup's second copy of the generator is ST-TCP's own cost.
	perByte := (s.drivers["app.fill_ns_1460"].Value + s.drivers["app.verify_ns_1460"].Value) / 1460
	appSelf := perByte * float64(payload) / float64(segments)

	tcpNS, fullNS, n := median(tcpRung.ns), median(full.ns), len(full.ns)
	perSeg := func(name string, v float64, n int) { res.set(name, v, "ns", n) }
	perSeg("sim.self_ns_per_segment", simRung, counted)
	perSeg("netem.self_ns_per_segment", netemRung-simRung, counted)
	perSeg("app.self_ns_per_segment", appSelf, counted)
	perSeg("tcp.rung_ns_per_segment", tcpNS, n)
	res.set("tcp.rung_allocs_per_segment", median(tcpRung.allocs), "count", n)
	res.set("tcp.rung_alloc_bytes_per_segment", median(tcpRung.bytes), "B", n)
	perSeg("tcp.self_ns_per_segment", tcpNS-netemRung-appSelf, n)
	perSeg("sttcp.rung_ns_per_segment", fullNS, n)
	perSeg("sttcp.self_ns_per_segment", fullNS-tcpNS, n)
	res.set("sttcp.self_allocs_per_segment", median(full.allocs)-median(tcpRung.allocs), "count", n)

	res.Correct = len(res.problems) == 0
	return res
}

// mergedHistogram sums registry histograms that share bucket bounds.
type mergedHistogram struct {
	bounds  []time.Duration
	buckets []int64
	count   int64
	max     time.Duration
}

func (h *mergedHistogram) add(sm metrics.Sample) {
	if h.buckets == nil {
		h.bounds = sm.Bounds
		h.buckets = make([]int64, len(sm.Buckets))
	}
	for i, n := range sm.Buckets {
		if i < len(h.buckets) {
			h.buckets[i] += n
		}
	}
	h.count += sm.Count
	if sm.MaxDur > h.max {
		h.max = sm.MaxDur
	}
}

// percentile returns the upper bound of the bucket holding the p-th
// percentile, capped at the largest observation: as fine as the registry's
// fixed buckets allow.
func (h *mergedHistogram) percentile(p float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	want := int64(rank(int(h.count), p))
	var seen int64
	for i, n := range h.buckets {
		seen += n
		if seen >= want {
			if i < len(h.bounds) && h.bounds[i] < h.max {
				return h.bounds[i]
			}
			return h.max
		}
	}
	return h.max
}
