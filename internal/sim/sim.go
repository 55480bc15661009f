// Package sim implements a deterministic discrete-event simulator.
//
// Everything in this repository — links, NICs, TCP stacks, heartbeat timers,
// applications — runs on one single-threaded event loop driven by a virtual
// clock. A simulation run is completely determined by its seed and the order
// in which events are scheduled, which makes every experiment reproducible
// bit-for-bit. No component inside a simulation may use the real clock or
// spawn goroutines.
//
// Events wait in an indexed heap that holds live events only (a cancelled
// one leaves at once), behind the Scheduler interface; Config.Custom is the
// seam through which the interleaving explorer and the benchmark decorate it.
// A wake-up — a zero-delay Clock.Post from a running callback — is parked
// rather than queued, and once the callback returns it runs in place if
// nothing else is due at its instant, without an event; otherwise it is
// queued under the sequence number it reserved, so pop order, virtual time
// and every tie group stay as if each wake-up were queued. Fired counts the
// events the queue pops, so a wake-up run in place adds nothing to it.
// Virtual time is an integer, nanoseconds since Epoch, wherever an event is
// keyed or a per-segment deadline kept; Now is its time.Time form, for
// reports (see DESIGN.md "Scheduler architecture").
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Epoch is the virtual time at which every simulation starts. The concrete
// date is arbitrary; only durations relative to Epoch are meaningful.
var Epoch = time.Date(2005, time.June, 28, 0, 0, 0, 0, time.UTC)

// ErrStopped is returned by Run when the simulation was stopped explicitly
// via Stop rather than by reaching its horizon or draining its event queue.
var ErrStopped = errors.New("sim: stopped")

// Event is a scheduled callback. It is created by Schedule/At and can be
// cancelled until it fires.
//
// An Event may be re-scheduled after it fires or is cancelled (that is how
// Timer re-arms without allocating).
type Event struct {
	when    int64 // virtual time, nanoseconds since Epoch
	seq     uint64
	fn      func()
	ctx     uint64 // causal context captured at schedule time
	heapPos int    // owned by heapScheduler: 1 + the index of the event's entry, 0 when not queued there
	gen     uint32 // bumped on cancel and fire; the calendar queue's entries snapshot it
	live    bool   // the event is in the queue
	pooled  bool   // created by Post; recycled after firing
	daemon  bool   // background event: does not keep Run alive (see NewDaemonTicker)

	// prev and next link an armed timer or post into its Clock's list,
	// which Clock.Stop cancels; both are nil while the event is off one.
	prev, next *Event
}

// SchedKey reports the (virtual time, sequence) key the event is ordered
// by: nanoseconds since Epoch and the simulator-unique sequence number.
// It exists for Scheduler implementations outside this package (injected
// via Config.Custom), which must order pops by exactly this key — except
// that entries sharing whenNS may be permuted, which is the explorer's
// whole license to fork.
func (e *Event) SchedKey() (whenNS int64, seq uint64) { return e.when, e.seq }

// CausalContext reports the ambient causal context captured when the
// event was scheduled (a trace span ID, or zero for none). Scheduler
// wrappers use it to judge whether two same-timestamp events touch
// disjoint components and therefore commute.
func (e *Event) CausalContext() uint64 { return e.ctx }

// Simulator is a deterministic discrete-event scheduler. The zero value is
// not usable; construct with New or NewWithConfig.
type Simulator struct {
	nowNS   int64 // virtual time, nanoseconds since Epoch (the scheduler's key space)
	sched   Scheduler
	seq     uint64
	rng     *rand.Rand
	stopped bool
	running bool
	fired   uint64
	ctx     uint64
	fg      int      // live non-daemon events in the queue
	free    []*Event // recycled Post events

	// firing is set while a popped event's callback runs; only then does
	// Clock.Post park a zero-delay call in wake instead of queueing it.
	firing bool
	wake   wakeup
}

// wakeup is the same-instant tail: a zero-delay Clock.Post parked by the
// running callback, keyed by the sequence number it reserved. fn is nil
// when the tail is empty. It holds at most one call: a second one at the
// same instant makes both due now, so both queue (see settle).
type wakeup struct {
	fn    func()
	ctx   uint64
	seq   uint64
	clock *Clock
}

// NewRand returns a deterministic random source derived from seed. It is
// the single audited construction point for randomness in sim-driven code
// (see DESIGN.md "Determinism contract"): every component draws either
// from the simulator's own source (Rand) or from a *rand.Rand built here,
// so one seed determines the entire run and `sttcp vet`'s simdeterminism
// analyzer can forbid rand construction everywhere else.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) //sttcp:allow simdeterminism this is the audited seeding point itself
}

// New returns a simulator whose clock reads Epoch, whose random source is
// seeded with seed, and whose event queue is the default scheduler.
func New(seed int64) *Simulator {
	return NewWithConfig(Config{Seed: seed})
}

// NewWithConfig returns a simulator built from cfg: clock at Epoch, random
// source seeded with cfg.Seed, event queue per cfg.Scheduler (or
// cfg.Custom verbatim when one is injected).
func NewWithConfig(cfg Config) *Simulator {
	sched := cfg.Custom
	if sched == nil {
		sched = newScheduler(cfg.Scheduler)
	}
	return &Simulator{
		rng:   NewRand(cfg.Seed),
		sched: sched,
	}
}

// Now returns the current virtual time. It is derived on each call; code
// that keeps a deadline per segment keeps it as Elapsed instead.
func (s *Simulator) Now() time.Time { return Epoch.Add(time.Duration(s.nowNS)) }

// Since returns the virtual duration elapsed since t.
func (s *Simulator) Since(t time.Time) time.Duration { return s.Now().Sub(t) }

// Elapsed returns the virtual duration elapsed since Epoch: the clock as
// the simulator keeps it.
func (s *Simulator) Elapsed() time.Duration { return time.Duration(s.nowNS) }

// Rand returns the simulation's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Context returns the ambient causal context (an opaque token, typically a
// trace span ID). Every event scheduled while a context is set inherits it,
// and the context is restored when the event later fires — so causality
// follows work across asynchronous hops (link delivery, switch forwarding,
// retransmission timers) without explicit plumbing. Zero means "no context".
func (s *Simulator) Context() uint64 { return s.ctx }

// SetContext installs the ambient causal context. Callers normally save the
// previous value and restore it when their causal scope ends:
//
//	prev := s.Context()
//	s.SetContext(id)
//	defer s.SetContext(prev)
func (s *Simulator) SetContext(ctx uint64) { s.ctx = ctx }

// Fired reports how many events have fired so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending reports how many events are scheduled but have not fired or
// been cancelled.
func (s *Simulator) Pending() int { return s.sched.Len() }

// after converts a delay from the present to the scheduler's key space. A
// negative delay is the present (events cannot fire in the past), and a
// delay that would overflow saturates at the end of time instead of
// wrapping into the past.
//
//sttcp:hotpath
func (s *Simulator) after(delay time.Duration) int64 {
	if delay <= 0 {
		return s.nowNS
	}
	if delay > math.MaxInt64-time.Duration(s.nowNS) {
		return math.MaxInt64
	}
	return s.nowNS + int64(delay)
}

// enqueue keys e at whenNS with the next sequence number and hands it to
// the scheduler.
//
//sttcp:hotpath
func (s *Simulator) enqueue(e *Event, whenNS int64) {
	seq := s.seq
	s.seq++
	s.enqueueSeq(e, whenNS, seq)
}

// enqueueSeq keys e at (whenNS, seq) and hands it to the scheduler.
//
//sttcp:hotpath
func (s *Simulator) enqueueSeq(e *Event, whenNS int64, seq uint64) {
	e.when = whenNS
	e.seq = seq
	e.live = true
	if !e.daemon {
		s.fg++
	}
	s.sched.Schedule(e)
}

// Schedule arranges for fn to run after delay of virtual time. A negative
// delay is treated as zero. The returned event can be cancelled until it
// fires.
func (s *Simulator) Schedule(delay time.Duration, fn func()) *Event {
	return s.scheduleAt(s.after(delay), fn)
}

// At arranges for fn to run at virtual time t. Times in the past are clamped
// to the present.
func (s *Simulator) At(t time.Time, fn func()) *Event {
	whenNS := int64(t.Sub(Epoch))
	if whenNS < s.nowNS {
		whenNS = s.nowNS
	}
	return s.scheduleAt(whenNS, fn)
}

func (s *Simulator) scheduleAt(whenNS int64, fn func()) *Event {
	if fn == nil {
		panic("sim: Schedule or At called with nil callback")
	}
	e := &Event{fn: fn, ctx: s.ctx}
	s.enqueue(e, whenNS)
	return e
}

// Post arranges for fn to run after delay of virtual time, like Schedule,
// but returns no handle: the event cannot be cancelled, and the simulator
// recycles its Event once it fires. Per-segment work (frame delivery, switch
// forwarding, readable/writable notifications) uses Post so steady-state
// traffic does not allocate one Event per segment.
//
//sttcp:hotpath
func (s *Simulator) Post(delay time.Duration, fn func()) { s.post(delay, fn) }

// post is Post returning the queued event, for Clock.Post to own.
//
//sttcp:hotpath
func (s *Simulator) post(delay time.Duration, fn func()) *Event {
	if fn == nil {
		//sttcp:allow hotpathalloc programming-error panic, never taken in steady state (TestHeapSteadyStateAllocs)
		panic("sim: Post called with nil callback")
	}
	e := s.pooled(fn, s.ctx)
	s.enqueue(e, s.after(delay))
	return e
}

// pooled returns a recycled Post event (a new one when none is free)
// carrying fn and ctx.
//
//sttcp:hotpath
func (s *Simulator) pooled(fn func(), ctx uint64) *Event {
	n := len(s.free)
	if n == 0 {
		return &Event{fn: fn, ctx: ctx, pooled: true}
	}
	e := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	e.fn, e.ctx = fn, ctx
	return e
}

// park holds a zero-delay Clock.Post in the same-instant tail and reports
// whether it did: only a running callback parks, and a second call at
// the same instant queues the parked one and is queued itself.
//
//sttcp:hotpath
func (s *Simulator) park(c *Clock, fn func()) bool {
	if !s.firing || fn == nil {
		return false
	}
	if s.wake.fn != nil {
		s.queueWake()
		return false
	}
	s.wake = wakeup{fn: fn, ctx: s.ctx, seq: s.seq, clock: c}
	s.seq++
	return true
}

// queueWake queues the parked call as the pooled post it would have been,
// under the sequence number it reserved, so it pops where that post would.
//
//sttcp:hotpath
func (s *Simulator) queueWake() {
	w := s.wake
	s.wake = wakeup{}
	e := s.pooled(w.fn, w.ctx)
	s.enqueueSeq(e, s.nowNS, w.seq)
	w.clock.own(e)
}

// settle empties the same-instant tail after a callback returns. A parked
// call with nothing else due at this instant — what Peek returns, so a
// Config.Custom queue has its say — runs in place, without an event: it
// is the pop that would come next, and alone at its instant it forms no
// tie. Otherwise, or once Stop was called, it is queued. A call parked by
// one that ran in place is settled the same way.
func (s *Simulator) settle() {
	for s.wake.fn != nil {
		if next := s.sched.Peek(); s.stopped || next != nil && next.when <= s.nowNS {
			s.queueWake()
			return
		}
		w := s.wake
		s.wake = wakeup{}
		s.ctx = w.ctx
		w.fn()
	}
}

// Cancel removes e from the queue. Cancelling a nil, fired, or already
// cancelled event is a no-op.
//
//sttcp:hotpath
func (s *Simulator) Cancel(e *Event) {
	if e == nil || !e.live {
		return
	}
	e.live = false
	e.gen++
	if !e.daemon {
		s.fg--
	}
	if e.next != nil {
		e.disown()
	}
	s.sched.Cancel(e)
}

// take marks a popped event consumed: its queue entry is gone, so the
// event may be re-scheduled (timer re-arm) from its callback onward.
// The clock never moves backwards: a daemon event stranded behind an
// idle-time advance (see RunUntil) fires at the present instead.
//
//sttcp:hotpath
func (s *Simulator) take(e *Event) {
	e.live = false
	e.gen++
	if !e.daemon {
		s.fg--
	}
	if e.next != nil {
		e.disown()
	}
	if e.when > s.nowNS {
		s.nowNS = e.when
	}
	s.fired++
}

// Stop makes the innermost Run return ErrStopped after the current event
// completes.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events in timestamp order until the queue is empty or the
// virtual clock would pass horizon. The clock is left at the time of the
// last fired event, or at horizon if the queue outlives it.
func (s *Simulator) Run(horizon time.Duration) error {
	return s.RunUntil(s.Now().Add(horizon))
}

// RunUntil executes events in timestamp order until the queue is empty or
// the next event is after deadline. Daemon events (telemetry sampling
// ticks — see NewDaemonTicker) do not count as work: once only daemon
// events remain the queue is treated as drained, so instrumentation never
// extends a run past the point where the workload itself went quiet.
func (s *Simulator) RunUntil(deadline time.Time) error {
	if s.running {
		return fmt.Errorf("sim: RunUntil called re-entrantly at %v", s.Now())
	}
	s.running = true
	defer func() { s.running = false }()
	s.stopped = false
	deadlineNS := int64(deadline.Sub(Epoch))
	for s.fg > 0 {
		next := s.sched.Peek()
		if next == nil {
			break
		}
		if next.when > deadlineNS {
			break
		}
		s.sched.Pop()
		s.take(next)
		s.fire(next)
		if s.stopped {
			return ErrStopped
		}
	}
	// Park the clock on the deadline when no event carried it that far.
	if s.nowNS < deadlineNS {
		s.nowNS = deadlineNS
	}
	return nil
}

// RunUntilIdle executes events until the queue drains (daemon events do
// not count as work, as in RunUntil), with a safety cap on the number of
// events to guard against runaway timer loops. It returns an error if the
// cap is reached.
func (s *Simulator) RunUntilIdle(maxEvents uint64) error {
	if s.running {
		return fmt.Errorf("sim: RunUntilIdle called re-entrantly at %v", s.Now())
	}
	s.running = true
	defer func() { s.running = false }()
	s.stopped = false
	var fired uint64
	for s.fg > 0 {
		next := s.sched.Pop()
		if next == nil {
			return nil
		}
		if fired >= maxEvents {
			// Undo the pop accounting is impossible (the entry is gone),
			// so fire nothing and report with the event still counted as
			// pending via re-enqueue.
			s.sched.Schedule(next)
			next.live = true
			return fmt.Errorf("sim: event cap %d reached at %v with %d pending", maxEvents, s.Now(), s.sched.Len())
		}
		fired++
		s.take(next)
		s.fire(next)
		if s.stopped {
			return ErrStopped
		}
	}
	return nil
}

// Step fires exactly one event if one is pending, and with it the
// wake-ups it leaves that run in place, and reports whether it did.
func (s *Simulator) Step() bool {
	next := s.sched.Pop()
	if next == nil {
		return false
	}
	s.take(next)
	s.fire(next)
	return true
}

// fire runs an event's callback with the event's captured causal context as
// the ambient one, settles the same-instant tail it left, and restores the
// previous ambient context afterwards. Pooled events are recycled before
// the callback runs: no handle to them can exist outside the simulator, so
// the callback itself may immediately reuse the Event via another Post.
func (s *Simulator) fire(e *Event) {
	prev := s.ctx
	s.ctx = e.ctx
	fn := e.fn
	if e.pooled {
		e.fn = nil
		s.free = append(s.free, e)
	}
	s.firing = true
	fn()
	s.settle()
	s.firing = false
	s.ctx = prev
}
