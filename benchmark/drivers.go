package main

import (
	"fmt"
	"time"

	"repro/internal/app"
	"repro/internal/eth"
	"repro/internal/experiment"
	"repro/internal/hb"
	"repro/internal/ip"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/serial"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// Drivers time calls into one layer's public functions, with nothing of the
// other layers in the loop. Their figures do not depend on the workload;
// the ladder multiplies them by a workload's counts for its modelled rungs.

// driverBatches is how many timed batches stand behind each driver figure.
const driverBatches = 5

// driverSink keeps results the compiler could otherwise drop.
var driverSink int

// perOp times driverBatches batches of n operations and returns the median
// host ns per operation. prep builds a batch's fixture untimed and returns
// the function that performs its n operations.
func (s *session) perOp(name string, n int, prep func(n int) func()) float64 {
	n /= s.driverDiv
	xs := make([]float64, 0, driverBatches)
	for b := 0; b < driverBatches; b++ {
		run := prep(n)
		sp := s.spans.begin(s.driverSpan, name, "")
		run()
		xs = append(xs, float64(sp.end().Nanoseconds())/float64(n))
	}
	return median(xs)
}

// runDrivers fills s.drivers once per process.
func (s *session) runDrivers() error {
	if s.drivers != nil {
		return nil
	}
	s.driverSpan = s.spans.begin(s.root, "drivers", "")
	defer s.driverSpan.end()
	d := map[string]metric{}
	ns := func(name string, v float64) { d[name] = metric{Value: v, Unit: "ns"} }

	ns("calib.ns_per_unit", s.perOp("calib", 4000, func(n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				calibUnit()
			}
		}
	}))

	for _, q := range []struct {
		name  string
		kind  sim.SchedulerKind
		depth int
	}{
		{"sim.heap_ns_per_event_d16", sim.SchedulerHeap, 16},
		{"sim.heap_ns_per_event_d4k", sim.SchedulerHeap, 4096},
		{"sim.calendar_ns_per_event_d16", sim.SchedulerCalendar, 16},
		{"sim.calendar_ns_per_event_d4k", sim.SchedulerCalendar, 4096},
	} {
		ns(q.name, s.perOp(q.name, 200000, func(n int) func() { return holdModel(q.kind, q.depth, n) }))
	}
	ns("sim.timer_reset_ns", s.perOp("sim.timer_reset", 200000, func(n int) func() {
		sm := sim.New(1)
		for i := 0; i < 16; i++ {
			sm.Post(time.Hour, func() {})
		}
		t := sm.NewTimer(func() {})
		return func() {
			// The RTO pattern: a pending timer pushed back on every ACK.
			for i := 0; i < n; i++ {
				t.Arm(200 * time.Millisecond)
			}
		}
	}))

	for _, f := range []struct {
		name    string
		payload int
	}{
		{"netem.ns_per_frame_64", 64 - eth.HeaderLen - eth.FCSLen},
		{"netem.ns_per_frame_1514", eth.MaxPayload},
	} {
		var err error
		v := s.perOp(f.name, 20000, func(n int) func() {
			bed := newNetemBed(f.payload, nil)
			return func() { err = bed.push(n) }
		})
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		ns(f.name, v)
	}
	// One counted batch: what a frame costs in allocations and in events.
	bed := newNetemBed(eth.MaxPayload, &countingScheduler{inner: sim.NewScheduler(sim.SchedulerHeap)})
	if err := bed.push(256); err != nil { // fill the pools first
		return fmt.Errorf("netem warm-up: %w", err)
	}
	frames := 20000 / s.driverDiv
	mem0, pops0 := readMem(), bed.counter.pops
	if err := bed.push(frames); err != nil {
		return fmt.Errorf("netem counted batch: %w", err)
	}
	mem1 := readMem()
	d["netem.allocs_per_frame"] = metric{Value: float64(mem1.mallocs-mem0.mallocs) / float64(frames), Unit: "count"}
	d["netem.alloc_bytes_per_frame"] = metric{Value: float64(mem1.bytes-mem0.bytes) / float64(frames), Unit: "B"}
	s.eventsPerFrame = float64(bed.counter.pops-pops0) / float64(frames)

	src, dst := ip.MakeAddr(10, 0, 0, 1), ip.MakeAddr(10, 0, 0, 100)
	var codecErr error
	note := func(err error) {
		if err != nil && codecErr == nil {
			codecErr = err
		}
	}
	ns("eth.codec_ns_1514", s.perOp("eth.codec", 20000, func(n int) func() {
		f := eth.Frame{Dst: eth.MakeAddr(2), Src: eth.MakeAddr(1), Type: eth.TypeIPv4, Payload: make([]byte, eth.MaxPayload)}
		var buf []byte
		return func() {
			for i := 0; i < n; i++ {
				var err error
				buf, err = f.AppendEncode(buf[:0])
				note(err)
				_, err = eth.Decode(buf)
				note(err)
			}
		}
	}))
	ns("ip.codec_ns_1500", s.perOp("ip.codec", 20000, func(n int) func() {
		p := ip.Packet{TTL: ip.DefaultTTL, Proto: ip.ProtoTCP, Src: src, Dst: dst, Payload: make([]byte, ip.MaxPayload)}
		var buf []byte
		return func() {
			for i := 0; i < n; i++ {
				var err error
				buf, err = p.AppendEncode(buf[:0])
				note(err)
				_, err = ip.Decode(buf)
				note(err)
			}
		}
	}))
	ns("ip.checksum_ns_1460", s.perOp("ip.checksum", 50000, func(n int) func() {
		data := make([]byte, 1460)
		return func() {
			for i := 0; i < n; i++ {
				driverSink += int(ip.Checksum(data))
			}
		}
	}))
	for _, c := range []struct {
		name    string
		payload int
	}{{"tcp.codec_ns_0", 0}, {"tcp.codec_ns_1460", tcp.DefaultMSS}} {
		ns(c.name, s.perOp(c.name, 20000, func(n int) func() {
			seg := tcp.Segment{SrcPort: 50000, DstPort: 80, Seq: 1, Ack: 2, Flags: tcp.FlagACK, Window: 65535, Payload: make([]byte, c.payload)}
			var buf []byte
			return func() {
				for i := 0; i < n; i++ {
					buf = seg.AppendEncode(buf[:0], src, dst)
					_, err := tcp.Decode(src, dst, buf)
					note(err)
				}
			}
		}))
	}
	for _, c := range []struct {
		name  string
		conns int
		n     int
	}{{"hb.codec_ns_c1", 1, 50000}, {"hb.codec_ns_c2000", 2000, 200}} {
		ns(c.name, s.perOp(c.name, c.n, func(n int) func() {
			m := hb.Message{Role: hb.RolePrimary, Conns: make([]hb.ConnState, c.conns)}
			for i := range m.Conns {
				m.Conns[i] = hb.ConnState{RemoteAddr: src, RemotePort: uint16(i), LocalPort: 80, Established: true}
			}
			return func() {
				for i := 0; i < n; i++ {
					raw, err := m.Encode()
					note(err)
					_, err = hb.Decode(raw)
					note(err)
				}
			}
		}))
	}
	ns("serial.ns_per_message", s.perOp("serial", 20000, func(n int) func() {
		sm := sim.New(1)
		a, b := serial.NewPair(sm, "a/ttyS0", "b/ttyS0", 100_000_000)
		b.SetHandler(func([]byte) { driverSink++ })
		msg := make([]byte, hb.EncodedSize(1))
		return func() {
			for i := 0; i < n; i++ {
				note(a.Send(msg))
				note(sm.RunUntilIdle(16))
			}
		}
	}))
	if codecErr != nil {
		return fmt.Errorf("driver: %w", codecErr)
	}

	ns("app.fill_ns_1460", s.perOp("app.fill", 20000, func(n int) func() {
		buf := make([]byte, 1460)
		return func() {
			for i := 0; i < n; i++ {
				app.FillPattern(int64(i)*1460, buf)
			}
		}
	}))
	badVerify := false
	ns("app.verify_ns_1460", s.perOp("app.verify", 20000, func(n int) func() {
		buf := make([]byte, 1460)
		app.FillPattern(0, buf)
		return func() {
			for i := 0; i < n; i++ {
				if app.VerifyPattern(0, buf) >= 0 {
					badVerify = true
				}
			}
		}
	}))
	if badVerify {
		return fmt.Errorf("driver: app.VerifyPattern rejected app.FillPattern's output")
	}

	ns("trace.emit_ns", s.perOp("trace.emit", 50000, func(n int) func() {
		sm := sim.New(1)
		rec := trace.NewRecorder(sm.Now)
		return func() {
			for i := 0; i < n; i++ {
				rec.EmitValue(trace.KindAppProgress, "client/app", int64(i), "received %d bytes", i)
			}
		}
	}))
	ns("metrics.inc_ns", s.perOp("metrics.inc", 500000, func(n int) func() {
		sm := sim.New(1)
		c := metrics.New(sm.Now).Counter("client/tcp", "tcp.segments_sent")
		return func() {
			for i := 0; i < n; i++ {
				c.Inc()
			}
		}
	}))

	var buildErr error
	build := s.perOp("experiment.build", 100, func(n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				tb := experiment.Build(experiment.Options{Seed: int64(i)})
				if err := tb.StartSTTCP(0, nil); err != nil {
					buildErr = err
				}
			}
		}
	})
	if buildErr != nil {
		return fmt.Errorf("driver: experiment.StartSTTCP: %w", buildErr)
	}
	d["experiment.build_us"] = metric{Value: build / 1e3, Unit: "us"}

	s.drivers = d
	return nil
}

// holdModel returns the classic priority-queue benchmark: a steady
// population of depth pending events, each firing re-posting itself a
// pseudo-random delay ahead, run for the given number of firings.
func holdModel(kind sim.SchedulerKind, depth, events int) func() {
	sm := sim.NewWithConfig(sim.Config{Seed: 1, Scheduler: kind})
	x := uint64(88172645463325252)
	var fire func()
	fire = func() {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sm.Post(time.Duration(1+x%uint64(time.Millisecond)), fire)
	}
	for i := 0; i < depth; i++ {
		fire()
	}
	return func() {
		for i := 0; i < events; i++ {
			sm.Step()
		}
	}
}

// netemBed is the netem driver's fixture: two NICs on one switch, the path
// every testbed frame takes (NIC, link, switch, link, NIC).
type netemBed struct {
	sim      *sim.Simulator
	a, b     *netem.NIC
	counter  *countingScheduler
	frame    eth.Frame
	received int
	err      error // from wiring; push reports it
}

// newNetemBed wires the fixture. counter, when non-nil, becomes the
// simulator's event queue.
func newNetemBed(payload int, counter *countingScheduler) *netemBed {
	cfg := sim.Config{Seed: 1}
	if counter != nil {
		cfg.Custom = counter
	}
	sm := sim.NewWithConfig(cfg)
	sw := netem.NewSwitch(sm, "switch", 5*time.Microsecond)
	bed := &netemBed{
		sim:     sm,
		a:       netem.NewNIC(sm, "a/eth0", eth.MakeAddr(1)),
		b:       netem.NewNIC(sm, "b/eth0", eth.MakeAddr(2)),
		counter: counter,
	}
	netem.Connect(sm, sw, bed.a, netem.DefaultLANConfig())
	netem.Connect(sm, sw, bed.b, netem.DefaultLANConfig())
	bed.b.SetHandler(func(eth.Frame) { bed.received++ })
	bed.frame = eth.Frame{Dst: bed.b.Addr(), Type: eth.TypeIPv4, Payload: make([]byte, payload)}
	// b speaks first so the switch learns its port and forwards rather
	// than floods.
	bed.err = bed.b.Send(eth.Frame{Dst: bed.a.Addr(), Type: eth.TypeIPv4, Payload: make([]byte, 46)})
	if bed.err == nil {
		bed.err = sm.RunUntilIdle(1 << 10)
	}
	return bed
}

// push sends n frames from a to b in window-sized bursts, draining the
// simulator after each, and checks that every one arrived.
func (bed *netemBed) push(n int) error {
	const burst = 32
	if bed.err != nil {
		return bed.err
	}
	want := bed.received + n
	for sent := 0; sent < n; {
		for i := 0; i < burst && sent < n; i++ {
			if err := bed.a.Send(bed.frame); err != nil {
				return err
			}
			sent++
		}
		if err := bed.sim.RunUntilIdle(1 << 20); err != nil {
			return err
		}
	}
	if bed.received != want {
		return fmt.Errorf("netem driver delivered %d of %d frames", bed.received-(want-n), n)
	}
	return nil
}
