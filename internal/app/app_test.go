package app

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/eth"
	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/netstack"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
)

var (
	addrClient = ip.MakeAddr(10, 0, 0, 1)
	addrServer = ip.MakeAddr(10, 0, 0, 2)
)

type fixture struct {
	sim    *sim.Simulator
	client *tcp.Stack
	server *tcp.Stack
	tracer *trace.Recorder
}

func newFixture(t *testing.T, seed int64) *fixture {
	return newFixtureOpts(t, seed, tcp.Options{})
}

// newFixtureOpts is newFixture with the client stack's options given.
func newFixtureOpts(t *testing.T, seed int64, clientOpts tcp.Options) *fixture {
	t.Helper()
	s := sim.New(seed)
	tracer := trace.NewRecorder(s.Now)
	link := netem.NewLink(s, netem.DefaultLANConfig())
	nicC := netem.NewNIC(s, "client/eth0", eth.MakeAddr(1))
	nicS := netem.NewNIC(s, "server/eth0", eth.MakeAddr(2))
	link.Attach(nicC, nicS)
	nicC.AttachToLink(link, true)
	nicS.AttachToLink(link, false)
	clockC, clockS := sim.NewClock(s), sim.NewClock(s)
	nsC := netstack.New(clockC, "client", nicC, addrClient)
	nsS := netstack.New(clockS, "server", nicS, addrServer)
	return &fixture{
		sim:    s,
		client: tcp.NewStack(clockC, nsC, "client", clientOpts, tracer, nil),
		server: tcp.NewStack(clockS, nsS, "server", tcp.Options{}, tracer, nil),
		tracer: tracer,
	}
}

func TestPatternDeterministicAndVerifiable(t *testing.T) {
	a := make([]byte, 1000)
	b := make([]byte, 1000)
	FillPattern(500, a)
	FillPattern(500, b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("pattern not deterministic")
		}
	}
	if VerifyPattern(500, a) != -1 {
		t.Fatal("correct pattern failed verification")
	}
	a[123] ^= 0xff
	if VerifyPattern(500, a) != 123 {
		t.Fatalf("corruption index = %d, want 123", VerifyPattern(500, a))
	}
}

// TestPatternSplitProperty: the pattern is position-determined, so any
// split of the stream fills identically, and the table spans FillPattern
// copies and VerifyPattern compares agree with PatternByte byte for byte
// at every phase of the 256-byte period — for offsets far beyond 2^40 and
// across the int64 sign bit, and for lengths that are not multiples of the
// period.
func TestPatternSplitProperty(t *testing.T) {
	fn := func(off int64, split uint8, n uint8) bool {
		size := int(n) + 1
		s := int(split) % size
		whole := make([]byte, size)
		FillPattern(off, whole)
		a := make([]byte, s)
		b := make([]byte, size-s)
		FillPattern(off, a)
		FillPattern(off+int64(s), b)
		return VerifyPattern(off, append(a, b...)) == -1 && VerifyPattern(off, whole) == -1
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}

	offsets := []int64{0, 1, 255, 256, 1 << 40, 1<<40 + 255, 1<<53 + 1, 1<<62 + 12345, math.MaxInt64 - 20_000, -1, math.MinInt64}
	lengths := []int{1, 255, 257, 1460, 16<<10 + 3}
	for _, off := range offsets {
		for _, n := range lengths {
			p := make([]byte, n)
			FillPattern(off, p)
			for i := range p {
				if want := PatternByte(off + int64(i)); p[i] != want {
					t.Fatalf("FillPattern(%d, %d bytes)[%d] = %#x, PatternByte = %#x", off, n, i, p[i], want)
				}
			}
			if i := VerifyPattern(off, p); i != -1 {
				t.Fatalf("VerifyPattern(%d, %d bytes) = %d on its own fill", off, n, i)
			}
			// The first wrong byte is reported, wherever in a span it is.
			for _, bad := range []int{n - 1, n / 2, 0} {
				p[bad]++
				if i := VerifyPattern(off, p); i != bad {
					t.Fatalf("VerifyPattern(%d, %d bytes) = %d with byte %d wrong", off, n, i, bad)
				}
			}
		}
	}
}

func TestDataServerServesRequest(t *testing.T) {
	f := newFixture(t, 1)
	srv := NewDataServer("server/app", f.tracer)
	l, err := f.server.Listen(addrServer, 80)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	l.OnEstablished = srv.Accept

	const size = 256 << 10
	cl := NewStreamClient(ClientConfig{
		Name: "client/app", Stack: f.client,
		Service: addrServer, Port: 80,
		Request: size, Tracer: f.tracer,
	})
	if err := cl.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	_ = f.sim.Run(time.Minute)
	if !cl.Done || cl.Err != nil {
		t.Fatalf("client: done=%v err=%v", cl.Done, cl.Err)
	}
	if cl.Received != size || cl.VerifyFailures != 0 {
		t.Fatalf("received=%d verifyFailures=%d", cl.Received, cl.VerifyFailures)
	}
	if srv.RequestsServed != 1 || srv.BytesServed != size {
		t.Fatalf("server: requests=%d bytes=%d", srv.RequestsServed, srv.BytesServed)
	}
	if want := fmt.Sprintf("%d/%d bytes", size, size); cl.Progress() != want {
		t.Fatalf("progress = %q, want %q", cl.Progress(), want)
	}
	if len(cl.Samples) == 0 {
		t.Fatal("no progress samples recorded")
	}
}

func TestDataServerResumeOffset(t *testing.T) {
	f := newFixture(t, 2)
	srv := NewDataServer("server/app", f.tracer)
	l, _ := f.server.Listen(addrServer, 80)
	l.OnEstablished = srv.Accept

	// Request bytes [5000, 7000) of the pattern directly.
	c, err := f.client.Dial(ip.Addr{}, addrServer, 80)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	var got []byte
	c.OnEstablished = func() { _, _ = c.Write([]byte(FormatResumeRequest(2000, 5000))) }
	c.OnReadable = func() {
		buf := make([]byte, 4096)
		for {
			n, _ := c.Read(buf)
			if n == 0 {
				return
			}
			got = append(got, buf[:n]...)
		}
	}
	_ = f.sim.Run(time.Minute)
	if len(got) != 2000 {
		t.Fatalf("got %d bytes", len(got))
	}
	if VerifyPattern(5000, got) != -1 {
		t.Fatal("resumed bytes do not match the pattern at the offset")
	}
}

func TestDataServerRejectsMalformedRequest(t *testing.T) {
	f := newFixture(t, 3)
	srv := NewDataServer("server/app", f.tracer)
	l, _ := f.server.Listen(addrServer, 80)
	l.OnEstablished = srv.Accept
	c, err := f.client.Dial(ip.Addr{}, addrServer, 80)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	reset := false
	c.OnEstablished = func() { _, _ = c.Write([]byte("EAT -5 bananas\n")) }
	c.OnClose = func(err error) { reset = err != nil }
	_ = f.sim.Run(5 * time.Second)
	if !reset {
		t.Fatal("malformed request was not rejected with a reset")
	}
	if srv.RequestsServed != 0 {
		t.Fatal("malformed request counted as served")
	}
}

func TestDataServerCrashSilentStopsActivity(t *testing.T) {
	f := newFixture(t, 4)
	srv := NewDataServer("server/app", f.tracer)
	l, _ := f.server.Listen(addrServer, 80)
	l.OnEstablished = srv.Accept
	cl := NewStreamClient(ClientConfig{
		Name: "client/app", Stack: f.client,
		Service: addrServer, Port: 80,
		Request: 64 << 20, Tracer: f.tracer,
	})
	_ = cl.Start()
	_ = f.sim.Run(500 * time.Millisecond)
	srv.CrashSilent()
	mark := cl.Received
	if mark == 0 {
		t.Fatal("no data before crash")
	}
	_ = f.sim.Run(5 * time.Second)
	// A little in-flight data may still land, but the stream must stall
	// far short of completion.
	if cl.Received > mark+(512<<10) {
		t.Fatalf("server kept serving after silent crash: %d → %d", mark, cl.Received)
	}
	if cl.Done {
		t.Fatal("transfer completed despite crash")
	}
	if !srv.Crashed() {
		t.Fatal("crash flag not set")
	}
}

func TestDataServerCrashCleanupClosesConns(t *testing.T) {
	f := newFixture(t, 5)
	srv := NewDataServer("server/app", f.tracer)
	l, _ := f.server.Listen(addrServer, 80)
	l.OnEstablished = srv.Accept
	cl := NewStreamClient(ClientConfig{
		Name: "client/app", Stack: f.client,
		Service: addrServer, Port: 80,
		Request: 64 << 20, Tracer: f.tracer,
	})
	_ = cl.Start()
	_ = f.sim.Run(500 * time.Millisecond)
	if len(srv.conns) != 1 {
		t.Fatalf("active conns = %d", len(srv.conns))
	}
	srv.CrashCleanup(false)
	_ = f.sim.Run(5 * time.Second)
	if !cl.Done || cl.Err == nil {
		t.Fatalf("client did not observe the early close: done=%v err=%v", cl.Done, cl.Err)
	}
}

func TestEchoPingPong(t *testing.T) {
	f := newFixture(t, 6)
	srv := NewEchoServer("server/app", f.tracer)
	l, _ := f.server.Listen(addrServer, 80)
	l.OnEstablished = srv.Accept
	cl := NewEchoClient("client/app", f.client, addrServer, 80, 50, 2048, f.tracer)
	if err := cl.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	_ = f.sim.Run(time.Minute)
	if !cl.Done || cl.Err != nil {
		t.Fatalf("echo client: done=%v err=%v rounds=%d", cl.Done, cl.Err, cl.RoundsDone)
	}
	if cl.RoundsDone != 50 || cl.VerifyFailures != 0 {
		t.Fatalf("rounds=%d verifyFailures=%d", cl.RoundsDone, cl.VerifyFailures)
	}
	if srv.BytesEchoed != 50*2048 {
		t.Fatalf("echoed %d bytes", srv.BytesEchoed)
	}
}

// TestEchoClientRecordsIntoOneSeries: an echo client records one sample per
// round into a series Start allocated at that size, so after a full run
// the series is exactly full and was never regrown.
func TestEchoClientRecordsIntoOneSeries(t *testing.T) {
	f := newFixture(t, 6)
	srv := NewEchoServer("server/app", f.tracer)
	l, _ := f.server.Listen(addrServer, 80)
	l.OnEstablished = srv.Accept
	cl := NewEchoClient("client/app", f.client, addrServer, 80, 40, 64, f.tracer)
	if err := cl.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	_ = f.sim.Run(time.Minute)
	if !cl.Done || cl.Err != nil {
		t.Fatalf("echo client: done=%v err=%v rounds=%d", cl.Done, cl.Err, cl.RoundsDone)
	}
	if len(cl.Samples) != cl.Rounds || cap(cl.Samples) != cl.Rounds {
		t.Fatalf("%d rounds left a series of %d samples in %d; want both %d", cl.Rounds, len(cl.Samples), cap(cl.Samples), cl.Rounds)
	}
}

func TestEchoClientGapPacing(t *testing.T) {
	f := newFixture(t, 7)
	srv := NewEchoServer("server/app", f.tracer)
	l, _ := f.server.Listen(addrServer, 80)
	l.OnEstablished = srv.Accept
	cl := NewEchoClient("client/app", f.client, addrServer, 80, 10, 100, f.tracer)
	cl.Gap = 50 * time.Millisecond
	_ = cl.Start()
	_ = f.sim.Run(time.Minute)
	if !cl.Done || cl.Err != nil {
		t.Fatalf("done=%v err=%v", cl.Done, cl.Err)
	}
	// 10 rounds with 9 gaps of 50ms: at least 450ms of virtual time.
	first := cl.Samples[0].Time
	last := cl.Samples[len(cl.Samples)-1].Time
	if d := last.Sub(first); d < 9*50*time.Millisecond {
		t.Fatalf("rounds completed in %v, pacing ignored", d)
	}
}

func TestMaxGapComputation(t *testing.T) {
	f := newFixture(t, 8)
	cl := NewStreamClient(ClientConfig{
		Name: "c", Stack: f.client,
		Service: addrServer, Port: 80,
		Request: 100, Tracer: f.tracer,
	})
	base := f.sim.Now()
	cl.Samples = []ProgressSample{
		{Time: base.Add(100 * time.Millisecond), Bytes: 10},
		{Time: base.Add(200 * time.Millisecond), Bytes: 20},
		{Time: base.Add(1200 * time.Millisecond), Bytes: 30}, // 1s gap
		{Time: base.Add(1300 * time.Millisecond), Bytes: 40},
	}
	gap, around := cl.MaxGap()
	if gap != time.Second {
		t.Fatalf("gap = %v", gap)
	}
	if around.Before(base.Add(200*time.Millisecond)) || around.After(base.Add(1200*time.Millisecond)) {
		t.Fatalf("around = %v outside the gap", around)
	}

	// Bracket: the deliveries around an instant, "at or before" and
	// "after" as the failover anatomy reads the stall around a takeover.
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	var none time.Time
	for _, c := range []struct {
		name          string
		t             time.Time
		before, after time.Time
	}{
		{"before the first sample", at(50), none, at(100)},
		{"exactly on a sample", at(200), at(200), at(1200)},
		{"between two samples", at(250), at(200), at(1200)},
		{"after the last sample", at(2000), at(1300), none},
	} {
		if b, a := Bracket(cl.Samples, c.t); !b.Equal(c.before) || !a.Equal(c.after) {
			t.Errorf("Bracket %s = %v, %v; want %v, %v", c.name, b, a, c.before, c.after)
		}
	}
	if b, a := Bracket(nil, at(250)); !b.IsZero() || !a.IsZero() {
		t.Errorf("Bracket of an empty series = %v, %v; want zero, zero", b, a)
	}
}

// BenchmarkFillPattern and BenchmarkVerifyPattern time one full segment's
// worth of the pattern: the per-byte cost the server's pump and the
// client's check add to every segment of a download.
func BenchmarkFillPattern(b *testing.B) {
	p := make([]byte, tcp.DefaultMSS)
	b.SetBytes(int64(len(p)))
	for i := 0; i < b.N; i++ {
		FillPattern(int64(i)*int64(len(p)), p)
	}
}

func BenchmarkVerifyPattern(b *testing.B) {
	p := make([]byte, tcp.DefaultMSS)
	FillPattern(1<<40, p)
	b.SetBytes(int64(len(p)))
	for i := 0; i < b.N; i++ {
		if VerifyPattern(1<<40, p) != -1 {
			b.Fatal("pattern does not verify")
		}
	}
}
