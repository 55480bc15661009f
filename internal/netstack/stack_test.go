package netstack

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/eth"
	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/udp"
)

var (
	addrA = ip.MakeAddr(10, 0, 0, 1)
	addrB = ip.MakeAddr(10, 0, 0, 2)
)

type fixture struct {
	sim  *sim.Simulator
	a, b *Stack
	link *netem.Link
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	s := sim.New(1)
	link := netem.NewLink(s, netem.DefaultLANConfig())
	nicA := netem.NewNIC(s, "a/eth0", eth.MakeAddr(1))
	nicB := netem.NewNIC(s, "b/eth0", eth.MakeAddr(2))
	link.Attach(nicA, nicB)
	nicA.AttachToLink(link, true)
	nicB.AttachToLink(link, false)
	return &fixture{
		sim:  s,
		a:    New(sim.NewClock(s), "a", nicA, addrA),
		b:    New(sim.NewClock(s), "b", nicB, addrB),
		link: link,
	}
}

// TestARPResolutionAndDelivery checks the queue-ARP-flush path: the first
// IP send triggers an ARP exchange and the packet is delivered afterwards.
func TestARPResolutionAndDelivery(t *testing.T) {
	f := newFixture(t)
	var got []byte
	if err := f.b.UDPListen(9, func(src ip.Addr, srcPort uint16, payload []byte) {
		got = append([]byte(nil), payload...)
		if src != addrA || srcPort != 9 {
			t.Errorf("src = %v:%d", src, srcPort)
		}
	}); err != nil {
		t.Fatalf("listen: %v", err)
	}
	if err := f.a.UDPSend(9, addrB, 9, []byte("via arp")); err != nil {
		t.Fatalf("send: %v", err)
	}
	_ = f.sim.Run(time.Second)
	if !bytes.Equal(got, []byte("via arp")) {
		t.Fatalf("got %q", got)
	}
	// Both sides must now have learned each other.
	if _, ok := f.a.ARP().Lookup(addrB); !ok {
		t.Fatal("a did not learn b")
	}
	if _, ok := f.b.ARP().Lookup(addrA); !ok {
		t.Fatal("b did not learn a")
	}
}

func TestAliasReceivesTraffic(t *testing.T) {
	f := newFixture(t)
	service := ip.MakeAddr(10, 0, 0, 100)
	f.b.AddAlias(service)
	// Static ARP on A so no one needs to answer for the alias.
	hwB := eth.MakeAddr(2)
	f.a.ARP().AddStatic(service, hwB)
	var got bool
	_ = f.b.UDPListen(9, func(ip.Addr, uint16, []byte) { got = true })
	_ = f.a.UDPSend(9, service, 9, []byte("x"))
	_ = f.sim.Run(time.Second)
	if !got {
		t.Fatal("alias traffic not delivered")
	}
	if !f.b.HasAddr(service) || f.b.HasAddr(ip.MakeAddr(9, 9, 9, 9)) {
		t.Fatal("HasAddr wrong")
	}
}

func TestAliasARPNotAnsweredByDefault(t *testing.T) {
	f := newFixture(t)
	service := ip.MakeAddr(10, 0, 0, 100)
	f.b.AddAlias(service)
	// A has no static entry: it will ARP, and nobody should answer for
	// the alias (the ST-TCP invariant: serviceIP ARP is static-only).
	_ = f.a.UDPSend(9, service, 9, []byte("x"))
	_ = f.sim.Run(5 * time.Second)
	if _, ok := f.a.ARP().Lookup(service); ok {
		t.Fatal("an ARP request for an alias address was answered")
	}
}

func TestPingSuccessAndTimeout(t *testing.T) {
	f := newFixture(t)
	var ok bool
	var rtt time.Duration
	if err := f.a.Ping(addrB, time.Second, func(o bool, r time.Duration) { ok, rtt = o, r }); err != nil {
		t.Fatalf("ping: %v", err)
	}
	_ = f.sim.Run(2 * time.Second)
	if !ok || rtt <= 0 {
		t.Fatalf("ping failed: ok=%v rtt=%v", ok, rtt)
	}
	// Cut the link toward b: the next ping times out.
	f.link.SetCutFromA(true)
	done := false
	if err := f.a.Ping(addrB, 500*time.Millisecond, func(o bool, _ time.Duration) { done = true; ok = o }); err != nil {
		t.Fatalf("ping: %v", err)
	}
	_ = f.sim.Run(2 * time.Second)
	if !done || ok {
		t.Fatalf("ping over a dead link: done=%v ok=%v", done, ok)
	}
}

func TestUDPPortManagement(t *testing.T) {
	f := newFixture(t)
	if err := f.a.UDPListen(7, func(ip.Addr, uint16, []byte) {}); err != nil {
		t.Fatalf("listen: %v", err)
	}
	if err := f.a.UDPListen(7, func(ip.Addr, uint16, []byte) {}); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("duplicate bind err = %v", err)
	}
	f.a.UDPClose(7)
	if err := f.a.UDPListen(7, func(ip.Addr, uint16, []byte) {}); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

func TestSendIPFromUsesAlias(t *testing.T) {
	f := newFixture(t)
	service := ip.MakeAddr(10, 0, 0, 100)
	f.a.AddAlias(service)
	var from ip.Addr
	_ = f.b.UDPListen(11, func(src ip.Addr, _ uint16, _ []byte) { from = src })
	// Prime ARP (UDPSend sources from the primary address).
	_ = f.a.UDPSend(11, addrB, 11, []byte("prime"))
	_ = f.sim.Run(time.Second)
	// Now send a raw UDP datagram sourced from the alias.
	d := udp.Datagram{SrcPort: 11, DstPort: 11, Payload: []byte("aliased")}
	if err := f.a.SendIPFrom(service, addrB, ip.ProtoUDP, d.AppendEncode(nil, service, addrB)); err != nil {
		t.Fatalf("send: %v", err)
	}
	_ = f.sim.Run(time.Second)
	if from != service {
		t.Fatalf("datagram sourced from %v, want %v", from, service)
	}
}
