package sttcp

import (
	"example.com/vet/internal/sim"
	"example.com/vet/structure/internal/tcp"
)

type node struct {
	sim  *sim.Simulator
	hold *tcp.Window
	buf  []byte
}

type holdQueue struct{}

func (q *holdQueue) insertOOO(off int64, p []byte) {} // want `one-window: insertOOO declared outside tcp\.Reassembler; tcp\.Reassembler is the one out-of-order queue`

func (n *node) start(capacity, k int) {
	n.hold = tcp.NewWindow(capacity) // want `one-window: tcp\.NewWindow used here; the primary holds client bytes in its receive buffer`
	mk := tcp.NewWindow              // want `one-window: tcp\.NewWindow used here`
	_ = mk
	copy(n.buf, n.buf[k:]) // want `one-window: a buffer copies itself down`
	s := n.sim
	s.Schedule(1, func() {})             // want `one-clock: sim\.Simulator\.Schedule used here`
	(*sim.Simulator).Post(n.sim, 1, nil) // want `one-clock: sim\.Simulator\.Post used here`
}
