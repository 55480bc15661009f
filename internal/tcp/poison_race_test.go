//go:build race

package tcp

import (
	"bytes"
	"testing"
	"time"
)

// TestKeptPeekReadsPoison: in the race build a released window span is
// overwritten, so an application that keeps a Peek span past its Discard
// reads 0xDB instead of the next bytes the ring takes.
func TestKeptPeekReadsPoison(t *testing.T) {
	h := newPair(t, 26, lan(), Options{})
	client, server := connectPair(t, h, 80)
	if _, err := client.Write([]byte("hello, world")); err != nil {
		t.Fatalf("write: %v", err)
	}
	_ = h.sim.Run(time.Second)
	kept, _, err := server.Peek(5)
	if err != nil || string(kept) != "hello" {
		t.Fatalf("peek = %q, %v", kept, err)
	}
	server.Discard(len(kept))
	if !bytes.Equal(kept, bytes.Repeat([]byte{0xDB}, 5)) {
		t.Fatalf("a peek kept past its discard reads %q, want poison", kept)
	}
	if rest, _, _ := server.Peek(100); string(rest) != ", world" {
		t.Fatalf("the bytes not discarded read %q, want \", world\"", rest)
	}
}

// lazySource claims every read and writes nothing.
type lazySource struct{}

func (lazySource) ReadAt(p []byte, _ int64) (int, error) { return len(p), nil }

// TestSourcedScratchReadsPoison: in the race build the scratch a sourced
// span is read into is poisoned before every read and on every Release, so
// a slice kept past its Release reads 0xDB, and so do the bytes a source
// left unwritten, not the previous span's.
func TestSourcedScratchReadsPoison(t *testing.T) {
	poison := bytes.Repeat([]byte{0xDB}, 100)
	w := NewWindow(4096)
	w.WriteFrom(300, patternSource{})
	kept, err := w.Slice(0, 100)
	if err != nil || kept[99] != windowByte(99) {
		t.Fatalf("slice = %d bytes, %v", len(kept), err)
	}
	w.Release(50)
	if !bytes.Equal(kept, poison) {
		t.Fatalf("a sourced slice kept past its Release reads % x..., want poison", kept[:8])
	}
	w.Release(w.End())
	w.WriteFrom(300, lazySource{})
	if got, _ := w.Slice(w.Base(), 100); !bytes.Equal(got, poison) {
		t.Fatalf("the bytes a source left unwritten read % x..., want poison", got[:8])
	}
}
