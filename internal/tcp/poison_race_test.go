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
