package tcp

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// countingSource is patternSource counting the reads the stack makes.
type countingSource struct {
	patternSource
	reads int
}

func (s *countingSource) ReadAt(p []byte, off int64) (int, error) {
	s.reads++
	return s.patternSource.ReadAt(p, off)
}

// TestSuppressedSendsReadNoSource: a suppressed connection counts the
// segments it would send, first sends and the timeout's retransmissions,
// without asking the source for their bytes; their payload reads 0xDB. Once
// unsuppressed it reads them, and the peer receives the source's stream.
func TestSuppressedSendsReadNoSource(t *testing.T) {
	h := newPair(t, 51, lan(), Options{})
	client, server := connectPair(t, h, 80)
	got := attachSink(client)
	src := &countingSource{}
	server.SetSuppressed(true)
	const size = 40_000
	if n, err := server.WriteFrom(size, src); n != size || err != nil {
		t.Fatalf("WriteFrom = %d, %v", n, err)
	}
	_ = h.sim.Run(500 * time.Millisecond)
	sent := server.SuppressedSegments
	_ = h.sim.Run(time.Second) // the retransmission timeout rewinds and sends again
	if sent == 0 || server.SuppressedSegments <= sent || src.reads != 0 || len(server.sb.ring) != 0 {
		t.Fatalf("suppressed: %d segments, then %d with the timeout's; %d source reads, ring of %d; want more each time, no read, no ring",
			sent, server.SuppressedSegments, src.reads, len(server.sb.ring))
	}
	// A reader of what a suppressed connection sends, a seeded bug, reads
	// poison: the payload is a stand-in, not bytes of the stream.
	if p, err := server.payload(server.sb.Base(), DefaultMSS); err != nil || !bytes.Equal(p, bytes.Repeat([]byte{0xDB}, DefaultMSS)) || src.reads != 0 {
		t.Fatalf("a suppressed payload = %d bytes (%v), %d source reads; want %d of 0xDB and none", len(p), err, src.reads, DefaultMSS)
	}
	server.SetSuppressed(false)
	_ = h.sim.Run(10 * time.Second)
	want := make([]byte, size)
	_, _ = patternSource{}.ReadAt(want, 0)
	if src.reads == 0 || !bytes.Equal(got.data, want) {
		t.Fatalf("unsuppressed: %d source reads, client read %d of %d bytes or not the source's", src.reads, len(got.data), size)
	}
}

// TestCrashReleasesASourcedWindow: Stack.Crash empties a send buffer that
// holds sourced bytes as it does one holding copies: nothing held, no
// source kept, no storage, and a Slice of a byte it held reports
// ErrReleased.
func TestCrashReleasesASourcedWindow(t *testing.T) {
	h := newPair(t, 52, lan(), Options{})
	_, server := connectPair(t, h, 80)
	if _, err := server.WriteFrom(100_000, patternSource{}); err != nil {
		t.Fatalf("WriteFrom: %v", err)
	}
	_ = h.sim.Run(2 * time.Millisecond)
	held := server.sb.Base()
	if server.sb.Len() == 0 || server.sb.src == nil || cap(server.sb.wrapped) == 0 {
		t.Fatalf("set-up: %d held, source %v, scratch %d; want bytes held, read from their source", server.sb.Len(), server.sb.src, cap(server.sb.wrapped))
	}
	h.stackB.Crash()
	if server.sb.Len() != 0 || server.sb.src != nil || server.Storage() != 0 {
		t.Fatalf("after the crash: %d held, source %v, %d bytes of storage", server.sb.Len(), server.sb.src, server.Storage())
	}
	if _, err := server.sb.Slice(held, 1); !errors.Is(err, ErrReleased) {
		t.Fatalf("Slice of a held byte after the crash = %v, want ErrReleased", err)
	}
}
