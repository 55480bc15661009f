// Package app provides the deterministic client/server applications used by
// the paper's demonstrations: a data server streaming a verifiable byte
// pattern (the "GUI pie chart" transfer of Demos 1 and 4), a progress-
// tracking client, and an echo pair that keeps both directions of the
// connection busy. ST-TCP requires the server application to be
// deterministic — the replica on the backup must produce exactly the same
// byte stream from the same input (paper §2) — so every application here is
// purely reactive: it acts only on connection events, never on wall-clock
// timers.
package app

import "bytes"

// PatternByte is the deterministic payload byte at stream offset off. The
// client verifies every received byte against it, which turns any
// sequence-number mistake during failover into a hard test failure.
func PatternByte(off int64) byte {
	return byte(uint64(off)*patternStep + 7)
}

// patternStep is the pattern's increment per stream byte. It is odd, so the
// pattern repeats every 256 offsets exactly.
const patternStep = 131

// patternTable is the pattern at offsets [0, 512): two periods, so the run
// starting at any phase of the period is one contiguous span of at least
// 257 bytes. FillPattern and VerifyPattern copy from and compare with
// spans of it instead of computing the pattern byte by byte.
var patternTable = func() (t [512]byte) {
	b := PatternByte(0)
	for i := range t {
		t[i] = b
		b += patternStep
	}
	return t
}()

// FillPattern writes the pattern for offsets [off, off+len(p)) into p.
func FillPattern(off int64, p []byte) {
	for len(p) > 0 {
		n := copy(p, patternTable[byte(off):])
		p = p[n:]
		off += int64(n)
	}
}

// VerifyPattern returns the index of the first byte of p that does not
// match the pattern starting at offset off, or -1 if all match.
func VerifyPattern(off int64, p []byte) int {
	for done := 0; done < len(p); {
		want := patternTable[byte(off+int64(done)):]
		n := min(len(want), len(p)-done)
		if got := p[done : done+n]; !bytes.Equal(got, want[:n]) {
			for i := range got {
				if got[i] != want[i] {
					return done + i
				}
			}
		}
		done += n
	}
	return -1
}
