package tcp

import (
	"testing"

	"repro/internal/ip"
)

// FuzzSegmentRoundTrip checks the TCP wire codec from both sides: every
// buildable segment must survive Encode→Decode with all fields intact (MSS
// only rides on SYN segments, per the option rules), any single-byte
// corruption of the encoding must be rejected — the IPv4 pseudo-header
// checksum covers the whole segment, and a one-byte flip always moves a
// ones-complement sum — and Decode must never panic on arbitrary input.
func FuzzSegmentRoundTrip(f *testing.F) {
	f.Add(uint16(49152), uint16(80), uint32(1000), uint32(0), byte(0x02), uint16(65535), uint16(1460), []byte("GET 1024\n"))
	f.Add(uint16(80), uint16(49152), uint32(7), uint32(1001), byte(0x12), uint16(4096), uint16(0), []byte{})
	f.Add(uint16(1), uint16(2), uint32(0xffffffff), uint32(0x80000000), byte(0x11), uint16(0), uint16(536), []byte{0, 0xff, 0, 0xff})

	src := ip.MakeAddr(10, 0, 0, 1)
	dst := ip.MakeAddr(10, 0, 0, 100)

	f.Fuzz(func(t *testing.T, srcPort, dstPort uint16, seq, ack uint32, flags byte, window, mss uint16, payload []byte) {
		seg := Segment{
			SrcPort: srcPort,
			DstPort: dstPort,
			Seq:     seq,
			Ack:     ack,
			Flags:   Flags(flags),
			Window:  window,
			MSS:     mss,
			Payload: payload,
		}
		enc := seg.Encode(src, dst)
		dec, err := Decode(src, dst, enc)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if dec.SrcPort != seg.SrcPort || dec.DstPort != seg.DstPort ||
			dec.Seq != seg.Seq || dec.Ack != seg.Ack ||
			dec.Flags != seg.Flags || dec.Window != seg.Window {
			t.Fatalf("header fields changed: sent %+v, got %+v", seg, dec)
		}
		wantMSS := uint16(0)
		if seg.Flags.Has(FlagSYN) && mss != 0 {
			wantMSS = mss
		}
		if dec.MSS != wantMSS {
			t.Fatalf("MSS: sent %d (flags %v), decoded %d, want %d", mss, seg.Flags, dec.MSS, wantMSS)
		}
		if string(dec.Payload) != string(payload) {
			t.Fatalf("payload changed: sent %d bytes, got %d", len(payload), len(dec.Payload))
		}

		// Single-byte corruption at an input-chosen position must not
		// slip past the checksum.
		idx := int(seq) % len(enc)
		if idx < 0 {
			idx = -idx
		}
		corrupt := append([]byte(nil), enc...)
		corrupt[idx] ^= 0xff
		if _, err := Decode(src, dst, corrupt); err == nil {
			t.Fatalf("decode accepted a segment with byte %d flipped", idx)
		}

		// Arbitrary bytes must decode or error, never panic.
		_, _ = Decode(src, dst, payload)
	})
}

// FuzzSendBuffer runs arbitrary write/release/slice scripts (the encoding
// of driveSendBuffers) against the ring and the copy-down reference model
// at a fuzzer-chosen capacity. The seeds reach the paths a bulk transfer
// lives on: a full buffer that wraps on every write, a slice straddling the
// end of the ring, release beyond the end, and growth while wrapped.
func FuzzSendBuffer(f *testing.F) {
	join := func(ops ...[]byte) []byte {
		var out []byte
		for _, op := range ops {
			out = append(out, op...)
		}
		return out
	}
	const write, release, slice, below = 0, 1, 2, 3
	// Growth while wrapped: 4 in, 2 out, 2 in (wraps a ring of 4), 3 in.
	f.Add(uint16(16), join(sendBufferOp(write, 4), sendBufferOp(release, 2), sendBufferOp(write, 2),
		sendBufferOp(slice, 1), sendBufferOp(write, 3), sendBufferOp(slice, 0), sendBufferOp(below, 0)))
	// A full buffer acknowledged and refilled one MSS at a time, with the
	// newest MSS sliced (it straddles the wrap on the second round).
	f.Add(uint16(4096), join(sendBufferOp(write, 5000), sendBufferOp(release, 1460), sendBufferOp(write, 1460),
		sendBufferOp(slice|60<<2, 2636), sendBufferOp(release, 1460), sendBufferOp(write, 1460), sendBufferOp(slice|60<<2, 2636)))
	// Release one past the end, then start again from the new base.
	f.Add(uint16(7), join(sendBufferOp(write, 5), sendBufferOp(release, 6), sendBufferOp(write, 9), sendBufferOp(slice|1<<2, 3)))
	f.Add(uint16(1), join(sendBufferOp(write, 1), sendBufferOp(slice, 0), sendBufferOp(release, 1), sendBufferOp(write, 2)))

	f.Fuzz(func(t *testing.T, capacity uint16, script []byte) {
		if len(script) > 3*256 {
			script = script[:3*256]
		}
		driveSendBuffers(t, int(capacity), script)
	})
}
