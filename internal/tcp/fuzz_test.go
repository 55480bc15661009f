package tcp

import (
	"bytes"
	"encoding/binary"
	"reflect"
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
		enc := seg.AppendEncode(nil, src, dst)
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

// FuzzWindowScript runs arbitrary write/reserve/release/slice scripts (the
// encoding of driveWindows) against the copy-down reference model at a
// fuzzer-chosen capacity, twice: once on a window that copies its bytes
// into a ring, once on one that reads them from a source. The seeds reach
// the paths a bulk transfer lives on: a full buffer that wraps on every
// write, a slice straddling the end of the ring, release beyond the end,
// growth while wrapped, and an in-place reserve that grows the ring once
// and then crosses its end; sourced, the data server's pump.
func FuzzWindowScript(f *testing.F) {
	join := func(ops ...[]byte) []byte {
		var out []byte
		for _, op := range ops {
			out = append(out, op...)
		}
		return out
	}
	const write, release, slice, below, reserve = 0, 1, 2, 3, 4
	// Growth while wrapped: 4 in, 2 out, 2 in (wraps a ring of 4), 3 in.
	f.Add(uint16(16), join(windowOp(write, 4), windowOp(release, 2), windowOp(write, 2),
		windowOp(slice, 1), windowOp(write, 3), windowOp(slice, 0), windowOp(below, 0)))
	// A full buffer acknowledged and refilled one MSS at a time, with the
	// newest MSS sliced (it straddles the wrap on the second round).
	f.Add(uint16(4096), join(windowOp(write, 5000), windowOp(release, 1460), windowOp(write, 1460),
		windowOp(slice|60<<2, 2636), windowOp(release, 1460), windowOp(write, 1460), windowOp(slice|60<<2, 2636)))
	// Release one past the end, then start again from the new base.
	f.Add(uint16(7), join(windowOp(write, 5), windowOp(release, 6), windowOp(write, 9), windowOp(slice|1<<2, 3)))
	f.Add(uint16(1), join(windowOp(write, 1), windowOp(slice, 0), windowOp(release, 1), windowOp(write, 2)))
	// The data server's pump: reserve the whole free space, then refill
	// what each acknowledgement frees, across the end of the ring.
	f.Add(uint16(4096), join(windowOp(reserve, 5000), windowOp(release, 1500), windowOp(reserve, 2000),
		windowOp(slice|60<<2, 1000), windowOp(release, 3000), windowOp(reserve, 9000), windowOp(slice|60<<2, 0)))

	f.Fuzz(func(t *testing.T, capacity uint16, script []byte) {
		if len(script) > 3*256 {
			script = script[:3*256]
		}
		driveWindows(t, int(capacity), script, false)
		driveWindows(t, int(capacity), script, true)
	})
}

// FuzzReassemble offers a Reassembler arbitrary segments of one pattern
// stream — duplicates, overlaps, holes, any arrival order, three script
// bytes each (a 16-bit offset and a length) — beside a byte-map model that
// marks every byte ever offered. Whatever the order: what is delivered is
// the stream, in order, each byte once; never a byte beyond the model's
// contiguous prefix; exactly that prefix when the out-of-order bound was
// roomy enough never to drop, and in any case once everything has been
// offered again in offset order (the sender's retransmissions); and the
// bytes waiting behind a hole never exceed the bound.
func FuzzReassemble(f *testing.F) {
	f.Add(uint16(1024), []byte{0, 10, 5, 0, 5, 5, 0, 0, 5})           // the reverse order
	f.Add(uint16(1024), []byte{0, 0, 6, 0, 3, 6, 0, 0, 3, 0, 20, 4})  // overlap, duplicate, a hole left open
	f.Add(uint16(8), []byte{0, 9, 8, 0, 30, 8, 0, 1, 8, 0, 0, 1})     // the second chunk exceeds the bound
	f.Add(uint16(0), []byte{0, 1, 1, 0, 0, 1, 0, 1, 1})               // nothing may wait
	f.Add(uint16(300), []byte{255, 255, 255, 0, 0, 255, 0, 255, 255}) // the far end of the offset space

	pat := func(off int64) byte { return byte(off*37 + off>>9) }
	f.Fuzz(func(t *testing.T, bound uint16, script []byte) {
		if len(script) > 3*200 {
			script = script[:3*200]
		}
		r := NewReassembler(int(bound))
		var stream []byte // everything delivered
		deliver := func(p []byte) { stream = append(stream, p...) }
		offered := make([]bool, 1<<16+256)
		total := 0
		offer := func(off int64, n int) {
			p := make([]byte, n)
			for i := range p {
				p[i] = pat(off + int64(i))
			}
			before := r.next
			got := r.Accept(off, p, deliver)
			if int64(got) != r.next-before || r.next != int64(len(stream)) {
				t.Fatalf("Accept(%d, %d bytes) = %d with Next %d -> %d and %d bytes delivered", off, n, got, before, r.next, len(stream))
			}
			if r.oooHeld > int(bound) {
				t.Fatalf("%d bytes wait out of order, bound %d", r.oooHeld, bound)
			}
		}
		prefix := func() int64 {
			for i, ok := range offered {
				if !ok {
					return int64(i)
				}
			}
			return int64(len(offered))
		}
		for s := script; len(s) >= 3; s = s[3:] {
			off, n := int64(s[0])<<8|int64(s[1]), int(s[2])
			for i := 0; i < n; i++ {
				offered[off+int64(i)] = true
			}
			total += n
			offer(off, n)
			if r.next > prefix() {
				t.Fatalf("delivered up to %d, only [0, %d) was ever offered", r.next, prefix())
			}
		}
		if total <= int(bound) && r.next != prefix() {
			t.Fatalf("nothing was dropped (offered %d, bound %d) yet Next is %d, contiguous prefix %d", total, bound, r.next, prefix())
		}
		for off := int64(0); off < prefix(); off += 255 { // retransmission, in order
			offer(off, int(min(255, prefix()-off)))
		}
		if r.next != prefix() {
			t.Fatalf("after in-order retransmission Next is %d, contiguous prefix %d", r.next, prefix())
		}
		for i, b := range stream {
			if b != pat(int64(i)) {
				t.Fatalf("delivered byte %d is %#x, the stream has %#x", i, b, pat(int64(i)))
			}
		}
	})
}

// FuzzParse holds Parse, the decoder a stack uses on bytes its NIC has
// found intact, to Decode: it must never panic, whatever the bytes, and
// wherever Decode accepts a segment Parse must return the very same one.
// Arbitrary bytes rarely bear a good checksum, so each input is also tried
// with its checksum made good.
func FuzzParse(f *testing.F) {
	src, dst := ip.MakeAddr(10, 0, 0, 1), ip.MakeAddr(10, 0, 0, 100)
	for _, seg := range []Segment{
		{SrcPort: 49152, DstPort: 80, Seq: 1000, Flags: FlagSYN, Window: 65535, MSS: 1460},
		{SrcPort: 80, DstPort: 49152, Seq: 7, Ack: 1001, Flags: FlagACK | FlagPSH, Window: 4096, Payload: []byte("GET 1024\n")},
	} {
		f.Add(seg.AppendEncode(nil, src, dst))
	}
	f.Add([]byte{0, 80, 0, 80, 0, 0, 0, 1, 0, 0, 0, 0, 0x70, 0x02, 0, 0, 0, 0, 0, 0, 1, 1, 2, 4, 5, 0xb4, 8, 3}) // options past the MSS
	f.Fuzz(func(t *testing.T, raw []byte) {
		check := func(buf []byte) {
			want, err := Decode(src, dst, buf)
			got, perr := Parse(buf)
			if err == nil && (perr != nil || !reflect.DeepEqual(got, want)) {
				t.Fatalf("Decode accepted %+v, Parse returned %+v, %v", want, got, perr)
			}
		}
		check(raw)
		if len(raw) >= HeaderLen {
			summed := bytes.Clone(raw)
			summed[16], summed[17] = 0, 0
			sum := ip.FinishChecksum(ip.SumWords(ip.PseudoHeaderSum(src, dst, ip.ProtoTCP, len(summed)), summed))
			binary.BigEndian.PutUint16(summed[16:], sum)
			check(summed)
		}
	})
}
