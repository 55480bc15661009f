package sttcp

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStreamLogInOrder(t *testing.T) {
	s := &streamLog{cap: 1024}
	s.accept(0, []byte("hello "))
	s.accept(6, []byte("world"))
	got, err := s.slice(0, -1)
	if err != nil || string(got) != "hello world" {
		t.Fatalf("slice = %q, %v", got, err)
	}
	got, err = s.slice(6, 9)
	if err != nil || string(got) != "wor" {
		t.Fatalf("sub-slice = %q, %v", got, err)
	}
}

// Every payload arrives in one frame buffer, as it does from the logger's tap,
// and the link reissues it once accept has returned: a kept chunk is a copy.
func TestStreamLogOutOfOrderMerge(t *testing.T) {
	s := &streamLog{cap: 1024}
	frame := make([]byte, 5)
	s.accept(10, frame[:copy(frame, "cccc")])
	s.accept(5, frame[:copy(frame, "bbbbb")])
	if s.next != 0 {
		t.Fatalf("next advanced to %d before the gap filled", s.next)
	}
	s.accept(0, frame[:copy(frame, "aaaaa")])
	got, err := s.slice(0, -1)
	if err != nil || string(got) != "aaaaabbbbbcccc" {
		t.Fatalf("merged = %q, %v", got, err)
	}
}

func TestStreamLogDuplicateAndOverlap(t *testing.T) {
	s := &streamLog{cap: 1024}
	s.accept(0, []byte("abcdef"))
	s.accept(3, []byte("defghi")) // overlapping retransmission
	s.accept(0, []byte("abc"))    // pure duplicate
	got, err := s.slice(0, -1)
	if err != nil || string(got) != "abcdefghi" {
		t.Fatalf("after overlap = %q, %v", got, err)
	}
}

func TestStreamLogEviction(t *testing.T) {
	s := &streamLog{cap: 8}
	s.accept(0, []byte("0123456789ab")) // 12 bytes into cap 8
	if s.base != 4 || len(s.data) != 8 {
		t.Fatalf("base=%d len=%d after eviction", s.base, len(s.data))
	}
	if _, err := s.slice(0, -1); !errors.Is(err, errLogEvicted) {
		t.Fatalf("slice below base err = %v", err)
	}
	got, err := s.slice(4, -1)
	if err != nil || string(got) != "456789ab" {
		t.Fatalf("retained = %q, %v", got, err)
	}
}

// TestStreamLogProperty delivers a random stream chopped into shuffled,
// partially duplicated segments and checks the retained suffix is always
// exact — the invariant recovery correctness rests on.
func TestStreamLogProperty(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := rng.Intn(3000) + 100
		stream := make([]byte, size)
		rng.Read(stream)
		type segment struct {
			off int64
			b   []byte
		}
		var segs []segment
		for off := 0; off < size; {
			n := rng.Intn(300) + 1
			if off+n > size {
				n = size - off
			}
			segs = append(segs, segment{int64(off), stream[off : off+n]})
			off += n
		}
		rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
		segs = append(segs, segs[:len(segs)/4]...) // duplicates

		s := &streamLog{cap: size + 100}
		for _, sg := range segs {
			s.accept(sg.off, sg.b)
		}
		if s.next != int64(size) {
			return false
		}
		got, err := s.slice(0, -1)
		return err == nil && bytes.Equal(got, stream)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
