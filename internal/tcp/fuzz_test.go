package tcp

import "testing"

// FuzzRangeSet exercises the receiver's out-of-order range bookkeeping
// with arbitrary add/pop sequences; the invariants are the ones SACK
// generation relies on. (Seed corpus runs under plain `go test`; use
// `go test -fuzz=FuzzRangeSet ./internal/tcp` for exploration.)
func FuzzRangeSet(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	f.Add([]byte{0, 0, 0, 255, 255, 1})
	f.Add([]byte{10, 5, 20, 15, 30, 25, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var s rangeSet
		var popLimit uint64
		for i := 0; i+1 < len(ops); i += 2 {
			start := uint64(ops[i]) * 10
			length := uint64(ops[i+1])%50 + 1
			if ops[i]%7 == 0 {
				got := s.popBelow(start)
				if got < start {
					t.Fatalf("popBelow(%d) = %d went backwards", start, got)
				}
				if got > popLimit {
					popLimit = got
				}
				continue
			}
			s.add(start, start+length)
		}
		// Invariants: sorted, disjoint, non-adjacent, positive ranges.
		for i, r := range s.ranges {
			if r.Start >= r.End {
				t.Fatalf("degenerate range %+v", r)
			}
			if i > 0 && s.ranges[i-1].End >= r.Start {
				t.Fatalf("unmerged or unsorted ranges: %v", s.ranges)
			}
		}
		// blocks() never exceeds the cap and preserves order.
		b := s.blocks(4)
		if len(b) > 4 {
			t.Fatalf("blocks returned %d", len(b))
		}
	})
}

// FuzzSenderAckStream feeds a sender arbitrary ACK/SACK sequences; the
// sender must never panic, never drive pipe negative, and never move
// sndUna backwards.
func FuzzSenderAckStream(f *testing.F) {
	f.Add([]byte{10, 0, 2, 8, 30, 1})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 255, 128, 64, 32, 16})
	f.Fuzz(func(t *testing.T, raw []byte) {
		h := newFuzzHarness(t)
		h.snd.Start()
		h.engine.RunUntil(10_000) // let the initial window go out
		for i := 0; i+1 < len(raw); i += 2 {
			cum := uint64(raw[i]) % 120 * 1000
			sackStart := uint64(raw[i+1]) % 120 * 1000
			pkt := ackPacket(cum)
			if sackStart > cum {
				pkt.AddSACK(sackBlock(sackStart, sackStart+3000))
			}
			prevUna := h.snd.sndUna
			h.host.HandlePacket(pkt)
			if h.snd.sndUna < prevUna {
				t.Fatalf("sndUna moved backwards: %d -> %d", prevUna, h.snd.sndUna)
			}
			if h.snd.pipe < 0 {
				t.Fatalf("pipe negative: %d", h.snd.pipe)
			}
			h.engine.RunFor(5_000)
		}
	})
}
