package echo

import (
	"math"
	"testing"

	"resilient/internal/msg"
	"resilient/internal/quorum"
)

// trackerModel is the echo rule written out plainly: the first echo of each
// (sender, subject, phase) counts, ids outside 0..n-1, senders outside the
// sample (when there is one), invalid values and phases below the prune
// mark count for nothing.
type trackerModel struct {
	n         int
	member    map[msg.ID]bool // the sample; nil counts every sender
	threshold int
	low       msg.Phase
	seen      map[[3]int64]bool   // (sender, subject, phase)
	counts    map[[2]int64][2]int // (subject, phase) -> first echoes per value
	accepted  map[[2]int64]bool   // (subject, phase)
	phases    map[msg.Phase]bool  // every phase an op named
}

func (m *trackerModel) counted(sender, subject msg.ID, p msg.Phase, v msg.Value) bool {
	if p < m.low || !v.Valid() || sender < 0 || int(sender) >= m.n || subject < 0 || int(subject) >= m.n {
		return false
	}
	if m.member != nil && !m.member[sender] {
		return false
	}
	key := [3]int64{int64(sender), int64(subject), int64(p)}
	if m.seen[key] {
		return false
	}
	m.seen[key] = true
	c := m.counts[[2]int64{int64(subject), int64(p)}]
	c[v]++
	m.counts[[2]int64{int64(subject), int64(p)}] = c
	return true
}

// fuzzID decodes an id byte: mostly 0..n-1, else -1, n or math.MaxInt32.
func fuzzID(b byte, n int) msg.ID {
	switch {
	case b < 0xe0:
		return msg.ID(int(b) % n)
	case b < 0xeb:
		return -1
	case b < 0xf6:
		return msg.ID(n)
	default:
		return math.MaxInt32
	}
}

// trackerOps runs a byte stream against a Tracker and the model; it is
// FuzzTracker's body. The first byte picks n (1..12) from its low seven bits
// and, with its top bit, a sampled tracker. A full tracker takes k from the
// second byte and counts every sender. A sampled one reads three more: a
// 16-bit mask choosing the sample among 0..n-1 (possibly none), then the
// threshold, 1 up to one past the sample size (never reached). After the
// header every four bytes are one operation: Prune(phase) when the first is
// 0xff, else Observe(sender, subject, phase, value). Phases are 0..7, and
// the wildcard for a phase byte of 0xff; value byte 2 or above is an invalid
// value.
func trackerOps(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	n := 1 + int(data[0]&0x7f)%12
	m := &trackerModel{
		n:        n,
		seen:     map[[3]int64]bool{},
		counts:   map[[2]int64][2]int{},
		accepted: map[[2]int64]bool{},
		phases:   map[msg.Phase]bool{},
	}
	var tr *Tracker
	k := -1 // the full tracker's k; -1 for a sampled tracker
	if data[0]&0x80 == 0 {
		k = int(data[1]) % ((n + 1) / 2)
		tr = NewTracker(n, k)
		m.threshold = quorum.EchoAcceptCount(n, k)
		data = data[2:]
	} else {
		if len(data) < 4 {
			return
		}
		mask := int(data[1]) | int(data[2])<<8
		sample := make([]int32, 0, n)
		m.member = map[msg.ID]bool{}
		for id := range n {
			if mask&(1<<id) != 0 {
				sample = append(sample, int32(id))
				m.member[msg.ID(id)] = true
			}
		}
		m.threshold = 1 + int(data[3])%(len(sample)+1)
		tr = NewSampledTracker(n, sample, m.threshold)
		data = data[4:]
	}
	if tr.Threshold() != m.threshold {
		t.Fatalf("Threshold() = %d, want %d", tr.Threshold(), m.threshold)
	}
	phase := func(b byte) msg.Phase {
		if b == 0xff {
			return msg.WildcardPhase
		}
		return msg.Phase(b % 8)
	}
	for ; len(data) >= 4; data = data[4:] {
		p := phase(data[2])
		m.phases[p] = true
		if data[0] == 0xff {
			tr.Prune(p)
			if p > m.low {
				m.low = p
			}
			continue
		}
		sender, subject, v := fuzzID(data[0], n), fuzzID(data[1], n), msg.Value(data[3]%4)
		counted := m.counted(sender, subject, p, v)
		acc, ok := tr.Observe(sender, subject, p, v)
		key := [2]int64{int64(subject), int64(p)}
		if !counted {
			if ok {
				t.Fatalf("Observe(%d, %d, %d, %d) on n=%d: %v from an echo that counts for nothing (low %d)",
					sender, subject, p, v, n, acc, m.low)
			}
		} else {
			c := m.counts[key][v]
			want := !m.accepted[key] && c >= m.threshold
			if ok != want {
				t.Fatalf("Observe(%d, %d, %d, %d) on n=%d k=%d threshold %d: accept %v with %d first echoes for the value, want %v",
					sender, subject, p, v, n, k, m.threshold, ok, c, want)
			}
			if ok {
				if m.accepted[key] {
					t.Fatalf("(%d, %d) accepted twice", subject, p)
				}
				if c != m.threshold || (k >= 0 && 2*c <= n+k) || acc != (Accept{Subject: subject, Phase: p, Value: v}) {
					t.Fatalf("accept %v on %d first echoes, n=%d k=%d threshold %d", acc, c, n, k, m.threshold)
				}
				m.accepted[key] = true
			}
		}
		seen := m.seen[[3]int64{int64(sender), int64(subject), int64(p)}] && p >= m.low
		if got := tr.Seen(sender, subject, p); got != seen {
			t.Fatalf("Seen(%d, %d, %d) = %v, model %v", sender, subject, p, got, seen)
		}
		// The tracker's state is the model's, for every real subject and
		// every phase seen so far; pruned phases read as empty.
		for ph := range m.phases {
			for s := msg.ID(0); int(s) < n; s++ {
				key := [2]int64{int64(s), int64(ph)}
				want := [2]int{}
				if ph >= m.low {
					want = m.counts[key]
				}
				if z, o := tr.Count(s, ph); z != want[0] || o != want[1] {
					t.Fatalf("Count(%d, %d) = %d/%d, model %d/%d", s, ph, z, o, want[0], want[1])
				}
				if got := tr.Accepted(s, ph); got != (m.accepted[key] && ph >= m.low) {
					t.Fatalf("Accepted(%d, %d) = %v", s, ph, got)
				}
			}
		}
	}
}

// FuzzTracker checks the echo rule under arbitrary echo streams, on full and
// sampled trackers: at most one Accept per (subject, phase), an Accept only
// for a value with threshold first echoes (more than (n+k)/2 on a full
// tracker) and on the echo that gets it there, and nothing at all from
// senders outside the sample, ids outside 0..n-1 or pruned phases.
func FuzzTracker(f *testing.F) {
	// n=4 k=1: three echoes of 1 for subject 2, phase 0, one a duplicate.
	f.Add([]byte{3, 1, 0, 2, 0, 1, 1, 2, 0, 1, 1, 2, 0, 1, 2, 2, 0, 1})
	// Out-of-range senders and subjects, then a prune and a late echo.
	f.Add([]byte{6, 2, 0xe5, 1, 1, 1, 0xf0, 1, 1, 1, 0xfa, 1, 1, 1, 0, 0xe5, 1, 0, 0, 0xf8, 1, 0, 0xff, 0, 3, 0, 1, 1, 1, 1})
	// A wildcard phase, invalid values and an equivocating sender.
	f.Add([]byte{4, 0, 0, 1, 0xff, 1, 0, 1, 2, 2, 0, 1, 2, 3, 0, 1, 2, 1, 0, 1, 2, 0})
	// Sampled, n=6: sample {0, 2, 3, 5}, threshold 2. Echoes for subject 4
	// from 1 (not a member), 0, 0 again, an out-of-range id and 2,
	// interleaved with two for subject 1; then a prune, a late member echo,
	// and phase 1 on the recycled table.
	f.Add([]byte{0x85, 0x2d, 0, 1,
		1, 4, 0, 1, 0, 4, 0, 1, 0, 1, 0, 0, 0, 4, 0, 0, 0xf0, 4, 0, 1, 2, 1, 0, 0, 2, 4, 0, 1,
		0xff, 0, 1, 0, 3, 4, 0, 1, 0, 1, 1, 1, 0, 4, 1, 0})
	f.Fuzz(trackerOps)
}
