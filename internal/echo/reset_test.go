package echo

import (
	"math/rand/v2"
	"testing"

	"resilient/internal/msg"
)

// trackerOp is one step of a random tracker workload: Prune(phase) when
// prune is set, else Observe.
type trackerOp struct {
	prune           bool
	sender, subject msg.ID
	phase           msg.Phase
	value           msg.Value
}

// randomTrackerOps returns count operations on an n-process tracker: echoes
// for phases 0..7 and the wildcard, from and about ids now and then outside
// 0..n-1, with now and then an invalid value, and one prune in forty.
func randomTrackerOps(rng *rand.Rand, n, count int) []trackerOp {
	id := func() msg.ID {
		if rng.IntN(20) == 0 {
			return [...]msg.ID{-1, msg.ID(n)}[rng.IntN(2)]
		}
		return msg.ID(rng.IntN(n))
	}
	ops := make([]trackerOp, count)
	for i := range ops {
		op := trackerOp{sender: id(), subject: id(), phase: msg.Phase(rng.IntN(8)), value: msg.Value(rng.IntN(2))}
		switch {
		case rng.IntN(40) == 0:
			op.prune = true
		case rng.IntN(20) == 0:
			op.phase = msg.WildcardPhase
		case rng.IntN(20) == 0:
			op.value = 2
		}
		ops[i] = op
	}
	return ops
}

// TestTrackerResetEqualsFresh runs a full and a sampled tracker through a
// hostile workload with prunes, resets it, and requires it to answer every
// Observe, Seen, Count and Accepted of a second workload exactly as a new
// tracker of the same shape does.
func TestTrackerResetEqualsFresh(t *testing.T) {
	for _, n := range []int{4, 7, 10} {
		k := (n - 1) / 3
		sample := []int32{0, 2, int32(n - 1)}
		for _, shape := range []struct {
			name string
			mk   func() *Tracker
		}{
			{"full", func() *Tracker { return NewTracker(n, k) }},
			{"sampled", func() *Tracker { return NewSampledTracker(n, sample, 2) }},
		} {
			name, mk := shape.name, shape.mk
			rng := rand.New(rand.NewPCG(uint64(n), 0x7e5e7))
			tr := mk()
			for _, op := range randomTrackerOps(rng, n, 60*n) {
				if op.prune {
					tr.Prune(op.phase)
				} else {
					tr.Observe(op.sender, op.subject, op.phase, op.value)
				}
			}
			if tr.low == 0 || len(tr.tallies) == 0 {
				t.Fatalf("n=%d %s: the first workload left low %d and %d tables; want a prune and live tables",
					n, name, tr.low, len(tr.tallies))
			}
			tr.Reset()
			fresh := mk()
			for i, op := range randomTrackerOps(rng, n, 60*n) {
				if op.prune {
					tr.Prune(op.phase)
					fresh.Prune(op.phase)
				} else {
					accA, okA := tr.Observe(op.sender, op.subject, op.phase, op.value)
					accB, okB := fresh.Observe(op.sender, op.subject, op.phase, op.value)
					if accA != accB || okA != okB {
						t.Fatalf("n=%d %s op %d %+v: reset tracker %v/%v, new %v/%v", n, name, i, op, accA, okA, accB, okB)
					}
				}
				for ph := msg.Phase(0); ph < 8; ph++ {
					for s := msg.ID(0); int(s) < n; s++ {
						if a, b := tr.Accepted(s, ph), fresh.Accepted(s, ph); a != b {
							t.Fatalf("n=%d %s op %d: Accepted(%d, %d) %v vs %v", n, name, i, s, ph, a, b)
						}
						z, o := tr.Count(s, ph)
						zf, of := fresh.Count(s, ph)
						if z != zf || o != of {
							t.Fatalf("n=%d %s op %d: Count(%d, %d) %d/%d vs %d/%d", n, name, i, s, ph, z, o, zf, of)
						}
						if a, b := tr.Seen(op.sender, s, ph), fresh.Seen(op.sender, s, ph); a != b {
							t.Fatalf("n=%d %s op %d: Seen(%d, %d, %d) %v vs %v", n, name, i, op.sender, s, ph, a, b)
						}
					}
				}
			}
		}
	}
}
