package echo

import (
	"testing"

	"resilient/internal/msg"
)

// TestTrackerPruneReuseAtScale runs the dense tracker through many phase
// cycles at n=1,000: recycled phase tables must come back clean (fresh
// first-message dedup, fresh acceptance latch, zeroed counts) and the
// steady-state observe/prune cycle must not allocate.
func TestTrackerPruneReuseAtScale(t *testing.T) {
	const n, k = 1000, 100
	tr := NewTracker(n, k)
	th := tr.Threshold()
	subjects := []msg.ID{0, 1, 499, 998, 999}
	for p := msg.Phase(0); p < 8; p++ {
		for _, subj := range subjects {
			accepts := 0
			for s := 0; s < n; s++ {
				if _, ok := tr.Observe(msg.ID(s), subj, p, msg.V1); ok {
					accepts++
				}
				// Duplicates never count, even on recycled tables.
				if _, ok := tr.Observe(msg.ID(s), subj, p, msg.V0); ok {
					t.Fatalf("phase %d: duplicate echo accepted", p)
				}
			}
			if accepts != 1 {
				t.Fatalf("phase %d subject %d: %d acceptances", p, subj, accepts)
			}
			if z, o := tr.Count(subj, p); z != 0 || o != n {
				t.Fatalf("phase %d subject %d: counts %d/%d", p, subj, z, o)
			}
		}
		// Late echoes for the pruned phase are ignored.
		tr.Prune(p + 1)
		if _, ok := tr.Observe(0, 7, p, msg.V1); ok {
			t.Fatalf("phase %d accepted an echo after pruning", p)
		}
	}
	if th != 551 {
		t.Fatalf("threshold %d at n=1000 k=100, want 551", th)
	}

	// Steady state: one full phase cycle against recycled tables is
	// allocation-free (the freelist claim of the package doc).
	phase := msg.Phase(100)
	allocs := testing.AllocsPerRun(5, func() {
		for s := 0; s < n; s++ {
			tr.Observe(msg.ID(s), 3, phase, msg.V1)
		}
		phase++
		tr.Prune(phase)
	})
	if allocs > 0 {
		t.Errorf("steady-state phase cycle allocates %.1f times", allocs)
	}
}

// BenchmarkTrackerObserve pins the per-echo cost at scale.
func BenchmarkTrackerObserve(b *testing.B) {
	const n, k = 1000, 100
	tr := NewTracker(n, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sender := msg.ID(i % n)
		subject := msg.ID((i / n) % n)
		tr.Observe(sender, subject, tr.low, msg.V1)
		if i%(n*n) == n*n-1 {
			tr.Prune(tr.low + 1)
		}
	}
}
