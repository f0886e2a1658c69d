package echo

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"resilient/internal/msg"
	"resilient/internal/quorum"
)

func TestThreshold(t *testing.T) {
	tr := NewTracker(10, 3)
	if tr.Threshold() != quorum.EchoAcceptCount(10, 3) {
		t.Errorf("threshold %d", tr.Threshold())
	}
	if tr.Threshold() != 7 { // (10+3)/2 = 6 -> 7
		t.Errorf("threshold %d, want 7", tr.Threshold())
	}
}

func TestAcceptAtExactThreshold(t *testing.T) {
	n, k := 10, 3
	tr := NewTracker(n, k)
	th := tr.Threshold()
	for s := 0; s < th-1; s++ {
		if _, ok := tr.Observe(msg.ID(s), 5, 0, msg.V1); ok {
			t.Fatalf("accepted after only %d echoes", s+1)
		}
	}
	acc, ok := tr.Observe(msg.ID(th-1), 5, 0, msg.V1)
	if !ok {
		t.Fatal("not accepted at threshold")
	}
	if acc.Subject != 5 || acc.Phase != 0 || acc.Value != msg.V1 {
		t.Errorf("accept %+v", acc)
	}
	// No second acceptance for the same (subject, phase).
	if _, ok := tr.Observe(msg.ID(th), 5, 0, msg.V1); ok {
		t.Error("double acceptance")
	}
	if !tr.Accepted(5, 0) {
		t.Error("Accepted not recorded")
	}
}

func TestDuplicateSendersIgnored(t *testing.T) {
	tr := NewTracker(7, 2)
	for i := 0; i < 20; i++ {
		if _, ok := tr.Observe(3, 1, 0, msg.V1); ok {
			t.Fatal("one sender repeated 20 times caused acceptance")
		}
	}
	z, o := tr.Count(1, 0)
	if z != 0 || o != 1 {
		t.Errorf("counts (%d, %d), want (0, 1)", z, o)
	}
}

func TestEquivocationBySenderIsInert(t *testing.T) {
	// A sender's second echo with the other value must not count: the
	// first-message rule of Figure 2.
	tr := NewTracker(7, 2)
	tr.Observe(0, 1, 0, msg.V1)
	tr.Observe(0, 1, 0, msg.V0) // equivocation
	z, o := tr.Count(1, 0)
	if z != 0 || o != 1 {
		t.Errorf("counts (%d, %d) after equivocation, want (0, 1)", z, o)
	}
	if !tr.Seen(0, 1, 0) {
		t.Error("Seen not recorded")
	}
}

func TestNoConflictingAcceptancePossible(t *testing.T) {
	// Even if every process echoes (one value each), the two values cannot
	// both cross the threshold: 2*((n+k)/2+1) > n.
	n, k := 9, 2
	tr := NewTracker(n, k)
	// 5 senders echo 0, 4 echo 1 for the same (subject, phase).
	var accepts int
	for s := 0; s < n; s++ {
		v := msg.V0
		if s >= 5 {
			v = msg.V1
		}
		if _, ok := tr.Observe(msg.ID(s), 0, 0, v); ok {
			accepts++
		}
	}
	if accepts > 1 {
		t.Fatalf("%d acceptances for one (subject, phase)", accepts)
	}
}

func TestPhasesIndependent(t *testing.T) {
	tr := NewTracker(7, 2)
	th := tr.Threshold()
	for s := 0; s < th; s++ {
		tr.Observe(msg.ID(s), 2, 0, msg.V0)
	}
	if tr.Accepted(2, 1) {
		t.Error("acceptance leaked across phases")
	}
	// The same senders can echo again for phase 1.
	var ok bool
	for s := 0; s < th; s++ {
		_, ok = tr.Observe(msg.ID(s), 2, 1, msg.V1)
	}
	if !ok {
		t.Error("no acceptance in phase 1")
	}
}

func TestPruneDropsOldAndBlocksLate(t *testing.T) {
	tr := NewTracker(7, 2)
	tr.Observe(0, 1, 0, msg.V1)
	tr.Prune(3)
	if z, o := tr.Count(1, 0); z != 0 || o != 0 {
		t.Error("pruned counts remain")
	}
	if _, ok := tr.Observe(1, 1, 0, msg.V1); ok {
		t.Error("late echo for pruned phase accepted")
	}
	// Pruning is monotone: lower prune is a no-op, and phases at or above
	// the prune line still count.
	tr.Prune(1)
	if _, ok := tr.Observe(1, 1, 3, msg.V1); ok {
		t.Error("unexpected accept")
	}
	if z, o := tr.Count(1, 3); z != 0 || o != 1 {
		t.Errorf("phase-3 echo not counted after no-op prune: (%d,%d)", z, o)
	}
}

func TestInvalidValueIgnored(t *testing.T) {
	tr := NewTracker(7, 2)
	if _, ok := tr.Observe(0, 1, 0, msg.Value(7)); ok {
		t.Error("invalid value accepted")
	}
	if z, o := tr.Count(1, 0); z != 0 || o != 0 {
		t.Error("invalid value counted")
	}
}

func TestByzantineSubjectCannotDoubleAccept(t *testing.T) {
	// A Byzantine subject sends initial 0 to half and 1 to the other half;
	// senders echo what they saw. At most one value is ever accepted,
	// whatever the interleaving -- Theorem 4's consistency claim.
	n, k := 10, 3
	for pattern := 0; pattern < 1<<10; pattern += 37 {
		tr := NewTracker(n, k)
		accepts := 0
		for s := 0; s < n; s++ {
			v := msg.Value((pattern >> s) & 1)
			if _, ok := tr.Observe(msg.ID(s), 9, 4, v); ok {
				accepts++
			}
		}
		if accepts > 1 {
			t.Fatalf("pattern %b: %d acceptances", pattern, accepts)
		}
	}
}

// TestArbitraryPhasesStaySortedAndRecycleInOrder feeds echoes for phases a
// Byzantine sender might name, in no order: each phase keeps its own
// counts, the tables stay sorted by phase, and Prune hands the pruned tables
// to the freelist in ascending phase order.
func TestArbitraryPhasesStaySortedAndRecycleInOrder(t *testing.T) {
	tr := NewTracker(4, 1)
	phases := []msg.Phase{900, 7, 3, math.MaxInt32, 0, 41, 2, 6, 1 << 20, 5}
	for i, p := range phases {
		for j := 0; j <= i%3; j++ {
			tr.Observe(msg.ID(j), 1, p, msg.V1)
		}
	}
	for i, p := range phases {
		if _, ones := tr.Count(1, p); ones != i%3+1 {
			t.Fatalf("phase %d counts %d echoes, want %d", p, ones, i%3+1)
		}
	}
	if !slices.IsSortedFunc(tr.tallies, func(a, b *phaseTally) int { return cmp.Compare(a.phase, b.phase) }) {
		t.Fatal("phase tables out of order")
	}
	tr.Prune(42)
	var freed []msg.Phase
	for _, pt := range tr.free {
		freed = append(freed, pt.phase)
	}
	want := []msg.Phase{0, 2, 3, 5, 6, 7, 41}
	if !slices.Equal(freed, want) {
		t.Fatalf("freelist holds phases %v, want %v", freed, want)
	}
	for _, p := range phases {
		_, ones := tr.Count(1, p)
		if kept := p >= 42; kept != (ones > 0) {
			t.Fatalf("after Prune(42) phase %d counts %d echoes", p, ones)
		}
	}
}
