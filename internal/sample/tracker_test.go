package sample

import (
	"testing"

	"resilient/internal/echo"
	"resilient/internal/msg"
)

// trackerFixture builds a directory where receiver 0's echo sample is known.
func trackerFixture(t *testing.T) (*Directory, *echo.Tracker) {
	t.Helper()
	d := NewDirectory(mustPlan(t, 120, 12, 1e-2), 5)
	return d, NewTracker(d, 0)
}

func TestTrackerIgnoresNonSampleSenders(t *testing.T) {
	d, tr := trackerFixture(t)
	sample := d.EchoSample(0)
	outside := msg.ID(-1)
	for id := int32(0); int(id) < d.Plan().N; id++ {
		if SampleIndex(sample, msg.ID(id)) < 0 {
			outside = msg.ID(id)
			break
		}
	}
	if outside < 0 {
		t.Skip("sample covers whole population")
	}
	if _, ok := tr.Observe(outside, 3, 0, msg.V1); ok {
		t.Fatal("non-sample sender accepted")
	}
	if z, o := tr.Count(3, 0); z != 0 || o != 0 {
		t.Fatalf("non-sample echo counted: %d/%d", z, o)
	}
	if tr.Seen(outside, 3, 0) {
		t.Fatal("non-sample sender marked seen")
	}
}

func TestTrackerAcceptAtThresholdOnce(t *testing.T) {
	d, tr := trackerFixture(t)
	sample := d.EchoSample(0)
	th := tr.Threshold()
	if th < 2 || th > len(sample) {
		t.Fatalf("odd threshold %d for sample of %d", th, len(sample))
	}
	var accepts int
	for i := 0; i < len(sample); i++ {
		acc, ok := tr.Observe(msg.ID(sample[i]), 7, 2, msg.V1)
		if ok {
			accepts++
			if i+1 != th {
				t.Fatalf("accepted at %d echoes, want %d", i+1, th)
			}
			if acc != (echo.Accept{Subject: 7, Phase: 2, Value: msg.V1}) {
				t.Fatalf("accept = %+v", acc)
			}
		}
	}
	if accepts != 1 {
		t.Fatalf("accepted %d times, want exactly once", accepts)
	}
	if !tr.Accepted(7, 2) || tr.Accepted(7, 3) || tr.Accepted(8, 2) {
		t.Fatal("Accepted() bookkeeping wrong")
	}
}

func TestTrackerFirstMessageRule(t *testing.T) {
	d, tr := trackerFixture(t)
	s := d.EchoSample(0)[0]
	if _, ok := tr.Observe(msg.ID(s), 1, 0, msg.V0); ok {
		t.Fatal("single echo accepted")
	}
	// Same sender again, other value: ignored entirely.
	tr.Observe(msg.ID(s), 1, 0, msg.V1)
	if z, o := tr.Count(1, 0); z != 1 || o != 0 {
		t.Fatalf("duplicate echo changed counts: %d/%d", z, o)
	}
	if !tr.Seen(msg.ID(s), 1, 0) || tr.Seen(msg.ID(s), 2, 0) {
		t.Fatal("Seen() bookkeeping wrong")
	}
	// Same sender, different subject or phase: counted independently.
	tr.Observe(msg.ID(s), 2, 0, msg.V1)
	tr.Observe(msg.ID(s), 1, 1, msg.V1)
	if z, o := tr.Count(2, 0); z != 0 || o != 1 {
		t.Fatalf("other-subject echo miscounted: %d/%d", z, o)
	}
	if z, o := tr.Count(1, 1); z != 0 || o != 1 {
		t.Fatalf("other-phase echo miscounted: %d/%d", z, o)
	}
}

func TestTrackerPruneAndReuse(t *testing.T) {
	d, tr := trackerFixture(t)
	sample := d.EchoSample(0)
	for p := msg.Phase(0); p < 4; p++ {
		for _, s := range sample {
			tr.Observe(msg.ID(s), 9, p, msg.V0)
		}
	}
	tr.Prune(3)
	if z, _ := tr.Count(9, 2); z != 0 {
		t.Fatal("pruned phase still counted")
	}
	if _, ok := tr.Observe(msg.ID(sample[0]), 9, 1, msg.V0); ok {
		t.Fatal("echo for pruned phase accepted")
	}
	if tr.Seen(msg.ID(sample[0]), 9, 1) {
		t.Fatal("pruned phase still seen")
	}
	// Phase 3 survives.
	if z, _ := tr.Count(9, 3); z != len(sample) {
		t.Fatalf("surviving phase lost counts: %d", z)
	}
	// Recycled tallies start clean and accept again.
	var accepts int
	for _, s := range sample {
		if _, ok := tr.Observe(msg.ID(s), 11, 5, msg.V1); ok {
			accepts++
		}
	}
	if accepts != 1 {
		t.Fatalf("post-prune phase accepted %d times, want 1", accepts)
	}
	// Prune is idempotent and never regresses.
	tr.Prune(2)
	if z, _ := tr.Count(9, 3); z != len(sample) {
		t.Fatal("backward prune dropped state")
	}
}

// TestTrackerDegeneratesToEchoTracker feeds the identical echo stream to the
// sampled tracker under a degenerate (sample = whole population) plan and to
// the full-quorum echo.NewTracker: every Observe must return the same
// acceptance. This is the drop-in equivalence claim of DESIGN §13 at its
// ε→0 endpoint.
func TestTrackerDegeneratesToEchoTracker(t *testing.T) {
	const n, k = 10, 3
	p := mustPlan(t, n, k, 1e-9)
	if p.Echo != n {
		t.Fatalf("plan not degenerate: E=%d", p.Echo)
	}
	d := NewDirectory(p, 1)
	sparse := NewTracker(d, 0)
	den := echo.NewTracker(n, k)
	if sparse.Threshold() != den.Threshold() {
		t.Fatalf("thresholds differ: %d vs %d", sparse.Threshold(), den.Threshold())
	}
	// A deterministic but adversarial-ish stream: every sender echoes every
	// subject with a value that flips by parity, plus duplicate spam.
	for phase := msg.Phase(0); phase < 3; phase++ {
		for sender := 0; sender < n; sender++ {
			for subject := 0; subject < n; subject++ {
				v := msg.Value((sender + subject) % 2)
				a1, ok1 := sparse.Observe(msg.ID(sender), msg.ID(subject), phase, v)
				a2, ok2 := den.Observe(msg.ID(sender), msg.ID(subject), phase, v)
				if ok1 != ok2 || a1 != a2 {
					t.Fatalf("divergence at s=%d subj=%d ph=%d: (%v,%v) vs (%v,%v)",
						sender, subject, phase, a1, ok1, a2, ok2)
				}
				// Duplicate must be ignored by both.
				if _, ok := sparse.Observe(msg.ID(sender), msg.ID(subject), phase, 1-v); ok {
					t.Fatal("sampled tracker accepted duplicate")
				}
			}
		}
		sparse.Prune(phase)
		den.Prune(phase)
	}
	// Unanimous round: both trackers must accept every subject at exactly
	// the same echo.
	for sender := 0; sender < n; sender++ {
		for subject := 0; subject < n; subject++ {
			a1, ok1 := sparse.Observe(msg.ID(sender), msg.ID(subject), 5, msg.V1)
			a2, ok2 := den.Observe(msg.ID(sender), msg.ID(subject), 5, msg.V1)
			if ok1 != ok2 || a1 != a2 {
				t.Fatalf("unanimous divergence at s=%d subj=%d: (%v,%v) vs (%v,%v)",
					sender, subject, a1, ok1, a2, ok2)
			}
		}
	}
	if !sparse.Accepted(0, 5) {
		t.Fatal("unanimous round did not accept")
	}
}

func TestTrackerRejectsInvalid(t *testing.T) {
	_, tr := trackerFixture(t)
	if _, ok := tr.Observe(-1, 0, 0, msg.V0); ok {
		t.Fatal("negative sender accepted")
	}
	if _, ok := tr.Observe(0, 500, 0, msg.V0); ok {
		t.Fatal("out-of-range subject accepted")
	}
	if _, ok := tr.Observe(0, 0, 0, msg.Value(9)); ok {
		t.Fatal("invalid value accepted")
	}
}
