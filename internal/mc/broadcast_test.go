package mc

import (
	"os"
	"testing"

	"resilient/internal/sample"
)

func broadcastPlan(t testing.TB, n, k int, eps float64) sample.Plan {
	t.Helper()
	p, err := sample.NewPlan(n, k, eps)
	if err != nil {
		t.Fatalf("NewPlan(%d, %d, %g): %v", n, k, eps, err)
	}
	return p
}

func TestBroadcastValidate(t *testing.T) {
	if err := (&Broadcast{}).Validate(); err == nil {
		t.Error("zero-value broadcast accepted")
	}
	p := broadcastPlan(t, 100, 10, 1e-3)
	if err := (&Broadcast{Plan: p, Faulty: 11}).Validate(); err == nil {
		t.Error("faulty > k accepted")
	}
	if err := (&Broadcast{Plan: p, Faulty: -1}).Validate(); err == nil {
		t.Error("negative faulty accepted")
	}
	if err := (&Broadcast{Plan: p, Faulty: 10}).Validate(); err != nil {
		t.Errorf("valid broadcast rejected: %v", err)
	}
	if _, err := (&Broadcast{Plan: p}).DeliveryRun(EnsembleOptions{}); err == nil {
		t.Error("Trials=0 accepted")
	}
}

// deliveryTrials is the size of the 2ε acceptance measurement: 1,000 trials
// by default, which keeps the package inside tier-1's time budget, and the
// full 10,000 when RESILIENT_MC_FULL=1 (set in one CI step).
func deliveryTrials() int {
	if os.Getenv("RESILIENT_MC_FULL") == "1" {
		return 10_000
	}
	return 1_000
}

// TestBroadcastDeliveryWithinTwiceEps is the sampled broadcast's acceptance
// measurement: at n=1,000 under the full silent-fault budget, the measured
// per-(receiver, broadcast) failure rate over deliveryTrials Monte-Carlo
// trials must be at most 2ε.
func TestBroadcastDeliveryWithinTwiceEps(t *testing.T) {
	const (
		n   = 1000
		eps = 1e-3
	)
	k := n / 10
	b := &Broadcast{Plan: broadcastPlan(t, n, k, eps), Faulty: k}
	trials := deliveryTrials()
	e, err := b.DeliveryRun(EnsembleOptions{Trials: trials, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("plan %v: %d trials x %d receivers, %d failures (rate %.2e, budget %.2e), worst trial %d, unreached %d",
		b.Plan, e.Trials, e.Receivers, e.Failures, e.FailureRate, 2*eps, e.MaxTrialFailures, e.Unreached)
	if e.FailureRate > 2*eps {
		t.Errorf("failure rate %.3e exceeds 2eps = %.3e", e.FailureRate, 2*eps)
	}
}

// TestBroadcastDeliveryDeterministic pins the worker-count invariance
// guarantee for the new ensemble.
func TestBroadcastDeliveryDeterministic(t *testing.T) {
	b := &Broadcast{Plan: broadcastPlan(t, 200, 20, 1e-2), Faulty: 20}
	var prev *DeliveryEnsemble
	for _, workers := range []int{1, 4, 16} {
		e, err := b.DeliveryRun(EnsembleOptions{Trials: 300, Workers: workers, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && *e != *prev {
			t.Fatalf("workers=%d changed the merged ensemble: %+v vs %+v", workers, e, prev)
		}
		prev = e
	}
}

// TestBroadcastFaultFreeDelivers sanity-checks the experiment itself: with
// no faults and a generous plan, failures must be essentially absent.
func TestBroadcastFaultFreeDelivers(t *testing.T) {
	b := &Broadcast{Plan: broadcastPlan(t, 500, 50, 1e-3)}
	e, err := b.DeliveryRun(EnsembleOptions{Trials: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if e.FailureRate > 1e-3 {
		t.Errorf("fault-free failure rate %.3e", e.FailureRate)
	}
}

func BenchmarkBroadcastTrial(b *testing.B) {
	p, err := sample.NewPlan(1000, 100, 1e-3)
	if err != nil {
		b.Fatal(err)
	}
	bc := &Broadcast{Plan: p, Faulty: 100}
	opts := EnsembleOptions{Trials: 1, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc.trial(opts.trialRNG(i))
	}
}
