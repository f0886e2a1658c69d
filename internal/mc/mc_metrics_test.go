package mc

import (
	"math/rand/v2"
	"testing"

	"resilient/internal/markov"
	"resilient/internal/metrics"
)

// TestFailStopChainMetrics checks that absorption and decision runs account
// their phases and hypergeometric draws under the mc.failstop. prefix.
func TestFailStopChainMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	c := &Chain{Chain: markov.Chain{N: 30, K: 9, Model: markov.FailStop}, Metrics: reg}
	rng := rand.New(rand.NewPCG(7, 7))

	phases, err := c.AbsorptionRun(15, rng)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["mc.failstop.absorption_runs"]; got != 1 {
		t.Errorf("absorption_runs = %d, want 1", got)
	}
	if got := snap.Counters["mc.failstop.steps"]; got != int64(phases) {
		t.Errorf("steps = %d, want %d (one per simulated phase)", got, phases)
	}
	if got := snap.Counters["mc.failstop.hg_draws"]; got != int64(phases*c.N) {
		t.Errorf("hg_draws = %d, want %d (n per phase)", got, phases*c.N)
	}
	h := snap.Histograms["mc.failstop.absorption_phases"]
	if h.Count != 1 || h.Sum != float64(phases) {
		t.Errorf("absorption_phases histogram = %+v, want count 1 sum %d", h, phases)
	}

	if _, _, err := c.DecisionRun(20, rng); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if got := snap.Counters["mc.failstop.decision_runs"]; got != 1 {
		t.Errorf("decision_runs = %d, want 1", got)
	}
	if snap.Histograms["mc.failstop.decision_phases"].Count != 1 {
		t.Error("decision_phases histogram missing the run")
	}
}

// TestMaliciousChainMetrics checks the mc.malicious. prefix and that a nil
// registry leaves the chain's numerical behaviour untouched.
func TestMaliciousChainMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	c := &Chain{Chain: markov.Chain{N: 10, K: 1, Model: markov.Mixed}, Metrics: reg}
	rng := rand.New(rand.NewPCG(11, 11))
	if _, err := c.AbsorptionRun(5, rng); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["mc.malicious.absorption_runs"] != 1 {
		t.Errorf("absorption_runs = %d, want 1", snap.Counters["mc.malicious.absorption_runs"])
	}
	if snap.Counters["mc.malicious.steps"] < 1 {
		t.Error("steps counter never incremented")
	}

	// Same seed with and without a registry must walk the same chain.
	bare := newChain(10, 1, markov.Mixed)
	p1, err := c.AbsorptionRun(5, rand.New(rand.NewPCG(3, 3)))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := bare.AbsorptionRun(5, rand.New(rand.NewPCG(3, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Errorf("metrics perturbed the chain: %d phases with registry, %d without", p1, p2)
	}
}
