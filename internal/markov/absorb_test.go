package markov_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"resilient/internal/markov"
	"resilient/internal/mc"
)

func TestAbsorptionSplitShape(t *testing.T) {
	c := markov.Chain{N: 61, K: 20, Model: markov.FailStop} // odd draw: exactly symmetric
	split, err := c.AbsorptionSplit()
	if err != nil {
		t.Fatal(err)
	}
	// Monotone nondecreasing in the start state, 0 at the bottom, 1 at the
	// top, and 1/2 by symmetry at the (half-integer) centre.
	prev := -1.0
	for i, p := range split {
		if p < prev-1e-9 {
			t.Fatalf("split not monotone at %d: %v < %v", i, p, prev)
		}
		if p < 0 || p > 1 {
			t.Fatalf("split[%d] = %v outside [0,1]", i, p)
		}
		prev = p
	}
	if split[0] != 0 || split[61] != 1 {
		t.Errorf("endpoints %v, %v", split[0], split[61])
	}
	mid := (split[30] + split[31]) / 2
	if math.Abs(mid-0.5) > 1e-6 {
		t.Errorf("centre probability %v, want 0.5", mid)
	}
}

func TestAbsorptionSplitSupermajorityCommits(t *testing.T) {
	c := markov.Chain{N: 60, K: 20, Model: markov.FailStop}
	split, err := c.AbsorptionSplit()
	if err != nil {
		t.Fatal(err)
	}
	// States already in the absorbing regions are certain.
	for i := 0; i <= 60; i++ {
		if !c.Absorbed(i) {
			continue
		}
		want := 0.0
		if 2*i > c.N+c.K {
			want = 1
		}
		if split[i] != want {
			t.Errorf("absorbed state %d: split %v, want %v", i, split[i], want)
		}
	}
}

func TestMaliciousAbsorptionSplit(t *testing.T) {
	c := markov.Chain{N: 100, K: 5, Model: markov.Forced}
	split, err := c.AbsorptionSplit()
	if err != nil {
		t.Fatal(err)
	}
	correct := c.Pop()
	if split[0] != 0 || split[correct] != 1 {
		t.Errorf("endpoints %v, %v", split[0], split[correct])
	}
	for i := 1; i <= correct; i++ {
		if split[i] < split[i-1]-1e-9 {
			t.Fatalf("split not monotone at %d", i)
		}
	}
}

// TestSplitMatchesSimulatedDecisions cross-checks the analytic absorption
// split against the per-process decision simulation: the fraction of runs
// deciding 1 from a given start state must match B = N*R.
func TestSplitMatchesSimulatedDecisions(t *testing.T) {
	n, k := 30, 9
	chain := markov.Chain{N: n, K: k, Model: markov.FailStop}
	split, err := chain.AbsorptionSplit()
	if err != nil {
		t.Fatal(err)
	}
	sim := mc.Chain{Chain: chain}
	for _, start := range []int{12, 15, 18} {
		const trials = 2000
		ones := 0
		rng := rand.New(rand.NewPCG(uint64(start), 99))
		for tr := 0; tr < trials; tr++ {
			_, decided1, err := sim.DecisionRun(start, rng)
			if err != nil {
				t.Fatal(err)
			}
			if decided1 {
				ones++
			}
		}
		got := float64(ones) / trials
		want := split[start]
		// 3-sigma binomial tolerance plus a small model slack (decisions
		// can fire from transient states before absorption).
		tol := 3*math.Sqrt(want*(1-want)/trials) + 0.03
		if math.Abs(got-want) > tol {
			t.Errorf("start %d: simulated P(decide 1) = %v, analytic %v (tol %v)",
				start, got, want, tol)
		}
	}
}
