package mc

import (
	"math"
	"math/rand/v2"
	"testing"

	"resilient/internal/markov"
	"resilient/internal/stats"
)

func rng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed+1)) }

func newChain(n, k int, model markov.Model) *Chain {
	return &Chain{Chain: markov.Chain{N: n, K: k, Model: model}}
}

func TestFailStopValidate(t *testing.T) {
	if (newChain(9, 3, markov.FailStop)).Validate() != nil {
		t.Error("valid chain rejected")
	}
	for _, c := range []*Chain{newChain(0, 0, markov.FailStop), newChain(5, 5, markov.FailStop), newChain(5, -1, markov.FailStop)} {
		if c.Validate() == nil {
			t.Errorf("%+v accepted", c)
		}
	}
}

func TestFailStopAbsorbedRegions(t *testing.T) {
	c := newChain(90, 30, markov.FailStop) // k = n/3: paper's regions [0,30) and (60,90]
	for i := 0; i <= 90; i++ {
		want := i < 30 || i > 60
		if got := c.Absorbed(i); got != want {
			t.Errorf("Absorbed(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestFailStopStepFromUnanimity(t *testing.T) {
	c := newChain(30, 5, markov.FailStop)
	out, err := c.Step(0, rng(1))
	if err != nil {
		t.Fatal(err)
	}
	if out.Ones != 0 {
		t.Errorf("unanimity not preserved: %d ones", out.Ones)
	}
	// Everyone sees 25 zeros > (30+5)/2 = 17.5 -> all decide 0.
	if out.Decided0 != 30 || out.Decided1 != 0 {
		t.Errorf("decisions (%d, %d)", out.Decided0, out.Decided1)
	}
}

func TestFailStopStepCommittedRegionCollapses(t *testing.T) {
	// From a state in the absorbing region, one step reaches unanimity.
	c := newChain(90, 30, markov.FailStop)
	out, err := c.Step(29, rng(2)) // 29 < (n-k)/2 = 30
	if err != nil {
		t.Fatal(err)
	}
	if out.Ones != 0 {
		t.Errorf("absorbing state did not collapse: %d ones", out.Ones)
	}
}

func TestAbsorptionRunTerminates(t *testing.T) {
	c := newChain(60, 20, markov.FailStop)
	var acc stats.Accumulator
	for seed := uint64(0); seed < 200; seed++ {
		phases, err := c.AbsorptionRun(30, rng(seed))
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(float64(phases))
	}
	// The paper's bound for the collapsed chain is < 7 phases; the exact
	// chain from balanced start should be well below that.
	if acc.Mean() > 7 {
		t.Errorf("mean absorption %v > 7", acc.Mean())
	}
	if acc.Mean() <= 0 {
		t.Errorf("mean absorption %v <= 0", acc.Mean())
	}
}

func TestAbsorptionRunFromAbsorbedIsZero(t *testing.T) {
	c := newChain(60, 20, markov.FailStop)
	phases, err := c.AbsorptionRun(0, rng(1))
	if err != nil || phases != 0 {
		t.Errorf("phases=%d err=%v", phases, err)
	}
}

func TestAbsorptionRunRejectsBadStart(t *testing.T) {
	c := newChain(10, 3, markov.FailStop)
	if _, err := c.AbsorptionRun(11, rng(1)); err == nil {
		t.Error("start beyond n accepted")
	}
	if _, err := c.AbsorptionRun(-1, rng(1)); err == nil {
		t.Error("negative start accepted")
	}
}

func TestDecisionRunAgreesAndTerminates(t *testing.T) {
	c := newChain(30, 9, markov.FailStop) // 3k < n
	for seed := uint64(0); seed < 50; seed++ {
		phases, _, err := c.DecisionRun(15, rng(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if phases < 1 || phases > 1000 {
			t.Fatalf("seed %d: implausible %d phases", seed, phases)
		}
	}
}

func TestDecisionRunUnanimousFast(t *testing.T) {
	c := newChain(30, 9, markov.FailStop)
	phases, ones, err := c.DecisionRun(30, rng(3))
	if err != nil {
		t.Fatal(err)
	}
	if !ones {
		t.Error("unanimous 1s decided 0")
	}
	if phases != 1 {
		t.Errorf("unanimous input took %d phases, want 1", phases)
	}
}

func TestDecisionRunRequiresThreeKLessN(t *testing.T) {
	c := newChain(9, 3, markov.FailStop)
	if _, _, err := c.DecisionRun(4, rng(1)); err == nil {
		t.Error("3k = n accepted for decisions")
	}
}

func TestMaliciousValidate(t *testing.T) {
	if (newChain(10, 2, markov.Mixed)).Validate() != nil {
		t.Error("valid chain rejected")
	}
	if (newChain(10, 5, markov.Mixed)).Validate() == nil {
		t.Error("2k = n accepted")
	}
	if newChain(10, 2, 0).Validate() == nil {
		t.Error("missing model accepted")
	}
}

func TestMaliciousAbsorbedRegions(t *testing.T) {
	c := newChain(100, 10, markov.Mixed)
	// Absorbing: 2i < n-3k = 70 -> i < 35; 2i > n+k = 110 -> i > 55.
	for _, tc := range []struct {
		i    int
		want bool
	}{{34, true}, {35, false}, {55, false}, {56, true}, {0, true}, {90, true}} {
		if got := c.Absorbed(tc.i); got != tc.want {
			t.Errorf("Absorbed(%d) = %v, want %v", tc.i, got, tc.want)
		}
	}
}

func TestMaliciousStepBothModels(t *testing.T) {
	for _, model := range []markov.Model{markov.Mixed, markov.Forced} {
		c := newChain(50, 5, model)
		out, err := c.Step(22, rng(4)) // near balance
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if out.Ones < 0 || out.Ones > c.Pop() {
			t.Fatalf("%v: ones %d outside range", model, out.Ones)
		}
	}
}

func TestMaliciousAbsorptionWithinPaperScale(t *testing.T) {
	// k = l*sqrt(n)/2 with l=1, n=100: k=5. Bound: 1/(2*Phi(1)) ~ 3.15.
	// The balancing adversary slows but does not prevent absorption; allow
	// a generous multiple.
	for _, model := range []markov.Model{markov.Mixed, markov.Forced} {
		c := newChain(100, 5, model)
		var acc stats.Accumulator
		for seed := uint64(0); seed < 300; seed++ {
			phases, err := c.AbsorptionRun(c.Balanced(), rng(seed))
			if err != nil {
				t.Fatalf("%v seed %d: %v", model, seed, err)
			}
			acc.Add(float64(phases))
		}
		if acc.Mean() > 20 {
			t.Errorf("%v: mean absorption %v implausibly high", model, acc.Mean())
		}
	}
}

func TestMaliciousForcedSlowerThanMixed(t *testing.T) {
	// The Forced adversary (always in every view) can only slow things
	// down relative to Mixed. Compare means with many trials.
	mixed := newChain(100, 8, markov.Mixed)
	forced := newChain(100, 8, markov.Forced)
	var am, af stats.Accumulator
	for seed := uint64(0); seed < 1500; seed++ {
		pm, err := mixed.AbsorptionRun(46, rng(seed))
		if err != nil {
			t.Fatal(err)
		}
		pf, err := forced.AbsorptionRun(46, rng(seed+99999))
		if err != nil {
			t.Fatal(err)
		}
		am.Add(float64(pm))
		af.Add(float64(pf))
	}
	if af.Mean() < am.Mean()-3*(am.CI95()+af.CI95()) {
		t.Errorf("forced (%v) significantly faster than mixed (%v)", af.Mean(), am.Mean())
	}
}

func TestMaliciousDecisionRun(t *testing.T) {
	c := newChain(40, 4, markov.Mixed)
	for seed := uint64(0); seed < 30; seed++ {
		phases, _, err := c.DecisionRun(18, rng(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if phases < 1 {
			t.Fatalf("phases %d", phases)
		}
	}
}

func TestStepOutcomeDecisionCountsBounded(t *testing.T) {
	c := newChain(20, 6, markov.FailStop)
	for state := 0; state <= 20; state += 4 {
		out, err := c.Step(state, rng(uint64(state)))
		if err != nil {
			t.Fatal(err)
		}
		if out.Decided0+out.Decided1 > c.N {
			t.Fatalf("state %d: more decisions than processes", state)
		}
		if out.Decided0 > 0 && out.Decided1 > 0 {
			t.Fatalf("state %d: both values decided in one phase: counts (%d,%d)",
				state, out.Decided0, out.Decided1)
		}
	}
}

// TestStepMatchesTransitionRow backs the package's claim that it samples
// exactly the Section 4 chain: at each point the histogram of Ones over
// 20,000 Steps from a fixed seed lies within total-variation distance 0.03
// of the exact row of the same state. The points include off-centre
// transient states, because Mixed and Forced rows are identical in the
// central band.
func TestStepMatchesTransitionRow(t *testing.T) {
	const steps, maxTV = 20000, 0.03
	for _, tc := range []struct {
		model       markov.Model
		n, k, state int
	}{
		{markov.FailStop, 30, 10, 15}, {markov.FailStop, 30, 10, 12}, {markov.FailStop, 31, 10, 14},
		{markov.Mixed, 30, 3, 11}, {markov.Mixed, 31, 5, 17}, {markov.Mixed, 40, 6, 22},
		{markov.Forced, 30, 3, 11}, {markov.Forced, 31, 5, 17}, {markov.Forced, 40, 6, 22},
	} {
		c := newChain(tc.n, tc.k, tc.model)
		counts := make([]int, c.Pop()+1)
		r := rng(1)
		for range steps {
			out, err := c.Step(tc.state, r)
			if err != nil {
				t.Fatal(err)
			}
			counts[out.Ones]++
		}
		tv := 0.0
		for j, p := range c.TransitionRow(tc.state) {
			tv += math.Abs(float64(counts[j])/steps - p)
		}
		if tv /= 2; tv > maxTV {
			t.Errorf("model %d n=%d k=%d state %d: total-variation distance %.4f from the exact row, want <= %.2f",
				tc.model, tc.n, tc.k, tc.state, tv, maxTV)
		}
	}
}
