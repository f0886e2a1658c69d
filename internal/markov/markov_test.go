package markov

import (
	"math"
	"testing"

	"resilient/internal/dist"
)

func TestWMonotoneInState(t *testing.T) {
	c := Chain{N: 60, K: 20, Model: FailStop}
	prev := -1.0
	for i := 0; i <= 60; i++ {
		w := c.W(i)
		if w < prev-1e-12 {
			t.Fatalf("w not monotone at i=%d: %v < %v", i, w, prev)
		}
		if w < 0 || w > 1 {
			t.Fatalf("w_%d = %v outside [0,1]", i, w)
		}
		prev = w
	}
	if c.W(0) != 0 {
		t.Errorf("w_0 = %v, want 0", c.W(0))
	}
	if c.W(60) != 1 {
		t.Errorf("w_n = %v, want 1", c.W(60))
	}
}

func TestTransitionRowsAreStochastic(t *testing.T) {
	c := Chain{N: 45, K: 15, Model: FailStop}
	for i := 0; i <= 45; i += 5 {
		row := c.TransitionRow(i)
		sum := 0.0
		for _, p := range row {
			if p < 0 {
				t.Fatalf("negative probability in row %d", i)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestExpectedAbsorptionShape(t *testing.T) {
	c := Chain{N: 60, K: 20, Model: FailStop}
	times, err := c.ExpectedAbsorption()
	if err != nil {
		t.Fatal(err)
	}
	// Absorbed states report zero; transient states are positive and the
	// slowest state sits near the balance point. (With n-k even the
	// tie-goes-to-zero rule skews the chain slightly toward 0, so exact
	// symmetry is not expected here; see the odd-draw test below.)
	slowest, slowestAt := 0.0, -1
	for i := 0; i <= 60; i++ {
		if c.Absorbed(i) && times[i] != 0 {
			t.Errorf("absorbed state %d has time %v", i, times[i])
		}
		if !c.Absorbed(i) {
			if times[i] <= 0 {
				t.Errorf("transient state %d has non-positive time %v", i, times[i])
			}
			if times[i] > slowest {
				slowest, slowestAt = times[i], i
			}
		}
	}
	if slowestAt < 28 || slowestAt > 32 {
		t.Errorf("slowest state %d (time %v) far from balance", slowestAt, slowest)
	}
}

func TestExpectedAbsorptionSymmetryOddDraw(t *testing.T) {
	// With n-k odd there are no majority ties and the chain is exactly
	// symmetric: E_i == E_{n-i}.
	c := Chain{N: 61, K: 20, Model: FailStop} // draw 41
	times, err := c.ExpectedAbsorption()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 61; i++ {
		if math.Abs(times[i]-times[61-i]) > 1e-6*(1+times[i]) {
			t.Errorf("asymmetry at %d: %v vs %v", i, times[i], times[61-i])
		}
	}
}

func TestExpectedFromBalancedBelowPaperBound(t *testing.T) {
	// The collapsed-chain bound (13) is an upper bound on the exact chain's
	// absorption time for the k = n/3 parametrization it was derived for.
	for _, n := range []int{30, 60, 90, 150} {
		c := Chain{N: n, K: n / 3, Model: FailStop}
		got, err := c.ExpectedFromBalanced()
		if err != nil {
			t.Fatal(err)
		}
		bound := CollapsedBound(n, DefaultL)
		if got > bound {
			t.Errorf("n=%d: exact %v exceeds the paper's bound %v", n, got, bound)
		}
		if got <= 0 {
			t.Errorf("n=%d: non-positive %v", n, got)
		}
	}
}

func TestCollapsedBoundBelowSeven(t *testing.T) {
	// The paper's headline: "the expected number of phases is less than 7"
	// for l^2 = 1.5, independent of n.
	for _, n := range []int{9, 30, 100, 1000, 100000, 10000000} {
		if b := CollapsedBound(n, DefaultL); b >= 7 {
			t.Errorf("n=%d: bound %v >= 7", n, b)
		}
	}
}

func TestCollapsedBoundMatchesMatrixForm(t *testing.T) {
	// Eq. (13) closed form == row sum of N = (I-Q)^-1 for the R matrix.
	for _, n := range []int{30, 300, 3000} {
		for _, l := range []float64{0.8, DefaultL, 2.0} {
			closed := CollapsedBound(n, l)
			viaMatrix, err := CollapsedBoundViaMatrix(n, l)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(closed-viaMatrix) > 1e-9*closed {
				t.Errorf("n=%d l=%v: closed %v vs matrix %v", n, l, closed, viaMatrix)
			}
		}
	}
}

func TestCollapsedRIsStochastic(t *testing.T) {
	r := CollapsedR(100, DefaultL)
	for i := 0; i < 3; i++ {
		if math.Abs(r.RowSum(i)-1) > 1e-9 {
			t.Errorf("row %d sums to %v", i, r.RowSum(i))
		}
	}
	if r.At(2, 2) != 1 {
		t.Error("absorbing state not absorbing")
	}
}

func TestMaliciousBoundValues(t *testing.T) {
	// 1/(2*Phi(l)) at l=0 is 1 (Phi(0)=1/2); increases with l.
	if b := MaliciousBound(0); math.Abs(b-1) > 1e-12 {
		t.Errorf("bound at l=0: %v", b)
	}
	if MaliciousBound(1) <= MaliciousBound(0.5) {
		t.Error("bound not increasing in l")
	}
	// l=1: 1/(2*0.1587) ~ 3.15.
	if b := MaliciousBound(1); math.Abs(b-3.1514) > 0.01 {
		t.Errorf("bound at l=1: %v", b)
	}
}

func TestLForKInvertsKForL(t *testing.T) {
	for _, n := range []int{25, 100, 400} {
		for _, l := range []float64{0.5, 1, 1.5, 2} {
			k := KForL(n, l)
			lBack := LForK(n, k)
			if lBack > l+1e-9 {
				t.Errorf("n=%d l=%v: k=%d gives l=%v > l", n, l, k, lBack)
			}
		}
	}
}

func TestMaliciousChainAbsorption(t *testing.T) {
	for _, forced := range []bool{false, true} {
		c := Chain{N: 100, K: 5, Model: Adversary(forced)}
		times, err := c.ExpectedAbsorption()
		if err != nil {
			t.Fatal(err)
		}
		balanced := times[c.Balanced()]
		if balanced <= 0 {
			t.Fatalf("forced=%v: non-positive balanced time %v", forced, balanced)
		}
		// Section 4.2's scale: the bound 1/(2*Phi(l)) with l = LForK. The
		// exact chain differs from the collapsed one, but must be within a
		// moderate multiple.
		bound := MaliciousBound(LForK(100, 5))
		if balanced > 25*bound {
			t.Errorf("forced=%v: exact %v far beyond paper scale %v", forced, balanced, bound)
		}
	}
}

func TestMaliciousWRespondsToAdversary(t *testing.T) {
	// Below balance the adversary injects ones; at the same correct count
	// the forced model must give a (weakly) higher majority-1 probability
	// than no adversary at all would.
	c := Chain{N: 100, K: 10, Model: Forced}
	noAdv := Chain{N: 100, K: 10, Model: FailStop}
	i := 30 // below balance (correct = 90, balance = 45)
	if c.W(i) < noAdv.W(i)-1e-12 {
		t.Errorf("adversary failed to help the minority: %v < %v", c.W(i), noAdv.W(i))
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	if (Chain{N: 0, K: 0, Model: FailStop}).Validate() == nil {
		t.Error("n=0 accepted")
	}
	if (Chain{N: 10, K: 5, Model: Mixed}).Validate() == nil {
		t.Error("2k=n accepted")
	}
	if (Chain{N: 10, K: 2}).Validate() == nil {
		t.Error("missing model accepted")
	}
	for _, m := range []Model{Mixed, Forced} {
		// n >= 2k+1 but not n > 3k: the upper absorbing region is empty.
		if (Chain{N: 90, K: 30, Model: m}).Validate() == nil {
			t.Errorf("model %d: n=90 k=30 accepted", m)
		}
		if err := (Chain{N: 91, K: 30, Model: m}).Validate(); err != nil {
			t.Errorf("model %d: n=91 k=30 rejected: %v", m, err)
		}
	}
	if _, err := (Chain{N: 0, K: 0, Model: FailStop}).ExpectedAbsorption(); err == nil {
		t.Error("invalid chain solved")
	}
}

// TestExpectedAbsorptionNeverNonPositive pins that an absorption time is
// an answer or an error: at n = 90, k = 29 chain M's I-Q is so near
// singular that the solve's rounding swamps E[T] (it came out -4.1e13), and
// a transient state can never take less than a phase to leave.
func TestExpectedAbsorptionNeverNonPositive(t *testing.T) {
	c := Chain{N: 90, K: 29, Model: Forced}
	times, err := c.ExpectedAbsorption()
	if err != nil {
		return
	}
	for i, tm := range times {
		if !c.Absorbed(i) && !(tm > 0) {
			t.Fatalf("E[T] from transient state %d is %g", i, tm)
		}
	}
}

func TestPhiConsistencyWithDist(t *testing.T) {
	// The bound formulas use dist.Phi; sanity-check the l^2 = 1.5 value
	// that produces the "< 7" claim: Phi(sqrt(1.5)) ~ 0.1103.
	if p := dist.Phi(DefaultL); math.Abs(p-0.1103) > 0.0005 {
		t.Errorf("Phi(sqrt(1.5)) = %v", p)
	}
}

func TestBalancingAdversaryOnesIsOptimal(t *testing.T) {
	// The chosen split's majority probability must be at least as close to
	// 1/2 as any other split's, at every state.
	n, k := 100, 6
	for _, forced := range []bool{false, true} {
		for ones := 0; ones <= n-k; ones++ {
			a := BalancingAdversaryOnes(n, k, ones, forced)
			if a < 0 || a > k {
				t.Fatalf("forced=%v ones=%d: advOnes %d outside [0,%d]", forced, ones, a, k)
			}
			chosen := math.Abs(viewMajorityProb(n, k, ones, a, forced) - 0.5)
			for alt := 0; alt <= k; alt++ {
				d := math.Abs(viewMajorityProb(n, k, ones, alt, forced) - 0.5)
				if d < chosen-1e-12 {
					t.Fatalf("forced=%v ones=%d: advOnes %d (dist %v) beaten by %d (dist %v)",
						forced, ones, a, chosen, alt, d)
				}
			}
		}
	}
}

func TestBalancingMixPinsHalf(t *testing.T) {
	// Wherever the k votes bracket 1/2, the randomized mix must pin the
	// majority probability to exactly 1/2 -- the paper's pinned rows
	// P_{n/2}. At the balanced state this must always be achievable.
	n, k := 100, 6
	for _, forced := range []bool{false, true} {
		balanced := (n - k) / 2
		w := MixedW(n, k, balanced, forced)
		if math.Abs(w-0.5) > 1e-9 {
			t.Errorf("forced=%v: MixedW(balanced) = %v, want 0.5", forced, w)
		}
		// The mix never leaves [0, k] and never makes things worse than the
		// best deterministic split.
		for ones := 0; ones <= n-k; ones++ {
			lo, pHi := BalancingMix(n, k, ones, forced)
			if lo < 0 || lo > k || pHi < 0 || pHi >= 1 {
				t.Fatalf("forced=%v ones=%d: mix (%d, %v) out of range", forced, ones, lo, pHi)
			}
			mixDist := math.Abs(MixedW(n, k, ones, forced) - 0.5)
			a := BalancingAdversaryOnes(n, k, ones, forced)
			detDist := math.Abs(viewMajorityProb(n, k, ones, a, forced) - 0.5)
			if mixDist > detDist+1e-12 {
				t.Fatalf("forced=%v ones=%d: mix dist %v worse than deterministic %v",
					forced, ones, mixDist, detDist)
			}
		}
	}
}

func TestMaliciousBalancedStateNearHalf(t *testing.T) {
	// With the vote-splitting adversary, the view-majority probability at
	// the balanced state must sit near 1/2 -- the chain's slow centre.
	for _, forced := range []bool{false, true} {
		c := Chain{N: 100, K: 6, Model: Adversary(forced)}
		w := c.W(c.Balanced())
		if w < 0.3 || w > 0.7 {
			t.Errorf("forced=%v: w(balanced) = %v, want near 0.5", forced, w)
		}
	}
}

func TestMaliciousBoundDominatesExact(t *testing.T) {
	// The paper's collapsed-model bound 1/(2*Phi(l)) is constructed to be
	// an overestimate ("we can decrease probabilities of transition to AE
	// ... the resulting matrix will describe a Markov chain with slower
	// convergence rate"); the exact chain must not exceed it for the
	// k = l*sqrt(n)/2 parametrization.
	n := 100
	for _, l := range []float64{1.0, 1.5, 2.0} {
		k := KForL(n, l)
		exact, err := (Chain{N: n, K: k, Model: Forced}).ExpectedFromBalanced()
		if err != nil {
			t.Fatal(err)
		}
		bound := MaliciousBound(LForK(n, k))
		if exact > bound {
			t.Errorf("l=%v k=%d: exact %v exceeds bound %v", l, k, exact, bound)
		}
	}
}

func TestTailDistribution(t *testing.T) {
	c := Chain{N: 60, K: 20, Model: FailStop}
	tail, err := c.TailFromBalanced(40)
	if err != nil {
		t.Fatal(err)
	}
	// P[T > 0] = 1 from a transient start; nonincreasing; expectation
	// recovered as the sum of the tail must match the fundamental-matrix
	// solution.
	if tail[0] != 1 {
		t.Fatalf("P[T>0] = %v", tail[0])
	}
	sum := 0.0
	for i, p := range tail {
		if p < 0 || p > 1 {
			t.Fatalf("tail[%d] = %v", i, p)
		}
		if i > 0 && p > tail[i-1]+1e-12 {
			t.Fatalf("tail increased at %d", i)
		}
		sum += p
	}
	exact, err := c.ExpectedFromBalanced()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum-exact) > 0.01 {
		t.Errorf("sum of tail %v vs exact expectation %v", sum, exact)
	}
	// Starting absorbed: all-zero tail.
	zeroTail, err := c.tail(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range zeroTail {
		if p != 0 {
			t.Fatal("absorbed start has nonzero tail")
		}
	}
}

func TestMaliciousTailDistribution(t *testing.T) {
	c := Chain{N: 100, K: 5, Model: Forced}
	tail, err := c.TailFromBalanced(60)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range tail {
		sum += p
	}
	exact, err := c.ExpectedFromBalanced()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum-exact) > 0.05 {
		t.Errorf("tail sum %v vs exact %v", sum, exact)
	}
}

func TestFiveStateMCollapsesToR(t *testing.T) {
	// The paper builds a 5-state chain over the groups A-E, then collapses
	// the symmetric pairs into the 3-state R of eq. (11). The two
	// constructions must coincide.
	for _, n := range []int{30, 300} {
		for _, l := range []float64{1.0, DefaultL} {
			m := FiveStateM(n, l)
			for i := 0; i < 5; i++ {
				if math.Abs(m.RowSum(i)-1) > 1e-9 {
					t.Fatalf("n=%d l=%v: 5-state row %d sums to %v", n, l, i, m.RowSum(i))
				}
			}
			r, err := CollapseFiveToR(m)
			if err != nil {
				t.Fatal(err)
			}
			want := CollapsedR(n, l)
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					if math.Abs(r.At(i, j)-want.At(i, j)) > 1e-12 {
						t.Fatalf("n=%d l=%v: collapsed (%d,%d) = %v, want %v",
							n, l, i, j, r.At(i, j), want.At(i, j))
					}
				}
			}
		}
	}
}

// TestAbsorptionSolveBackwardStable answers whether the forced chain M's
// exact E[T] exceeding the paper's 1/(2Φ(l)) at n = 90 from k = 24 is the
// chain or a bad solve: the solved times t satisfy (I-Q)t = 1 to a relative
// residual ||(I-Q)t - 1||∞ / ||t||∞ near machine precision (about 1e-15)
// under both adversary models, at the first k past the bound (24) and one
// further out (26). The excess is the chain's.
func TestAbsorptionSolveBackwardStable(t *testing.T) {
	for _, m := range []Model{Mixed, Forced} {
		for _, k := range []int{24, 26} {
			c := Chain{N: 90, K: k, Model: m}
			times, err := c.ExpectedAbsorption()
			if err != nil {
				t.Fatalf("model %d k=%d: %v", m, k, err)
			}
			b := c.transient()
			resid, norm := 0.0, 0.0
			for ti, i := range b.states {
				r := times[i] - 1
				for tj, j := range b.states {
					r -= b.q.At(ti, tj) * times[j]
				}
				resid = max(resid, math.Abs(r))
				norm = max(norm, times[i])
			}
			if rel := resid / norm; !(rel <= 1e-12) {
				t.Errorf("model %d k=%d: relative residual %.3g (||t|| = %.3g), want <= 1e-12", m, k, rel, norm)
			}
		}
	}
}
