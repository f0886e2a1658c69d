package dist

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestChooseSmallValues(t *testing.T) {
	cases := []struct {
		n, r int
		want float64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 1, 5}, {5, 2, 10},
		{10, 3, 120}, {20, 10, 184756}, {5, 6, 0}, {5, -1, 0},
	}
	for _, c := range cases {
		if got := math.Exp(LogChoose(c.n, c.r)); !almostEqual(got, c.want, 1e-6*math.Max(1, c.want)) {
			t.Errorf("exp LogChoose(%d,%d) = %v, want %v", c.n, c.r, got, c.want)
		}
	}
}

func TestChoosePascalProperty(t *testing.T) {
	// C(n, r) = C(n-1, r-1) + C(n-1, r) in log space, for moderate sizes.
	for n := 2; n <= 60; n += 3 {
		for r := 1; r < n; r += 2 {
			lhs := math.Exp(LogChoose(n, r))
			rhs := math.Exp(LogChoose(n-1, r-1)) + math.Exp(LogChoose(n-1, r))
			if !almostEqual(lhs, rhs, 1e-9*rhs) {
				t.Fatalf("Pascal violated at (%d,%d): %v vs %v", n, r, lhs, rhs)
			}
		}
	}
}

func TestHypergeometricPMFSumsToOne(t *testing.T) {
	cases := []Hypergeometric{
		{Pop: 10, Success: 4, Draw: 3},
		{Pop: 30, Success: 10, Draw: 20},
		{Pop: 100, Success: 50, Draw: 66},
		{Pop: 999, Success: 500, Draw: 666},
	}
	for _, h := range cases {
		sum := 0.0
		for x := 0; x <= h.Draw; x++ {
			sum += h.PMF(x)
		}
		if !almostEqual(sum, 1, 1e-9) {
			t.Errorf("%+v: pmf sums to %v", h, sum)
		}
	}
}

func TestHypergeometricMeanVariance(t *testing.T) {
	h := Hypergeometric{Pop: 60, Success: 24, Draw: 40}
	var mean, m2 float64
	for x := 0; x <= h.Draw; x++ {
		mean += float64(x) * h.PMF(x)
	}
	for x := 0; x <= h.Draw; x++ {
		d := float64(x) - mean
		m2 += d * d * h.PMF(x)
	}
	if !almostEqual(mean, h.Mean(), 1e-9) {
		t.Errorf("mean: empirical %v vs formula %v", mean, h.Mean())
	}
	if !almostEqual(m2, h.Variance(), 1e-9) {
		t.Errorf("variance: empirical %v vs formula %v", m2, h.Variance())
	}
}

func TestHypergeometricSymmetry(t *testing.T) {
	// P[X = x | b successes] = P[X = draw-x | pop-b successes].
	h1 := Hypergeometric{Pop: 50, Success: 20, Draw: 30}
	h2 := Hypergeometric{Pop: 50, Success: 30, Draw: 30}
	for x := 0; x <= 30; x++ {
		if !almostEqual(h1.PMF(x), h2.PMF(30-x), 1e-12) {
			t.Fatalf("symmetry violated at x=%d", x)
		}
	}
}

func TestHypergeometricTailIdentities(t *testing.T) {
	h := Hypergeometric{Pop: 40, Success: 15, Draw: 25}
	for x := -1; x <= 26; x++ {
		if !almostEqual(h.CDF(x)+h.TailAbove(x), 1, 1e-9) {
			t.Fatalf("CDF + Tail != 1 at x=%d", x)
		}
	}
}

func TestHypergeometricValidate(t *testing.T) {
	bad := []Hypergeometric{
		{Pop: -1, Success: 0, Draw: 0},
		{Pop: 5, Success: 6, Draw: 2},
		{Pop: 5, Success: 2, Draw: 6},
	}
	for _, h := range bad {
		if h.Validate() == nil {
			t.Errorf("%+v should be invalid", h)
		}
	}
	if (Hypergeometric{Pop: 5, Success: 2, Draw: 3}).Validate() != nil {
		t.Error("valid distribution rejected")
	}
}

func TestChebyshevMatchesPaperEq7(t *testing.T) {
	// Eq. (7): w_{n/2 - l*sqrt(n)/2 - 1} < 1/(2 l^2); with l^2 = 1.5 the
	// bound is 1/3. Verify the actual tail is below the Chebyshev bound.
	n := 900
	l := math.Sqrt(1.5)
	b := n/2 - int(l*math.Sqrt(float64(n))/2) - 1
	h := Hypergeometric{Pop: n, Success: b, Draw: 2 * n / 3}
	tail := h.TailAbove(n / 3) // P[X > n/3] = w_b with k = n/3
	if tail >= 1.0/3.0 {
		t.Errorf("tail %v >= 1/3, violating eq. (7)", tail)
	}
	cheb := h.ChebyshevTail(float64(n)/3 - h.Mean())
	if tail > cheb+1e-12 {
		t.Errorf("tail %v exceeds its Chebyshev bound %v", tail, cheb)
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, b := range []Binomial{{N: 10, P: 0.3}, {N: 100, P: 0.5}, {N: 57, P: 0.99}, {N: 8, P: 0}, {N: 8, P: 1}} {
		sum := 0.0
		for x := 0; x <= b.N; x++ {
			sum += b.PMF(x)
		}
		if !almostEqual(sum, 1, 1e-9) {
			t.Errorf("%+v: pmf sums to %v", b, sum)
		}
	}
}

func TestBinomialMoments(t *testing.T) {
	b := Binomial{N: 40, P: 0.37}
	var mean float64
	for x := 0; x <= b.N; x++ {
		mean += float64(x) * b.PMF(x)
	}
	if want := float64(b.N) * b.P; !almostEqual(mean, want, 1e-9) {
		t.Errorf("mean %v vs %v", mean, want)
	}
}

func TestPhiKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.15865525393145707},
		{1.2247448713915890, 0.11033568082387628}, // l = sqrt(1.5)
		{2, 0.022750131948179195},
		{-1, 0.8413447460685429},
	}
	for _, c := range cases {
		if got := Phi(c.x); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Phi(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestPhiComplementarity(t *testing.T) {
	f := func(x float64) bool {
		x = math.Mod(x, 10)
		return almostEqual(Phi(x)+Phi(-x), 1, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalTailApproxMatchesBinomialRoughly(t *testing.T) {
	// Eq. (2)'s approximation should be within a few percent of the exact
	// binomial tail around one standard deviation.
	n, p := 400, 0.5
	b := Binomial{N: n, P: p}
	j := float64(n)*p + math.Sqrt(float64(n)*p*(1-p)) // mean + 1 sd
	exact := 0.0                                      // P[X >= j]
	for x := int(j); x <= n; x++ {
		exact += b.PMF(x)
	}
	approx := NormalTailApprox(n, p, j)
	if math.Abs(exact-approx) > 0.03 {
		t.Errorf("normal approx %v vs exact %v", approx, exact)
	}
}

func TestHGSamplerMatchesDistribution(t *testing.T) {
	h := Hypergeometric{Pop: 60, Success: 25, Draw: 40}
	s, err := NewHGSampler(h)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	const trials = 200000
	counts := make(map[int]int)
	for i := 0; i < trials; i++ {
		x := s.Sample(rng)
		if h.PMF(x) == 0 {
			t.Fatalf("sample %d outside the support", x)
		}
		counts[x]++
	}
	var mean float64
	for x, c := range counts {
		mean += float64(x) * float64(c)
	}
	mean /= trials
	if math.Abs(mean-h.Mean()) > 0.05 {
		t.Errorf("sample mean %v vs %v", mean, h.Mean())
	}
	// Spot-check a central probability.
	mode := int(h.Mean())
	want := h.PMF(mode)
	got := float64(counts[mode]) / trials
	if math.Abs(got-want) > 0.01 {
		t.Errorf("P[%d]: sampled %v vs exact %v", mode, got, want)
	}
}

func TestHGSamplerSupportBounds(t *testing.T) {
	// Draw > Pop - Success forces a minimum above zero.
	h := Hypergeometric{Pop: 10, Success: 7, Draw: 8}
	s, err := NewHGSampler(h)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		x := s.Sample(rng)
		if x < 5 || x > 7 { // support is 8-(10-7) .. 7
			t.Fatalf("sample %d outside support", x)
		}
		seen[x] = true
	}
	if len(seen) != 3 {
		t.Errorf("samples cover %v, want all of 5..7", seen)
	}
}

func TestHGSamplerRejectsInvalid(t *testing.T) {
	if _, err := NewHGSampler(Hypergeometric{Pop: 5, Success: 9, Draw: 2}); err == nil {
		t.Error("invalid parameters accepted")
	}
}
