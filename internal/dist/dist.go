// Package dist implements the probability distributions used by the Section 4
// performance analysis of the paper: the hypergeometric distribution (for the
// number of 1-valued messages in a random (n-k)-view, eq. (3)-(5)), the
// binomial distribution (for the per-phase state transition, eq. (1)), the
// normal tail function Phi (eq. (2)), and the Chebyshev bound (eq. (6)).
//
// All probability mass computations are done in log space via math.Lgamma so
// they remain accurate for populations in the thousands.
package dist

import (
	"fmt"
	"math"
)

// LogChoose returns log(C(n, r)) for 0 <= r <= n, and negative infinity for
// out-of-range r (C(n, r) = 0 there).
func LogChoose(n, r int) float64 {
	if r < 0 || r > n {
		return math.Inf(-1)
	}
	if r == 0 || r == n {
		return 0
	}
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(r + 1))
	c, _ := math.Lgamma(float64(n - r + 1))
	return a - b - c
}

// Hypergeometric is the distribution of the number of "special" items in a
// uniform random sample of size Draw from a population of size Pop containing
// Success special items. It is exactly X_(n,b,r) from Section 4.1 eq. (3):
// the number of 1-valued messages among the n-k messages a process receives
// when i of the n processes currently hold value 1.
type Hypergeometric struct {
	Pop     int // population size n
	Success int // number of special items b
	Draw    int // sample size r
}

// Validate reports whether the parameters define a proper distribution.
func (h Hypergeometric) Validate() error {
	if h.Pop < 0 || h.Success < 0 || h.Draw < 0 {
		//lint:allow hotalloc error construction on the invalid-parameter path only
		return fmt.Errorf("dist: negative hypergeometric parameter %+v", h)
	}
	if h.Success > h.Pop {
		//lint:allow hotalloc error construction on the invalid-parameter path only
		return fmt.Errorf("dist: success count %d exceeds population %d", h.Success, h.Pop)
	}
	if h.Draw > h.Pop {
		//lint:allow hotalloc error construction on the invalid-parameter path only
		return fmt.Errorf("dist: draw %d exceeds population %d", h.Draw, h.Pop)
	}
	return nil
}

// LogPMF returns log P[X = x].
func (h Hypergeometric) LogPMF(x int) float64 {
	if x < 0 || x > h.Draw || x > h.Success || h.Draw-x > h.Pop-h.Success {
		return math.Inf(-1)
	}
	return LogChoose(h.Success, x) +
		LogChoose(h.Pop-h.Success, h.Draw-x) -
		LogChoose(h.Pop, h.Draw)
}

// PMF returns P[X = x].
func (h Hypergeometric) PMF(x int) float64 {
	return math.Exp(h.LogPMF(x))
}

// TailAbove returns P[X > x].
func (h Hypergeometric) TailAbove(x int) float64 {
	lo := x + 1
	if lo < 0 {
		lo = 0
	}
	sum := 0.0
	for v := lo; v <= h.Draw; v++ {
		sum += h.PMF(v)
	}
	return clampProb(sum)
}

// CDF returns P[X <= x].
func (h Hypergeometric) CDF(x int) float64 {
	if x < 0 {
		return 0
	}
	sum := 0.0
	for v := 0; v <= x && v <= h.Draw; v++ {
		sum += h.PMF(v)
	}
	return clampProb(sum)
}

// Mean returns E[X] = Draw*Success/Pop (eq. (4)).
func (h Hypergeometric) Mean() float64 {
	if h.Pop == 0 {
		return 0
	}
	return float64(h.Draw) * float64(h.Success) / float64(h.Pop)
}

// Variance returns Var[X] = r*b*(n-b)*(n-r) / (n^2 * (n-1)) (eq. (5)).
func (h Hypergeometric) Variance() float64 {
	n := float64(h.Pop)
	if h.Pop <= 1 {
		return 0
	}
	b := float64(h.Success)
	r := float64(h.Draw)
	return r * b * (n - b) * (n - r) / (n * n * (n - 1))
}

// ChebyshevTail returns the Chebyshev bound P[|X - E[X]| > t] <= Var[X]/t^2
// (eq. (6)), clamped to [0, 1].
func (h Hypergeometric) ChebyshevTail(t float64) float64 {
	if t <= 0 {
		return 1
	}
	return clampProb(h.Variance() / (t * t))
}

// Binomial is the distribution of the sum of N independent Bernoulli(P)
// trials -- the per-phase count of processes adopting value 1 in eq. (1) of
// Section 4.1.
type Binomial struct {
	N int
	P float64
}

// LogPMF returns log P[X = x].
func (b Binomial) LogPMF(x int) float64 {
	if x < 0 || x > b.N {
		return math.Inf(-1)
	}
	switch {
	case b.P == 0:
		if x == 0 {
			return 0
		}
		return math.Inf(-1)
	case b.P == 1:
		if x == b.N {
			return 0
		}
		return math.Inf(-1)
	}
	return LogChoose(b.N, x) +
		float64(x)*math.Log(b.P) +
		float64(b.N-x)*math.Log1p(-b.P)
}

// PMF returns P[X = x].
func (b Binomial) PMF(x int) float64 {
	return math.Exp(b.LogPMF(x))
}

// Phi is the upper tail of the standard normal distribution used throughout
// Section 4:
//
//	Phi(x) = (1 / sqrt(2*pi)) * Integral_x^inf exp(-t^2/2) dt.
//
// (The paper's eq. (2) writes the normalization as 1/(2*pi); the standard
// normal constant 1/sqrt(2*pi) is the one that makes Phi(0) = 1/2, which the
// paper itself uses in eq. (10), so that is what we implement.)
func Phi(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// NormalTailApprox approximates P[X >= j] for a Binomial(n, p) variable X by
// the normal tail Phi((j - n*p) / sqrt(n*p*(1-p))) exactly as in eq. (2).
func NormalTailApprox(n int, p float64, j float64) float64 {
	sd := math.Sqrt(float64(n) * p * (1 - p))
	if sd == 0 {
		if j <= float64(n)*p {
			return 1
		}
		return 0
	}
	return Phi((j - float64(n)*p) / sd)
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
