package dist

import (
	"math/rand/v2"
	"sort"
)

// HGSampler draws hypergeometric variates by inverse-CDF lookup over a
// precomputed table. Building the table costs O(draw); each sample costs
// O(log draw). The phase-level Monte Carlo engine builds one sampler per
// (population, success) pair per phase and draws once per process.
type HGSampler struct {
	min  int       // smallest attainable value
	cdf  []float64 // cdf[i] = P[X <= min+i]
	mass float64   // total mass (1 up to rounding)
}

// NewHGSampler returns a sampler for the given distribution. It panics only
// on invalid parameters, which indicate a programming error in the caller.
func NewHGSampler(h Hypergeometric) (*HGSampler, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	min := h.Draw - (h.Pop - h.Success)
	if min < 0 {
		min = 0
	}
	max := h.Draw
	if h.Success < max {
		max = h.Success
	}
	s := &HGSampler{min: min}
	// Compute the pmf recursively from the mode outward to stay stable:
	// simple forward recursion from the minimum works well here because the
	// supports are small (<= draw) and we normalize at the end.
	//
	//   P(x+1)/P(x) = (Success-x)(Draw-x) / ((x+1)(Pop-Success-Draw+x+1))
	p := h.PMF(min) // log-space base value keeps the start accurate
	cdf := make([]float64, max-min+1)
	acc := 0.0
	x := min
	for i := range cdf {
		acc += p
		cdf[i] = acc
		num := float64(h.Success-x) * float64(h.Draw-x)
		den := float64(x+1) * float64(h.Pop-h.Success-h.Draw+x+1)
		if den > 0 {
			p *= num / den
		} else {
			p = 0
		}
		x++
	}
	s.cdf = cdf
	s.mass = acc
	return s, nil
}

// Sample draws one variate.
func (s *HGSampler) Sample(rng *rand.Rand) int {
	u := rng.Float64() * s.mass
	i := sort.SearchFloat64s(s.cdf, u)
	if i >= len(s.cdf) {
		i = len(s.cdf) - 1
	}
	return s.min + i
}
