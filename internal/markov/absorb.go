package markov

import (
	"fmt"

	"resilient/internal/matrix"
	"resilient/internal/quorum"
)

// AbsorptionSplit computes, for every transient state, the probability that
// the chain is absorbed in the *high* region (all-ones side) rather than
// the low one, via B = N * R with N the fundamental matrix and R the
// transient-to-absorbing block. Absorbed states report 0 or 1 according to
// their side. This quantifies the paper's closing remark that "the
// consensus value is still likely to be equal to the majority of the
// initial input values".
func (c Chain) AbsorptionSplit() ([]float64, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	high := func(i int) bool { return quorum.ExceedsHalfNPlusK(i, c.N, c.K) }
	out := make([]float64, c.Pop()+1)
	for i := range out {
		if c.Absorbed(i) && high(i) {
			out[i] = 1
		}
	}
	b := c.transient()
	if len(b.states) == 0 {
		return out, nil
	}
	rHigh := matrix.New(len(b.states), 1) // P(one-step absorption into high)
	for ti, r := range b.rows {
		for j, p := range r {
			if _, ok := b.index[j]; ok || p == 0 || !high(j) {
				continue
			}
			rHigh.Set(ti, 0, rHigh.At(ti, 0)+p)
		}
	}
	n, err := matrix.Fundamental(b.q)
	if err != nil {
		return nil, fmt.Errorf("markov: absorption split: %w", err)
	}
	split, err := n.Mul(rHigh)
	if err != nil {
		return nil, err
	}
	for ti, i := range b.states {
		out[i] = min(max(split.At(ti, 0), 0), 1)
	}
	return out, nil
}
