package markov

import "fmt"

// TailFromBalanced returns P[T > t] for t = 0..maxSteps, where T is the
// number of phases to absorption from the balanced state.
func (c Chain) TailFromBalanced(maxSteps int) ([]float64, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c.tail(c.Balanced(), maxSteps)
}

// tail computes P[T > t] for t = 0..maxSteps, where T is the number of
// phases to absorption starting from state start: the full distribution
// behind the expectations of Section 4, obtained by iterating the transient
// submatrix (P[T > t] = e_start Q^t 1).
func (c Chain) tail(start, maxSteps int) ([]float64, error) {
	if maxSteps < 0 {
		return nil, fmt.Errorf("markov: negative maxSteps %d", maxSteps)
	}
	tail := make([]float64, maxSteps+1)
	if c.Absorbed(start) {
		// Starting absorbed: T = 0, so P[T > t] = 0 for all t.
		return tail, nil
	}
	b := c.transient()
	// prob[i] = P[in transient state i at step t], starting at start.
	prob := make([]float64, len(b.states))
	prob[b.index[start]] = 1
	for t := 0; t <= maxSteps; t++ {
		sum := 0.0
		for _, p := range prob {
			sum += p
		}
		tail[t] = min(sum, 1)
		if t == maxSteps {
			break
		}
		next := make([]float64, len(b.states))
		for i, p := range prob {
			if p == 0 {
				continue
			}
			for j := range next {
				next[j] += p * b.q.At(i, j)
			}
		}
		prob = next
	}
	return tail, nil
}
