package dist

import "math/rand/v2"

// IndexSampler draws fixed-size uniform samples without replacement from the
// index set {0, …, n−1} via a partial Fisher–Yates shuffle over a reusable
// identity pool. Setup costs O(n) once; every Draw costs O(k) — the k swaps
// performed by the partial shuffle are recorded and undone in reverse, so
// the pool is the identity permutation again when Draw returns. That makes
// building n per-receiver samples O(n·k) instead of the O(n²) a rebuild-per-
// draw approach would cost, which is what keeps sample-directory
// construction feasible at n=10,000.
//
// Draws are stable: the sequence of indices returned is a pure function of
// the rng stream (exactly k IntN variates per Draw, one per element), so two
// runs seeded identically produce identical samples regardless of how many
// samplers exist or how Draw calls interleave across samplers.
type IndexSampler struct {
	pool  []int32
	swaps []int32
}

// NewIndexSampler returns a sampler over {0, …, n−1}. n must be positive.
func NewIndexSampler(n int) *IndexSampler {
	if n <= 0 {
		panic("dist: IndexSampler population must be positive")
	}
	s := &IndexSampler{pool: make([]int32, n)}
	for i := range s.pool {
		s.pool[i] = int32(i)
	}
	return s
}

// Draw appends k distinct indices, sampled uniformly without replacement,
// to dst and returns the extended slice. k is clamped to the population
// size. The returned indices are in shuffle order (uniformly random order),
// not sorted.
func (s *IndexSampler) Draw(rng *rand.Rand, k int, dst []int32) []int32 {
	n := len(s.pool)
	if k > n {
		k = n
	}
	if cap(s.swaps) < k {
		s.swaps = make([]int32, k)
	}
	swaps := s.swaps[:k]
	for i := 0; i < k; i++ {
		j := i + int(rng.IntN(n-i))
		s.pool[i], s.pool[j] = s.pool[j], s.pool[i]
		swaps[i] = int32(j)
		dst = append(dst, s.pool[i])
	}
	// Undo the swaps in reverse order: the pool is the identity permutation
	// again, so the next Draw sees a pristine pool without an O(n) reset.
	for i := k - 1; i >= 0; i-- {
		j := swaps[i]
		s.pool[i], s.pool[j] = s.pool[j], s.pool[i]
	}
	return dst
}
