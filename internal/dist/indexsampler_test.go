package dist

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestIndexSamplerBasic(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	s := NewIndexSampler(50)
	for trial := 0; trial < 200; trial++ {
		k := 1 + trial%50
		got := s.Draw(rng, k, nil)
		if len(got) != k {
			t.Fatalf("trial %d: drew %d indices, want %d", trial, len(got), k)
		}
		seen := make(map[int32]bool, k)
		for _, v := range got {
			if v < 0 || v >= 50 {
				t.Fatalf("trial %d: index %d out of range", trial, v)
			}
			if seen[v] {
				t.Fatalf("trial %d: duplicate index %d", trial, v)
			}
			seen[v] = true
		}
	}
}

func TestIndexSamplerKClampedToPopulation(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	s := NewIndexSampler(7)
	got := s.Draw(rng, 99, nil)
	if len(got) != 7 {
		t.Fatalf("clamped draw returned %d indices, want 7", len(got))
	}
	seen := make(map[int32]bool)
	for _, v := range got {
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("clamped draw is not a permutation: %v", got)
	}
}

// TestIndexSamplerPoolRestored verifies the swap-undo: after any draw the
// pool must be the identity permutation again, so a full-population draw
// from a fresh rng always equals a full-population draw from a fresh
// sampler with the same rng.
func TestIndexSamplerPoolRestored(t *testing.T) {
	s := NewIndexSampler(40)
	// Dirty the sampler with draws of assorted sizes.
	dirty := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 64; i++ {
		s.Draw(dirty, 1+i%40, nil)
	}
	a := s.Draw(rand.New(rand.NewPCG(7, 8)), 40, nil)
	b := NewIndexSampler(40).Draw(rand.New(rand.NewPCG(7, 8)), 40, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pool not restored: used sampler drew %v, fresh sampler drew %v", a, b)
		}
	}
}

// TestIndexSamplerDrawStable pins draw stability: a draw consumes exactly k
// IntN variates, so identically seeded streams yield identical samples
// regardless of sampler reuse, prior draws, or dst reuse.
func TestIndexSamplerDrawStable(t *testing.T) {
	s1 := NewIndexSampler(100)
	s2 := NewIndexSampler(100)
	r1 := rand.New(rand.NewPCG(42, 0))
	r2 := rand.New(rand.NewPCG(42, 0))
	buf := make([]int32, 0, 16)
	// s2 does interleaved unrelated draws from a separate stream; the draws
	// from the shared-seed streams must still agree element-wise.
	noise := rand.New(rand.NewPCG(9, 9))
	for trial := 0; trial < 50; trial++ {
		a := s1.Draw(r1, 16, nil)
		s2.Draw(noise, 5, buf[:0])
		b := s2.Draw(r2, 16, buf[:0])
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: draws diverged at %d: %v vs %v", trial, i, a, b)
			}
		}
	}
}

// TestIndexSamplerHypergeometricPMF is the property test against the
// analytic pmf in dist.go: fix a marked subset {0..Success-1} of the
// population, draw many samples, and compare the empirical distribution of
// |sample ∩ marked| to Hypergeometric.PMF. Uniform without-replacement
// sampling is exactly the hypergeometric experiment, so every support point
// must match within Monte-Carlo noise.
func TestIndexSamplerHypergeometricPMF(t *testing.T) {
	cases := []struct {
		pop, success, draw int
	}{
		{30, 12, 10},
		{100, 33, 20},
		{64, 5, 16},
	}
	const trials = 200_000
	for _, c := range cases {
		h := Hypergeometric{Pop: c.pop, Success: c.success, Draw: c.draw}
		if err := h.Validate(); err != nil {
			t.Fatalf("bad case %+v: %v", c, err)
		}
		rng := rand.New(rand.NewPCG(uint64(c.pop), uint64(c.draw)))
		s := NewIndexSampler(c.pop)
		counts := make([]int, c.draw+1)
		buf := make([]int32, 0, c.draw)
		for i := 0; i < trials; i++ {
			buf = s.Draw(rng, c.draw, buf[:0])
			overlap := 0
			for _, v := range buf {
				if int(v) < c.success {
					overlap++
				}
			}
			counts[overlap]++
		}
		for x := 0; x <= c.draw; x++ {
			want := h.PMF(x)
			got := float64(counts[x]) / trials
			// 5-sigma binomial noise band plus an absolute floor for the
			// far tails where a handful of hits is expected.
			sigma := math.Sqrt(want * (1 - want) / trials)
			tol := 5*sigma + 5e-5
			if math.Abs(got-want) > tol {
				t.Errorf("case %+v: P[overlap=%d] = %.6f, want %.6f (tol %.6f)",
					c, x, got, want, tol)
			}
		}
		// Mean check as a summary statistic.
		sum := 0.0
		for x, n := range counts {
			sum += float64(x) * float64(n)
		}
		gotMean := sum / trials
		if math.Abs(gotMean-h.Mean()) > 0.02*float64(c.draw) {
			t.Errorf("case %+v: empirical mean %.4f, want %.4f", c, gotMean, h.Mean())
		}
	}
}

func BenchmarkIndexSamplerDraw(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	s := NewIndexSampler(10_000)
	buf := make([]int32, 0, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.Draw(rng, 128, buf[:0])
	}
	_ = buf
}
