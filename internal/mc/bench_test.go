package mc

import (
	"runtime"
	"testing"

	"resilient/internal/markov"
)

// BenchmarkEnsembleParallel is the multi-core headline: ns/trial for a
// fail-stop absorption ensemble at workers = 1, 2 and GOMAXPROCS. The
// merged result must be identical across the sub-benchmarks -- parallelism
// buys throughput, never different numbers. CI records the workers=max line
// next to the single-run headlines.
func BenchmarkEnsembleParallel(b *testing.B) {
	chain := newChain(300, 100, markov.FailStop)
	const trials = 64
	opts := EnsembleOptions{Trials: trials, Start: 150, Seed: 1}
	var baseMean float64
	haveBase := false
	cases := []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{"workers=2", 2},
		{"workers=max", runtime.GOMAXPROCS(0)}, // stable key across machines for CI comparison
	}
	for _, c := range cases {
		workers := c.workers
		b.Run(c.name, func(b *testing.B) {
			o := opts
			o.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			var last *Ensemble
			for i := 0; i < b.N; i++ {
				e, err := chain.AbsorptionEnsemble(o)
				if err != nil {
					b.Fatal(err)
				}
				last = e
			}
			b.StopTimer()
			if !haveBase {
				baseMean, haveBase = last.Mean, true
			} else if last.Mean != baseMean {
				b.Fatalf("workers=%d changed the merged mean: %v != %v", workers, last.Mean, baseMean)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*trials), "ns/trial")
			b.ReportMetric(float64(b.N*trials)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

// BenchmarkAbsorptionRun is the single-trial baseline the ensemble numbers
// divide into.
func BenchmarkAbsorptionRun(b *testing.B) {
	chain := newChain(300, 100, markov.FailStop)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts := EnsembleOptions{Seed: 1}
		if _, err := chain.AbsorptionRun(150, opts.trialRNG(i)); err != nil {
			b.Fatal(err)
		}
	}
}
