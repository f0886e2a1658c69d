package mc

import (
	"fmt"
	"math/rand/v2"

	"resilient/internal/stats"
	"resilient/internal/sweep"
)

// Ensemble runs: the Section 4 performance study is a Monte-Carlo campaign
// of many independent chain runs, so the ensemble entry points fan trials
// across worker goroutines. Determinism is guaranteed by construction:
//
//   - trial t draws from its own rand.NewPCG(Seed, t) stream, so the random
//     path of a trial depends only on (Seed, t), never on which worker ran
//     it or in what order;
//   - per-trial outcomes land in a slice indexed by trial number, and every
//     aggregate (mean, CI, percentiles) is folded from that slice
//     in increasing trial order.
//
// The merged result is therefore bit-identical for Workers=1 and Workers=N.

// EnsembleOptions configures a parallel ensemble of independent chain runs.
type EnsembleOptions struct {
	// Trials is the number of independent runs (must be > 0).
	Trials int
	// Workers bounds the number of concurrent worker goroutines
	// (0 = GOMAXPROCS). The merged result is identical for every value.
	Workers int
	// Start is the initial chain state for every trial.
	Start int
	// Seed is the ensemble base seed; trial t uses rand.NewPCG(Seed, t).
	Seed uint64
}

func (o EnsembleOptions) validate() error {
	if o.Trials <= 0 {
		return fmt.Errorf("mc: ensemble needs Trials > 0, got %d", o.Trials)
	}
	return nil
}

// trialRNG returns trial t's private generator.
func (o EnsembleOptions) trialRNG(t int) *rand.Rand {
	return rand.New(rand.NewPCG(o.Seed, uint64(t)))
}

// Ensemble is the deterministically merged outcome of an ensemble of
// independent runs.
type Ensemble struct {
	// Trials is the number of runs merged.
	Trials int
	// Phases holds the per-trial phase counts in trial order -- the raw
	// material every aggregate below is folded from. A protocol ensemble
	// keeps only its terminated trials here; every chain run terminates.
	Phases []int
	// Mean, CI95 and Max summarize Phases.
	Mean, CI95, Max float64
	// P50, P90 and P99 are interpolated percentiles of Phases.
	P50, P90, P99 float64
	// Decided1 counts trials whose common decision was 1 (protocol
	// ensembles only; 0 for absorption ensembles).
	Decided1 int
	// Outcomes tallies a protocol ensemble's trials: how many terminated,
	// kept agreement and kept validity (zero for the chain ensembles).
	Outcomes Tally
}

// mergeEnsemble folds per-trial outcomes into an Ensemble in trial order.
func mergeEnsemble(phases []int, decidedOnes []bool) *Ensemble {
	e := &Ensemble{Trials: len(phases), Phases: phases}
	var acc stats.Accumulator
	fs := make([]float64, len(phases))
	for i, p := range phases {
		acc.Add(float64(p))
		fs[i] = float64(p)
	}
	s := acc.Summarize()
	e.Mean, e.CI95, e.Max = s.Mean, s.CI95, s.Max
	e.P50 = stats.Quantile(fs, 0.50)
	e.P90 = stats.Quantile(fs, 0.90)
	e.P99 = stats.Quantile(fs, 0.99)
	for _, d := range decidedOnes {
		if d {
			e.Decided1++
		}
	}
	return e
}

// AbsorptionEnsemble runs Trials independent absorption runs from
// opts.Start across opts.Workers goroutines and merges them
// deterministically (see the package comment on ensemble determinism).
func (c *Chain) AbsorptionEnsemble(opts EnsembleOptions) (*Ensemble, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	c.handles() // resolve metric handles once, before the fan-out
	phases, err := sweep.Run(opts.Trials, opts.Workers, func(t int) (int, error) {
		return c.AbsorptionRun(opts.Start, opts.trialRNG(t))
	})
	if err != nil {
		return nil, err
	}
	return mergeEnsemble(phases, nil), nil
}
