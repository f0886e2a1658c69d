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
//     aggregate (mean, CI, histogram, percentiles) is folded from that slice
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
	// MaxPhases caps each run (0 = the per-run default).
	MaxPhases int
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
	// Mean, CI95, Min and Max summarize Phases.
	Mean, CI95, Min, Max float64
	// P50, P90 and P99 are interpolated percentiles of Phases.
	P50, P90, P99 float64
	// Hist counts trials per phase count.
	Hist *stats.IntHistogram
	// Decided1 counts trials whose common decision was 1 (decision
	// ensembles only; 0 for absorption ensembles).
	Decided1 int
	// Outcomes tallies a protocol ensemble's trials: how many terminated,
	// kept agreement and kept validity (zero for the chain ensembles).
	Outcomes Tally
}

// mergeEnsemble folds per-trial outcomes into an Ensemble in trial order.
func mergeEnsemble(phases []int, decidedOnes []bool) *Ensemble {
	e := &Ensemble{Trials: len(phases), Phases: phases, Hist: stats.NewIntHistogram()}
	var acc stats.Accumulator
	fs := make([]float64, len(phases))
	for i, p := range phases {
		acc.Add(float64(p))
		e.Hist.Add(p)
		fs[i] = float64(p)
	}
	s := acc.Summarize()
	e.Mean, e.CI95, e.Min, e.Max = s.Mean, s.CI95, s.Min, s.Max
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

// decisionTrial is one decision run's outcome.
type decisionTrial struct {
	phases int
	one    bool
}

// absorptionEnsemble is the shared fan-out for both chains' absorption
// ensembles; run is the per-trial body.
func absorptionEnsemble(opts EnsembleOptions, run func(rng *rand.Rand) (int, error)) (*Ensemble, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	phases, err := sweep.Run(opts.Trials, opts.Workers, func(t int) (int, error) {
		return run(opts.trialRNG(t))
	})
	if err != nil {
		return nil, err
	}
	return mergeEnsemble(phases, nil), nil
}

// decisionEnsemble is the shared fan-out for both chains' decision
// ensembles.
func decisionEnsemble(opts EnsembleOptions, run func(rng *rand.Rand) (int, bool, error)) (*Ensemble, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	results, err := sweep.Run(opts.Trials, opts.Workers, func(t int) (decisionTrial, error) {
		ph, one, err := run(opts.trialRNG(t))
		return decisionTrial{phases: ph, one: one}, err
	})
	if err != nil {
		return nil, err
	}
	phases := make([]int, len(results))
	ones := make([]bool, len(results))
	for i, r := range results {
		phases[i] = r.phases
		ones[i] = r.one
	}
	return mergeEnsemble(phases, ones), nil
}

// AbsorptionEnsemble runs Trials independent absorption runs from
// opts.Start across opts.Workers goroutines and merges them
// deterministically (see the package comment on ensemble determinism).
func (c *FailStop) AbsorptionEnsemble(opts EnsembleOptions) (*Ensemble, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c.handles() // resolve metric handles once, before the fan-out
	return absorptionEnsemble(opts, func(rng *rand.Rand) (int, error) {
		return c.AbsorptionRun(opts.Start, rng, opts.MaxPhases)
	})
}

// DecisionEnsemble runs Trials independent decision runs from opts.Start
// 1-inputs and merges them deterministically; Decided1 counts trials whose
// consensus value was 1.
func (c *FailStop) DecisionEnsemble(opts EnsembleOptions) (*Ensemble, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c.handles()
	return decisionEnsemble(opts, func(rng *rand.Rand) (int, bool, error) {
		return c.DecisionRun(opts.Start, rng, opts.MaxPhases)
	})
}

// AbsorptionEnsemble is the malicious-chain analogue of
// FailStop.AbsorptionEnsemble.
func (c *Malicious) AbsorptionEnsemble(opts EnsembleOptions) (*Ensemble, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c.handles()
	return absorptionEnsemble(opts, func(rng *rand.Rand) (int, error) {
		return c.AbsorptionRun(opts.Start, rng, opts.MaxPhases)
	})
}

// DecisionEnsemble is the malicious-chain analogue of
// FailStop.DecisionEnsemble.
func (c *Malicious) DecisionEnsemble(opts EnsembleOptions) (*Ensemble, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c.handles()
	return decisionEnsemble(opts, func(rng *rand.Rand) (int, bool, error) {
		return c.DecisionRun(opts.Start, rng, opts.MaxPhases)
	})
}
