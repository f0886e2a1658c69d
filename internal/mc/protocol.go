package mc

import (
	"context"
	"fmt"

	"resilient/internal/msg"
	"resilient/internal/runtime"
	"resilient/internal/spawn"
	"resilient/internal/stats"
	"resilient/internal/sweep"
)

// Tally folds trial outcomes in trial order.
type Tally struct {
	// Trials counts the folded outcomes; the others count the trials that
	// terminated, kept agreement, kept validity, and agreed on 1.
	Trials, Terminated, Agreed, Valid, Decided1 int
	// Stalls counts the trials that stalled, per reason (nil when none did).
	Stalls map[runtime.StallReason]int
	// Phases accumulates the terminated trials' phase counts, Messages
	// every trial's sends.
	Phases, Messages stats.Accumulator
}

// TallyOf folds outs in order.
func TallyOf(outs []spawn.Outcome) Tally {
	var t Tally
	for _, o := range outs {
		t.Add(o)
	}
	return t
}

// Add folds one more trial's outcome.
func (t *Tally) Add(o spawn.Outcome) {
	t.Trials++
	if o.Terminated {
		t.Terminated++
		t.Phases.Add(float64(o.Phases))
	}
	if o.Agreement {
		t.Agreed++
		if o.Value == msg.V1 {
			t.Decided1++
		}
	}
	if o.Validity {
		t.Valid++
	}
	if o.Stalled != runtime.NotStalled {
		if t.Stalls == nil {
			t.Stalls = make(map[runtime.StallReason]int)
		}
		t.Stalls[o.Stalled]++
	}
	t.Messages.Add(float64(o.Messages))
}

// Share returns count as a fraction of the folded trials.
func (t *Tally) Share(count int) float64 { return float64(count) / float64(t.Trials) }

// ProtocolEnsemble runs opts.Trials independent executions of run for any
// registered protocol and merges them into the same Ensemble shape the
// chain ensembles produce, so protocols and their analytical models are
// directly comparable.
//
// The ensemble draws every trial's inputs and seed itself, so run.Inputs
// and run.Seed must be unset: trial t starts opts.Start processes on 1 (the
// remaining n - Start on 0) and runs on a seed drawn from its private
// (Seed, t) stream, so the merged result is bit-identical for every worker
// count. A scenario no trial can run is refused once, before trial 0.
// Each execution runs to decision under run.MaxEvents. A trial that stalls
// or disagrees is counted in Outcomes, not returned as an error. Phases and
// its aggregates (Mean, percentiles, Decided1) fold only the
// Outcomes.Terminated trials, so a reader of them must check
// Outcomes.Terminated against Trials.
func ProtocolEnsemble(run spawn.Scenario, opts EnsembleOptions) (*Ensemble, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if run.Inputs != nil || run.Seed != 0 {
		return nil, fmt.Errorf("mc: a protocol ensemble draws each trial's inputs and seed; got Inputs %v, Seed %d", run.Inputs, run.Seed)
	}
	if opts.Start < 0 || opts.Start > run.N {
		return nil, fmt.Errorf("mc: %d initial ones outside 0..%d", opts.Start, run.N)
	}
	run.Inputs = make([]msg.Value, run.N)
	for i := 0; i < opts.Start; i++ {
		run.Inputs[i] = msg.V1
	}
	if _, err := run.Validate(spawn.EngineSim); err != nil {
		return nil, fmt.Errorf("mc: %v: %w", run.Protocol, err)
	}
	var tally Tally
	var phases []int
	var ones []bool
	err := sweep.Fold(opts.Trials, opts.Workers, func(t int) (spawn.Outcome, error) {
		tr := run
		tr.Seed = opts.trialRNG(t).Uint64()
		out, err := spawn.Run(context.TODO(), spawn.EngineSim, tr)
		if err != nil {
			return spawn.Outcome{}, fmt.Errorf("mc: %v: %w", run.Protocol, err)
		}
		out.Sim = nil // an ensemble keeps no trial's whole Result
		return *out, nil
	}, func(o spawn.Outcome) {
		tally.Add(o)
		if o.Terminated {
			phases = append(phases, o.Phases)
			ones = append(ones, o.Agreement && o.Value == msg.V1)
		}
	})
	if err != nil {
		return nil, err
	}
	e := mergeEnsemble(phases, ones)
	e.Trials, e.Outcomes = tally.Trials, tally
	return e, nil
}
