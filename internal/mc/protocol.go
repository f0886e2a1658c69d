package mc

import (
	"fmt"
	"time"

	"resilient/internal/msg"
	"resilient/internal/runtime"
	"resilient/internal/spawn"
	"resilient/internal/stats"
	"resilient/internal/sweep"
)

// Outcome is what one trial showed.
type Outcome struct {
	// Terminated reports that every correct process decided.
	Terminated bool
	// Agreement reports that no two deciders disagree.
	Agreement bool
	// Validity reports weak validity: when every non-adversary process
	// started with the same value, every decision is that value. It holds
	// trivially on mixed inputs.
	Validity bool
	// Stalled says why a trial ended early (runtime.NotStalled if it
	// terminated).
	Stalled runtime.StallReason
	// Value is the common decision when Agreement holds and some process
	// decided.
	Value msg.Value
	// Decided counts the correct processes that decided.
	Decided int
	// FirstPhase and Phases are the earliest and the latest decision phase
	// (0 if nobody decided); Phases - FirstPhase is the spread the Section
	// 3.3 note bounds.
	FirstPhase, Phases int
	// Messages counts the point-to-point sends.
	Messages int
	// Wall is the real time the engine spent on the run.
	Wall time.Duration
}

// RunTrial executes sc on the discrete-event engine: real machines, not a
// Markov-chain abstraction. A trial that stalls or disagrees is an outcome;
// errors are scenarios the validation or the engine refuses.
func RunTrial(sc spawn.Scenario) (Outcome, error) {
	sp, err := sc.Validate(false)
	if err == nil {
		var res *runtime.Result
		if res, err = runtime.Run(sc.SimConfig(sp)); err == nil {
			return OutcomeOf(res, sc.Inputs, sc.Adversaries), nil
		}
	}
	return Outcome{}, fmt.Errorf("mc: %v: %w", sc.Protocol, err)
}

// OutcomeOf is what the engine's result res shows of a run of len(inputs)
// processes on inputs, the processes in adversaries playing Byzantine.
func OutcomeOf(res *runtime.Result, inputs []msg.Value, adversaries map[msg.ID]spawn.Strategy) Outcome {
	o := Outcome{
		Terminated: res.AllDecided && res.Stalled == runtime.NotStalled,
		Agreement:  res.Agreement,
		Validity:   true,
		Stalled:    res.Stalled,
		Value:      res.Value,
		Messages:   res.MessagesSent,
		Wall:       res.WallClock,
	}
	unanimous, first := true, true
	var input msg.Value
	for i, in := range inputs {
		if _, adversary := adversaries[msg.ID(i)]; adversary {
			continue
		}
		if first {
			input, first = in, false
		} else if in != input {
			unanimous = false
			break
		}
	}
	for p := range msg.ID(len(inputs)) {
		ph, decided := res.DecisionPhase[p]
		if !decided {
			continue
		}
		if o.Decided == 0 || int(ph) < o.FirstPhase {
			o.FirstPhase = int(ph)
		}
		o.Decided++
		o.Phases = max(o.Phases, int(ph))
		o.Validity = o.Validity && (!unanimous || res.Decisions[p] == input)
	}
	return o
}

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
func TallyOf(outs []Outcome) Tally {
	t := Tally{Trials: len(outs)}
	for _, o := range outs {
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
	return t
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
// opts.MaxPhases is ignored: each execution runs to decision under
// run.MaxEvents. A trial that stalls or disagrees is counted in
// Outcomes, not returned as an error. Phases and its aggregates (Mean,
// percentiles, Hist, Decided1) fold only the Outcomes.Terminated trials, so
// a reader of them must check Outcomes.Terminated against Trials.
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
	if _, err := run.Validate(false); err != nil {
		return nil, fmt.Errorf("mc: %v: %w", run.Protocol, err)
	}
	outs, err := sweep.Run(opts.Trials, opts.Workers, func(t int) (Outcome, error) {
		tr := run
		tr.Seed = opts.trialRNG(t).Uint64()
		return RunTrial(tr)
	})
	if err != nil {
		return nil, err
	}
	var phases []int
	var ones []bool
	for _, o := range outs {
		if o.Terminated {
			phases = append(phases, o.Phases)
			ones = append(ones, o.Agreement && o.Value == msg.V1)
		}
	}
	e := mergeEnsemble(phases, ones)
	e.Trials, e.Outcomes = len(outs), TallyOf(outs)
	return e, nil
}
