package mc

import (
	"fmt"
	"time"

	"resilient/internal/coin"
	"resilient/internal/faults"
	"resilient/internal/metrics"
	"resilient/internal/msg"
	"resilient/internal/policy"
	"resilient/internal/proto"
	"resilient/internal/runtime"
	"resilient/internal/spawn"
	"resilient/internal/stats"
	"resilient/internal/sweep"
)

// Trial describes one full protocol execution on the discrete-event engine:
// real machines, not a Markov-chain abstraction. Every field is one the
// engine's runtime.Config or the spawner already takes.
type Trial struct {
	Protocol proto.ID
	// Coin overrides the protocol's coin scheme; coin.SchemeAuto keeps the
	// registered default.
	Coin coin.Scheme
	N, K int
	// Inputs holds the N initial values.
	Inputs []msg.Value
	Seed   uint64
	// Crashes is the fail-stop fault plan.
	Crashes faults.Plan
	// Adversaries assigns a Byzantine strategy to each adversary process.
	Adversaries map[msg.ID]spawn.Strategy
	// Policy decides per-link delivery; nil is the engine default.
	Policy policy.LinkPolicy
	// MaxEvents bounds processed deliveries (0 = the engine default).
	MaxEvents int
	// Metrics, when non-nil, receives the engine's run accounting.
	Metrics *metrics.Registry
}

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

// Run executes the trial, its machines built by the one spawner. A trial
// that stalls or disagrees is an outcome, not an error; errors are
// configurations the spawner or the engine refuses.
func (t Trial) Run() (Outcome, error) {
	sp, err := spawn.New(t.Protocol, t.Coin, t.Seed)
	if err != nil {
		return Outcome{}, fmt.Errorf("mc: %v: %w", t.Protocol, err)
	}
	sp.Adversaries = t.Adversaries
	res, err := runtime.Run(runtime.Config{
		N: t.N, K: t.K,
		Inputs:    t.Inputs,
		Spawn:     sp.Spawn,
		Byzantine: spawn.Members(t.Adversaries),
		Crashes:   t.Crashes,
		Policy:    t.Policy,
		Seed:      t.Seed,
		MaxEvents: t.MaxEvents,
		Metrics:   t.Metrics,
	})
	if err != nil {
		return Outcome{}, fmt.Errorf("mc: %v: %w", t.Protocol, err)
	}
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
	for i, in := range t.Inputs {
		if _, adversary := t.Adversaries[msg.ID(i)]; adversary {
			continue
		}
		if first {
			input, first = in, false
		} else if in != input {
			unanimous = false
			break
		}
	}
	for p := range msg.ID(t.N) {
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
	return o, nil
}

// Tally folds trial outcomes in trial order.
type Tally struct {
	// Trials counts the folded outcomes; the others count the trials that
	// terminated, kept agreement, kept validity, and agreed on 1.
	Trials, Terminated, Agreed, Valid, Decided1 int
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
// count. opts.MaxPhases is ignored: each execution runs to decision under
// the engine's event budget. A trial that stalls or disagrees is counted in
// Outcomes, not returned as an error. Phases and its aggregates (Mean,
// percentiles, Hist, Decided1) fold only the Outcomes.Terminated trials, so
// a reader of them must check Outcomes.Terminated against Trials.
func ProtocolEnsemble(run Trial, opts EnsembleOptions) (*Ensemble, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	p, n, k := run.Protocol, run.N, run.K
	if _, err := spawn.New(p, run.Coin, 0); err != nil {
		return nil, fmt.Errorf("mc: %v: %w", p, err)
	}
	if run.Inputs != nil || run.Seed != 0 {
		return nil, fmt.Errorf("mc: a protocol ensemble draws each trial's inputs and seed; got Inputs %v, Seed %d", run.Inputs, run.Seed)
	}
	if n < 1 {
		return nil, fmt.Errorf("mc: protocol ensemble needs n >= 1, got %d", n)
	}
	if k < 0 || k > p.MaxFaults(n) {
		return nil, fmt.Errorf("mc: k=%d outside %v bound %d at n=%d", k, p, p.MaxFaults(n), n)
	}
	if opts.Start < 0 || opts.Start > n {
		return nil, fmt.Errorf("mc: %d initial ones outside 0..%d", opts.Start, n)
	}
	run.Inputs = make([]msg.Value, n)
	for i := 0; i < opts.Start; i++ {
		run.Inputs[i] = msg.V1
	}
	outs, err := sweep.Run(opts.Trials, opts.Workers, func(t int) (Outcome, error) {
		tr := run
		tr.Seed = opts.trialRNG(t).Uint64()
		return tr.Run()
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
