package mc

import (
	"fmt"

	"resilient/internal/coin"
	"resilient/internal/core"
	"resilient/internal/msg"
	"resilient/internal/proto"
	"resilient/internal/runtime"
	"resilient/internal/sweep"

	// The runner resolves protocols through the registry; the blank imports
	// pull every protocol package's registration in.
	_ "resilient/internal/benor"
	_ "resilient/internal/bivalence"
	_ "resilient/internal/failstop"
	_ "resilient/internal/majority"
	_ "resilient/internal/malicious"
)

// ProtocolEnsemble runs Trials independent full protocol executions --
// real machines under the discrete-event engine, not Markov-chain
// abstractions -- for any registered protocol, and merges them into the
// same Ensemble shape the chain ensembles produce, so protocols and their
// analytical models are directly comparable.
//
// opts.Start is the number of initial 1-inputs (the remaining n - Start
// processes start with 0), matching the chain decision ensembles.
// opts.MaxPhases is ignored: each execution runs to decision under the
// engine's event budget. override selects the coin scheme of randomized
// protocols (coin.SchemeAuto keeps the protocol's default).
//
// Determinism follows the ensemble contract: trial t's engine seed is drawn
// from its private (Seed, t) stream, so the merged result is bit-identical
// for every worker count.
func ProtocolEnsemble(p proto.ID, n, k int, override coin.Scheme, opts EnsembleOptions) (*Ensemble, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	d, ok := proto.Lookup(p)
	if !ok {
		return nil, fmt.Errorf("mc: unknown protocol %d", int(p))
	}
	scheme, err := d.ResolveCoin(override)
	if err != nil {
		return nil, fmt.Errorf("mc: %w", err)
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
	inputs := make([]msg.Value, n)
	for i := 0; i < opts.Start; i++ {
		inputs[i] = msg.V1
	}
	results, err := sweep.Run(opts.Trials, opts.Workers, func(t int) (decisionTrial, error) {
		seed := opts.trialRNG(t).Uint64()
		res, err := runtime.Run(runtime.Config{
			N: n, K: k,
			Inputs: inputs,
			Spawn:  ProtocolSpawner(d, scheme, seed),
			Seed:   seed,
		})
		if err != nil {
			return decisionTrial{}, fmt.Errorf("mc: %v trial %d: %w", p, t, err)
		}
		if !res.AllDecided || !res.Agreement {
			return decisionTrial{}, fmt.Errorf("mc: %v trial %d: decided=%v agreement=%v stalled=%v",
				p, t, res.AllDecided, res.Agreement, res.Stalled)
		}
		phases := 0
		for _, ph := range res.DecisionPhase {
			if int(ph) > phases {
				//lint:allow maprange max fold is order-insensitive
				phases = int(ph)
			}
		}
		return decisionTrial{phases: phases, one: res.Value == msg.V1}, nil
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

// ProtocolSpawner builds the engine spawner for one execution: the shared
// coin is one per-run source every process queries, the local scheme draws
// from each process's own engine RNG.
func ProtocolSpawner(d proto.Descriptor, scheme coin.Scheme, seed uint64) runtime.Spawner {
	var shared coin.Source
	if scheme == coin.SchemeShared {
		shared = coin.NewShared(seed)
	}
	return func(ctx runtime.SpawnContext) (core.Machine, error) {
		deps := proto.Deps{Sink: ctx.Sink}
		switch scheme {
		case coin.SchemeLocal:
			deps.Coin = coin.NewLocal(ctx.RNG)
		case coin.SchemeShared:
			deps.Coin = shared
		}
		return d.Spawn(ctx.Config, deps)
	}
}
