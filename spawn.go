package resilient

import (
	"fmt"

	"resilient/internal/faults"
	"resilient/internal/proto"
	"resilient/internal/sample"
	"resilient/internal/spawn"
)

// validate is the one check of what a runnable scenario is, shared by every
// engine and run before any of them builds a machine or opens a socket. It
// returns the scenario's spawner (internal/spawn, the one machine-construction
// path).
func (sc *Scenario) validate(engine Engine) (*spawn.Spawner, error) {
	if !engine.Valid() {
		return nil, fmt.Errorf("resilient: unknown engine %d", int(engine))
	}
	n, k := sc.N, sc.K
	s, err := spawn.New(sc.Protocol, sc.Coin, sc.Seed)
	if err != nil {
		return nil, fmt.Errorf("resilient: %w", err)
	}
	if n < 1 {
		return nil, fmt.Errorf("resilient: need n >= 1, got %d", n)
	}
	if k < 0 || k >= n {
		return nil, fmt.Errorf("resilient: need 0 <= k < n, got k=%d n=%d", k, n)
	}
	if bound := sc.Protocol.MaxFaults(n); !sc.Unsafe && k > bound {
		return nil, fmt.Errorf("resilient: k=%d exceeds %v bound %d at n=%d", k, sc.Protocol, bound, n)
	}
	if len(sc.Inputs) != n {
		return nil, fmt.Errorf("resilient: %d inputs for %d processes", len(sc.Inputs), n)
	}
	for i, v := range sc.Inputs {
		if !v.Valid() {
			return nil, fmt.Errorf("resilient: invalid input %d for p%d", v, i)
		}
	}
	if err := faults.Plan(sc.Crashes).Validate(n); err != nil {
		return nil, fmt.Errorf("resilient: %w", err)
	}
	for id, strat := range sc.Adversaries {
		if id < 0 || int(id) >= n {
			return nil, fmt.Errorf("resilient: adversary %d outside 0..%d", id, n-1)
		}
		if strat == StrategyBalancer && engine != EngineSim {
			return nil, fmt.Errorf("resilient: %v needs the simulator's omniscient world view; run it on EngineSim", strat)
		}
	}
	if s.Dir, err = sc.sampleDirectory(s.Descriptor()); err != nil {
		return nil, err
	}
	s.Unsafe = sc.Unsafe
	s.Adversaries = sc.Adversaries
	return &s, nil
}

// sampleDirectory builds the run's shared sample directory under the sampled
// broadcast scheme, nil under the echo scheme. It rejects the sampled scheme
// for a protocol without an echo stage and an Eps under the echo scheme:
// either knob would have nothing to act on. The directory is drawn
// deterministically from the run seed, so every process of one run -- and
// every engine running the same scenario -- agrees on the samples.
func (sc *Scenario) sampleDirectory(d proto.Descriptor) (*sample.Directory, error) {
	switch {
	case !sc.Broadcast.Valid():
		return nil, fmt.Errorf("resilient: unknown broadcast scheme %d", int(sc.Broadcast))
	case sc.Broadcast == SchemeEcho && sc.Eps != 0:
		return nil, fmt.Errorf("resilient: Eps bounds the sampled broadcast scheme; the echo scheme has none")
	case sc.Broadcast == SchemeEcho:
		return nil, nil
	case !d.NeedsDirectory:
		return nil, fmt.Errorf("resilient: the sampled broadcast scheme replaces an echo stage, and %v has none", sc.Protocol)
	}
	if sc.Unsafe {
		return nil, fmt.Errorf("resilient: the sampled broadcast scheme requires validated (n, k); it has no Unsafe variant")
	}
	eps := sc.Eps
	if eps == 0 {
		eps = sample.DefaultEps
	}
	plan, err := sample.NewPlan(sc.N, sc.K, eps)
	if err != nil {
		return nil, fmt.Errorf("resilient: sampled broadcast: %w", err)
	}
	return sample.NewDirectory(plan, sc.Seed), nil
}
