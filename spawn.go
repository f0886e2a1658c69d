package resilient

import (
	"fmt"
	"math/rand/v2"

	"resilient/internal/byzantine"
	"resilient/internal/coin"
	"resilient/internal/core"
	"resilient/internal/faults"
	"resilient/internal/msg"
	"resilient/internal/proto"
	"resilient/internal/runtime"
	"resilient/internal/sample"
)

// spawner is the one machine-construction path: a protocol descriptor bound
// to everything a run decides once -- the resolved coin scheme and its seed,
// the sample directory, the Unsafe switch, the adversary assignment. The
// simulator calls spawn as its runtime.Spawner; the live engines, both
// halves of the log and NewMachine call it with a context they fill in
// themselves.
type spawner struct {
	desc        proto.Descriptor
	scheme      CoinScheme  // resolved: none, local or shared
	seed        uint64      // seeds the coin and engine-less process RNGs
	shared      coin.Source // the run's one common coin under CoinShared
	dir         *sample.Directory
	unsafe      bool
	adversaries map[ID]Strategy
}

// newSpawner resolves the protocol and its coin scheme for one run seed.
func newSpawner(p Protocol, override CoinScheme, seed uint64) (spawner, error) {
	d, ok := proto.Lookup(p)
	if !ok {
		return spawner{}, fmt.Errorf("resilient: unknown protocol %d", int(p))
	}
	scheme, err := d.ResolveCoin(override)
	if err != nil {
		return spawner{}, fmt.Errorf("resilient: %w", err)
	}
	return spawner{desc: d, scheme: scheme}.reseeded(seed), nil
}

// reseeded returns the spawner for another run of the same shape: a fresh
// seed and, under the shared scheme, that seed's common coin.
func (s spawner) reseeded(seed uint64) spawner {
	s.seed = seed
	if s.scheme == CoinShared {
		// One shared coin per run: every process flips the same value for a
		// given phase. Local coins instead draw from each process's own RNG.
		s.shared = coin.NewShared(seed)
	}
	return s
}

// spawn builds one process's machine: honest, or strategy-wrapped when the
// process is an assigned adversary. ctx.RNG is the process-private random
// source when the engine supplies one (the simulator does); otherwise one is
// derived from the run seed and the process id, and only for a machine that
// draws from it -- a deterministic protocol constructs no RNG at all.
func (s *spawner) spawn(ctx runtime.SpawnContext) (core.Machine, error) {
	self := ctx.Config.Self
	strat, adversary := s.adversaries[self]
	if strat == StrategySilent {
		return byzantine.NewSilent(self), nil
	}
	if ctx.RNG == nil && (s.scheme == CoinLocal || strat == StrategyFlipper) {
		ctx.RNG = newRand(s.seed ^ uint64(self+1)*0x9e3779b97f4a7c15)
	}
	deps := proto.Deps{Sink: ctx.Sink, Unsafe: s.unsafe}
	if s.dir != nil {
		deps.Directory = s.dir
	}
	switch s.scheme {
	case CoinLocal:
		deps.Coin = coin.NewLocal(ctx.RNG)
	case CoinShared:
		deps.Coin = s.shared
	}
	m, err := s.desc.Spawn(ctx.Config, deps)
	if err != nil || !adversary {
		return m, err
	}
	switch strat {
	case StrategyBalancer:
		return byzantine.NewBalancer(m, ctx.World), nil
	case StrategyFlipper:
		return byzantine.NewFlipper(m, ctx.RNG), nil
	case StrategyLiar0:
		return byzantine.NewFixedLiar(m, msg.V0), nil
	case StrategyLiar1:
		return byzantine.NewFixedLiar(m, msg.V1), nil
	case StrategyEquivocator:
		return byzantine.NewEquivocator(m, ctx.Config.N), nil
	case StrategyDoubleEcho:
		return byzantine.NewDoubleEchoer(m), nil
	case StrategyMute:
		return byzantine.NewMute(m, 2), nil
	default:
		return nil, fmt.Errorf("resilient: unknown strategy %d", int(strat))
	}
}

// machines builds all n machines of one live instance.
func (s *spawner) machines(n, k int, inputs []Value) ([]core.Machine, error) {
	ms := make([]core.Machine, n)
	for i := range ms {
		m, err := s.spawn(runtime.SpawnContext{
			Config: core.Config{N: n, K: k, Self: ID(i), Input: inputs[i]},
		})
		if err != nil {
			return nil, fmt.Errorf("resilient: build p%d: %w", i, err)
		}
		ms[i] = m
	}
	return ms, nil
}

// validate is the one check of what a runnable scenario is, shared by every
// engine and run before any of them builds a machine or opens a socket. It
// returns the scenario's spawner.
func (sc *Scenario) validate(engine Engine) (*spawner, error) {
	if !engine.Valid() {
		return nil, fmt.Errorf("resilient: unknown engine %d", int(engine))
	}
	n, k := sc.N, sc.K
	s, err := newSpawner(sc.Protocol, sc.Coin, sc.Seed)
	if err != nil {
		return nil, err
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
	if s.dir, err = sc.sampleDirectory(s.desc); err != nil {
		return nil, err
	}
	s.unsafe = sc.Unsafe
	s.adversaries = sc.Adversaries
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

// newRand builds a seeded random source.
func newRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}
