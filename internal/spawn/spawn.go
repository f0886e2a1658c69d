// Package spawn holds the run description -- Scenario, its one Validate and
// its one SimConfig -- and the one run function, Run, which executes a
// Scenario on any Engine and returns one Outcome; the live engines' cluster,
// mesh and conn builders live here too. It is also the one
// machine-construction path: it binds a registered protocol to everything a
// run decides once -- the resolved coin scheme and its seed, the sample
// directory, the Unsafe switch, the adversary assignment -- and builds each
// process's machine, honest or wrapped in a Byzantine strategy. The
// simulator, the live engines, the replicated log, the Monte-Carlo
// ensembles and the experiments all build machines here, so this is the
// only caller of proto.Descriptor.Spawn.
// Errors carry no package prefix; callers add their own.
package spawn

import (
	"fmt"
	"math/rand/v2"

	"resilient/internal/byzantine"
	"resilient/internal/coin"
	"resilient/internal/core"
	"resilient/internal/msg"
	"resilient/internal/proto"
	"resilient/internal/runtime"
	"resilient/internal/sample"

	// Machines are resolved through the registry; the blank imports pull
	// every protocol package's registration in (sample registers itself
	// through the import above).
	_ "resilient/internal/benor"
	_ "resilient/internal/bivalence"
	_ "resilient/internal/failstop"
	_ "resilient/internal/majority"
	_ "resilient/internal/malicious"
)

// Strategy names a Byzantine behaviour for simulated adversaries. All
// strategies wrap an honest machine of the simulated protocol and corrupt
// its outbound value claims; see the byzantine package.
type Strategy int

const (
	// Silent never sends anything (equivalent to being dead).
	Silent Strategy = iota + 1
	// Balancer always claims the current minority value among correct
	// processes -- the Section 4 worst case.
	Balancer
	// Flipper claims an independent random value each time.
	Flipper
	// Liar0 always claims 0.
	Liar0
	// Liar1 always claims 1.
	Liar1
	// Equivocator claims 0 toward the first half of the processes and 1
	// toward the rest.
	Equivocator
	// DoubleEcho sends conflicting duplicate echoes (Figure 2 runs only).
	DoubleEcho
	// Mute behaves correctly for two phases, then stops sending.
	Mute
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Silent:
		return "silent"
	case Balancer:
		return "balancer"
	case Flipper:
		return "flipper"
	case Liar0:
		return "liar0"
	case Liar1:
		return "liar1"
	case Equivocator:
		return "equivocator"
	case DoubleEcho:
		return "double-echo"
	case Mute:
		return "mute"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Rand is the seeded random source a process draws from when no engine
// supplies one; the root's seeded draws use it too.
func Rand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// Members returns the processes an adversary assignment covers, as the
// engines' Byzantine membership set.
func Members(adversaries map[msg.ID]Strategy) map[msg.ID]bool {
	byz := make(map[msg.ID]bool, len(adversaries))
	for id := range adversaries {
		byz[id] = true
	}
	return byz
}

// Spawner builds the machines of one run. New resolves the protocol and the
// coin; the caller sets the remaining fields before the first Spawn.
type Spawner struct {
	// Dir is the run's shared sample directory under the sampled broadcast
	// scheme, nil under the full-quorum echo.
	Dir *sample.Directory
	// Unsafe selects the protocol's bound-unchecked variant.
	Unsafe bool
	// Adversaries assigns a strategy to each Byzantine process.
	Adversaries map[msg.ID]Strategy

	desc   proto.Descriptor
	scheme coin.Scheme // resolved: none, local or shared
	seed   uint64      // seeds the coin and engine-less process RNGs
	shared coin.Source // the run's one common coin under the shared scheme
}

// New resolves protocol p and its coin scheme for one run seed.
func New(p proto.ID, override coin.Scheme, seed uint64) (Spawner, error) {
	d, ok := proto.Lookup(p)
	if !ok {
		return Spawner{}, fmt.Errorf("unknown protocol %d", int(p))
	}
	scheme, err := d.ResolveCoin(override)
	if err != nil {
		return Spawner{}, err
	}
	return Spawner{desc: d, scheme: scheme}.Reseeded(seed), nil
}

// Descriptor returns the spawned protocol's registry entry.
func (s *Spawner) Descriptor() proto.Descriptor { return s.desc }

// Scheme returns the resolved coin scheme: none, local or shared.
func (s *Spawner) Scheme() coin.Scheme { return s.scheme }

// Reseeded returns the spawner for another run of the same shape: a fresh
// seed and, under the shared scheme, that seed's common coin.
func (s Spawner) Reseeded(seed uint64) Spawner {
	s.seed = seed
	if s.scheme == coin.SchemeShared {
		// One shared coin per run: every process flips the same value for a
		// given phase. Local coins instead draw from each process's own RNG.
		s.shared = coin.NewShared(seed)
	}
	return s
}

// Spawn builds one process's machine: honest, or strategy-wrapped when the
// process is an assigned adversary. It is the simulator's runtime.Spawner.
// ctx.RNG is the process-private random source when the engine supplies one
// (the simulator does); otherwise one is derived from the run seed and the
// process id, and only for a machine that draws from it -- a deterministic
// protocol constructs no RNG at all.
func (s *Spawner) Spawn(ctx runtime.SpawnContext) (core.Machine, error) {
	return s.Respawn(ctx, nil)
}

// Respawn is Spawn offering prev, a machine this spawner's protocol built
// for an earlier run of the same n and k that no engine steps any more, for
// the protocol to reset and return in place of a new one (proto.Deps.Reuse).
// Only an honest process is offered it; prev may be nil.
func (s *Spawner) Respawn(ctx runtime.SpawnContext, prev core.Machine) (core.Machine, error) {
	self := ctx.Config.Self
	strat, adversary := s.Adversaries[self]
	if strat == Silent {
		return byzantine.NewSilent(self), nil
	}
	if ctx.RNG == nil && (s.scheme == coin.SchemeLocal || strat == Flipper) {
		ctx.RNG = Rand(s.seed ^ uint64(self+1)*0x9e3779b97f4a7c15)
	}
	deps := proto.Deps{Sink: ctx.Sink, Unsafe: s.Unsafe}
	if s.Dir != nil {
		deps.Directory = s.Dir
	}
	switch s.scheme {
	case coin.SchemeLocal:
		deps.Coin = coin.NewLocal(ctx.RNG)
	case coin.SchemeShared:
		deps.Coin = s.shared
	}
	if !adversary {
		deps.Reuse = prev
	}
	m, err := s.desc.Spawn(ctx.Config, deps)
	if err != nil || !adversary {
		return m, err
	}
	switch strat {
	case Balancer:
		return byzantine.NewBalancer(m, ctx.World), nil
	case Flipper:
		return byzantine.NewFlipper(m, ctx.RNG), nil
	case Liar0:
		return byzantine.NewFixedLiar(m, msg.V0), nil
	case Liar1:
		return byzantine.NewFixedLiar(m, msg.V1), nil
	case Equivocator:
		return byzantine.NewEquivocator(m, ctx.Config.N), nil
	case DoubleEcho:
		return byzantine.NewDoubleEchoer(m), nil
	case Mute:
		return byzantine.NewMute(m, 2), nil
	default:
		return nil, fmt.Errorf("unknown strategy %d", int(strat))
	}
}

// Machines builds all n machines of one live instance.
func (s *Spawner) Machines(n, k int, inputs []msg.Value) ([]core.Machine, error) {
	ms := make([]core.Machine, n)
	for i := range ms {
		m, err := s.Spawn(runtime.SpawnContext{
			Config: core.Config{N: n, K: k, Self: msg.ID(i), Input: inputs[i]},
		})
		if err != nil {
			return nil, fmt.Errorf("build p%d: %w", i, err)
		}
		ms[i] = m
	}
	return ms, nil
}
