package spawn

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
	"resilient/internal/sample"
)

// BroadcastScheme selects the reliable-broadcast primitive behind the echo
// stage of the Figure-2 protocols (malicious, broadcast).
type BroadcastScheme int

const (
	// SchemeEcho is the paper's full-quorum primitive (the default): every
	// echo goes to all n processes and acceptance needs strictly more than
	// (n+k)/2 of them. Deterministic, O(n²) messages per broadcast.
	SchemeEcho BroadcastScheme = iota
	// SchemeSample is the sample-based primitive of internal/sample: echoes
	// are counted against a per-process random sample and every threshold is
	// sized analytically so each acceptance fails with probability at most
	// ε (Scenario.Eps). O(n·E) messages with E = O(log(1/ε)) at fixed k/n,
	// which is what makes n=10,000 runs feasible; see DESIGN §13.
	SchemeSample
)

// String names the scheme.
func (s BroadcastScheme) String() string {
	switch s {
	case SchemeEcho:
		return "echo"
	case SchemeSample:
		return "sample"
	default:
		return fmt.Sprintf("BroadcastScheme(%d)", int(s))
	}
}

// Valid reports whether s names a scheme.
func (s BroadcastScheme) Valid() bool {
	return s == SchemeEcho || s == SchemeSample
}

// Scenario is one engine-independent run of a registered protocol: system
// size, inputs, faults, link behaviour and machine knobs. It describes a run
// on any engine and every trial of a Monte-Carlo ensemble.
type Scenario struct {
	// Protocol selects the consensus protocol.
	Protocol proto.ID
	// N is the system size; K the fault parameter.
	N, K int
	// Inputs holds the n initial values.
	Inputs []msg.Value
	// Seed selects the execution (simulator) and seeds policy and coin
	// randomness (all engines).
	Seed uint64
	// Crashes schedules fail-stop deaths, keyed by process. All engines
	// apply the same crash-at-(phase, afterSends) semantics.
	Crashes faults.Plan
	// Adversaries assigns Byzantine strategies to processes. All
	// strategies except Balancer (which needs the simulator's omniscient
	// world view) run on every engine.
	Adversaries map[msg.ID]Strategy
	// Policy, when non-nil, decides per-link delivery on every engine:
	// virtual delay units in the simulator, wall-clock units of Unit on
	// the live engines. Nil is the simulator's Uniform[0.1, 1] default and
	// undelayed delivery on the live engines.
	Policy policy.LinkPolicy
	// Unit is the wall-clock length of one abstract delay unit on live
	// engines (0 = livenet.DefaultUnit, one millisecond).
	Unit time.Duration
	// Broadcast selects the echo-broadcast primitive of protocols with an
	// echo stage, which run unchanged over either; all engines honour it and
	// reject SchemeSample on a protocol without an echo stage.
	Broadcast BroadcastScheme
	// Eps is the sampled scheme's per-acceptance error bound
	// (0 = sample.DefaultEps); a non-zero Eps under SchemeEcho is rejected.
	Eps float64
	// Coin overrides the coin scheme of randomized protocols
	// (coin.SchemeAuto keeps the registered default); all engines honour it.
	Coin coin.Scheme
	// Unsafe skips the resilience-bound validation of (n, k).
	Unsafe bool
	// MaxEvents bounds the simulator's processed deliveries
	// (0 = runtime.DefaultMaxEvents); the live engines refuse it.
	MaxEvents int
	// Metrics, when non-nil, receives run accounting: "runtime." counters
	// from the simulator, "livenet." (and "net." for TCP) from the live
	// engines.
	Metrics *metrics.Registry
}

// Validate is the one check of a runnable scenario, run on every engine
// before a machine or a socket exists; it returns the scenario's spawner.
// A live engine refuses the simulator-only knobs, the omniscient balancer
// and an event budget. Of several faulty processes, the error names the
// lowest.
func (sc *Scenario) Validate(engine Engine) (*Spawner, error) {
	if !engine.Valid() {
		return nil, fmt.Errorf("unknown engine %d", int(engine))
	}
	n, k, live := sc.N, sc.K, engine.Live()
	s, err := New(sc.Protocol, sc.Coin, sc.Seed)
	if err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("need n >= 1, got %d", n)
	}
	if k < 0 || k >= n {
		return nil, fmt.Errorf("need 0 <= k < n, got k=%d n=%d", k, n)
	}
	if bound := sc.Protocol.MaxFaults(n); !sc.Unsafe && k > bound {
		return nil, fmt.Errorf("k=%d exceeds %v bound %d at n=%d", k, sc.Protocol, bound, n)
	}
	if len(sc.Inputs) != n {
		return nil, fmt.Errorf("%d inputs for %d processes", len(sc.Inputs), n)
	}
	for i, v := range sc.Inputs {
		if !v.Valid() {
			return nil, fmt.Errorf("invalid input %d for p%d", v, i)
		}
	}
	if err := sc.Crashes.Validate(n); err != nil {
		return nil, err
	}
	for _, id := range msg.SortedIDs(sc.Adversaries) {
		if id < 0 || int(id) >= n {
			return nil, fmt.Errorf("adversary %d outside 0..%d", id, n-1)
		}
		if strat := sc.Adversaries[id]; strat == Balancer && live {
			return nil, fmt.Errorf("%v needs the simulator's omniscient world view; run it on EngineSim", strat)
		}
	}
	switch {
	case sc.MaxEvents < 0:
		return nil, fmt.Errorf("need MaxEvents >= 0, got %d", sc.MaxEvents)
	case sc.MaxEvents != 0 && live:
		return nil, fmt.Errorf("MaxEvents bounds the simulator's deliveries; bound a live run with its context")
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
		return nil, fmt.Errorf("unknown broadcast scheme %d", int(sc.Broadcast))
	case sc.Broadcast == SchemeEcho && sc.Eps != 0:
		return nil, fmt.Errorf("Eps bounds the sampled broadcast scheme; the echo scheme has none")
	case sc.Broadcast == SchemeEcho:
		return nil, nil
	case !d.NeedsDirectory:
		return nil, fmt.Errorf("the sampled broadcast scheme replaces an echo stage, and %v has none", sc.Protocol)
	}
	if sc.Unsafe {
		return nil, fmt.Errorf("the sampled broadcast scheme requires validated (n, k); it has no Unsafe variant")
	}
	eps := sc.Eps
	if eps == 0 {
		eps = sample.DefaultEps
	}
	plan, err := sample.NewPlan(sc.N, sc.K, eps)
	if err != nil {
		return nil, fmt.Errorf("sampled broadcast: %w", err)
	}
	return sample.NewDirectory(plan, sc.Seed), nil
}

// SimConfig is the validated scenario, sp its spawner, as a simulator
// configuration: the one runtime.Config builder for registry runs.
func (sc *Scenario) SimConfig(sp *Spawner) runtime.Config {
	return runtime.Config{
		N: sc.N, K: sc.K,
		Inputs:    sc.Inputs,
		Spawn:     sp.Spawn,
		Byzantine: Members(sc.Adversaries),
		Crashes:   sc.Crashes,
		Policy:    sc.Policy,
		Seed:      sc.Seed,
		MaxEvents: sc.MaxEvents,
		Metrics:   sc.Metrics,
	}
}
