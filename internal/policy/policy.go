// Package policy is the engine-neutral fault/delivery layer shared by every
// execution engine in this repository: the discrete-event simulator
// (internal/runtime), the in-memory goroutine engine, and the TCP engine
// (internal/livenet over internal/netxport).
//
// The paper has one system model -- processes take atomic receive/compute/
// send steps while an adversarial message system chooses delivery order, and
// fail-stop processes "may simply die ... without warning messages" (Section
// 2.1) -- so the repository keeps one implementation of it. A LinkPolicy
// decides, per individual point-to-point message, whether the link drops the
// message and how long it delays it; a Node (node.go) is one process as every
// engine steps it -- its machine, its fail-stop crash plan, and its decision
// and death, each reported once -- and a DecisionRecord is one run's
// decisions and agreement. None of them reads a clock or a global RNG, so the
// simulator stays a deterministic function of (Config, Seed), while the live
// engines interpret the same delays in wall-clock time (one abstract unit = a
// configurable Duration) and stamp their own decision times.
//
// The stochastic delay laws (Uniform, Exponential, Skewed) realize the
// paper's probabilistic assumption (Section 2.3): under any of them every
// (n-k)-subset of a phase's messages has positive probability of forming a
// process's view. The scripted lower-bound adversary (adversary.Partition)
// is a LinkPolicy too.
package policy

import (
	"math"
	"math/rand/v2"

	"resilient/internal/msg"
)

// Verdict is one link's decision for one message.
type Verdict struct {
	// Drop discards the message: it is counted as sent but never delivered.
	// In the paper's reliable-delivery model a drop stands for a delay
	// beyond every horizon of interest (the Theorem 1/3 constructions delay
	// cross-partition messages "arbitrarily long" rather than losing them).
	Drop bool
	// Delay is the delivery latency in abstract time units; engines clamp
	// it via Clamp. Live engines convert units to wall-clock time.
	Delay float64
}

// LinkPolicy decides delivery for each message on each link. Implementations
// draw randomness only from the rng argument and must not retain it; now is
// the engine's current time in abstract units (simulated time under the
// discrete-event engine, elapsed-wall-clock/unit under the live engines).
type LinkPolicy interface {
	Link(from, to msg.ID, m msg.Message, now float64, rng *rand.Rand) Verdict
}

// Uniform delays each message by an independent uniform draw in [Min, Max].
// Uniform[0.1, 1] is the default policy.
type Uniform struct {
	Min, Max float64
}

// Link implements LinkPolicy.
func (u Uniform) Link(_, _ msg.ID, _ msg.Message, _ float64, rng *rand.Rand) Verdict {
	lo, hi := u.Min, u.Max
	if lo <= 0 {
		lo = minDelay
	}
	if hi < lo {
		hi = lo
	}
	return Verdict{Delay: lo + rng.Float64()*(hi-lo)}
}

// Exponential delays each message by an independent exponential draw with
// the given mean (1 if unset), modelling heavy-tailed network latency.
type Exponential struct {
	Mean float64
}

// Link implements LinkPolicy.
func (e Exponential) Link(_, _ msg.ID, _ msg.Message, _ float64, rng *rand.Rand) Verdict {
	mean := e.Mean
	if mean <= 0 {
		mean = 1
	}
	return Verdict{Delay: max(rng.ExpFloat64()*mean, minDelay)}
}

// Constant delays every message by the same D (1 if unset), yielding an
// effectively synchronous lock-step execution.
type Constant struct {
	D float64
}

// Link implements LinkPolicy.
func (c Constant) Link(_, _ msg.ID, _ msg.Message, _ float64, _ *rand.Rand) Verdict {
	if c.D <= 0 {
		return Verdict{Delay: 1}
	}
	return Verdict{Delay: c.D}
}

// Skewed multiplies the delay of every message *to* a process in SlowSet by
// SlowFactor (at least 1), creating persistent stragglers: a stress test
// for the protocols' indifference to which n-k messages arrive first.
type Skewed struct {
	// Base decides each message before the slowdown; nil is Default().
	Base       LinkPolicy
	SlowSet    map[msg.ID]bool
	SlowFactor float64
}

// Link implements LinkPolicy.
func (s Skewed) Link(from, to msg.ID, m msg.Message, now float64, rng *rand.Rand) Verdict {
	base := s.Base
	if base == nil {
		base = defaultPolicy
	}
	v := base.Link(from, to, m, now, rng)
	if s.SlowSet[to] {
		v.Delay *= max(s.SlowFactor, 1)
	}
	return v
}

// Partition drops every message crossing a group boundary and delegates
// in-group messages to Base. It is the live-engine form of
// adversary.Partition: where the simulator's scripted adversary delays
// cross-group messages by adversary.CrossDelay (so the run remains a legal
// prefix of a reliable execution), a live engine cannot wait 1e9 units, so
// the partition policy expresses the same observable prefix as drops.
type Partition struct {
	// GroupOf assigns each process to a group; nil means one group.
	GroupOf func(msg.ID) int
	// Base supplies in-group delays; nil is Default().
	Base LinkPolicy
}

// Link implements LinkPolicy.
func (p Partition) Link(from, to msg.ID, m msg.Message, now float64, rng *rand.Rand) Verdict {
	if p.GroupOf != nil && p.GroupOf(from) != p.GroupOf(to) {
		return Verdict{Drop: true}
	}
	base := p.Base
	if base == nil {
		base = defaultPolicy
	}
	return base.Link(from, to, m, now, rng)
}

// Drop loses each message independently with probability P and otherwise
// delegates to Base. The drop coin is drawn before the base delay, so a
// Drop{P: 0} policy is draw-shifted, not draw-identical, to its base.
type Drop struct {
	// P is the per-message loss probability in [0, 1].
	P float64
	// Base decides the surviving messages; nil is Default().
	Base LinkPolicy
}

// Link implements LinkPolicy.
func (d Drop) Link(from, to msg.ID, m msg.Message, now float64, rng *rand.Rand) Verdict {
	if rng.Float64() < d.P {
		return Verdict{Drop: true}
	}
	base := d.Base
	if base == nil {
		base = defaultPolicy
	}
	return base.Link(from, to, m, now, rng)
}

// defaultPolicy is the engines' default delivery assumption.
var defaultPolicy LinkPolicy = Uniform{Min: 0.1, Max: 1}

// Default returns the default policy: Uniform[0.1, 1] delays, no loss.
func Default() LinkPolicy { return defaultPolicy }

// Clamp makes a delay finite and strictly positive; engines apply it to
// every verdict so a buggy policy cannot stall the event queue with zero,
// negative, NaN or infinite delays.
func Clamp(d float64) float64 {
	if math.IsNaN(d) || d < minDelay {
		return minDelay
	}
	if math.IsInf(d, +1) || d > maxDelay {
		return maxDelay
	}
	return d
}

const (
	minDelay = 1e-9
	maxDelay = 1e12
)
