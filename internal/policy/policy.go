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
// Existing scheduling machinery plugs in unchanged: every sched.Scheduler --
// including the adversary.Partition and adversary.Bridge schedulers of the
// lower-bound constructions -- becomes a LinkPolicy via FromScheduler.
package policy

import (
	"fmt"
	"math/rand/v2"

	"resilient/internal/msg"
	"resilient/internal/sched"
)

// Verdict is one link's decision for one message.
type Verdict struct {
	// Drop discards the message: it is counted as sent but never delivered.
	// In the paper's reliable-delivery model a drop stands for a delay
	// beyond every horizon of interest (the Theorem 1/3 constructions delay
	// cross-partition messages "arbitrarily long" rather than losing them).
	Drop bool
	// Delay is the delivery latency in abstract time units; engines clamp
	// it via sched.Clamp. Live engines convert units to wall-clock time.
	Delay float64
}

// LinkPolicy decides delivery for each message on each link. Implementations
// draw randomness only from the rng argument and must not retain it; now is
// the engine's current time in abstract units (simulated time under the
// discrete-event engine, elapsed-wall-clock/unit under the live engines).
type LinkPolicy interface {
	Link(from, to msg.ID, m msg.Message, now float64, rng *rand.Rand) Verdict
}

// Scheduler adapts a sched.Scheduler to the LinkPolicy contract: the policy
// never drops and delays exactly what the scheduler returns, drawing the
// same variates in the same order. adversary.Partition and adversary.Bridge
// are sched.Schedulers, so this one adapter also covers the scripted
// lower-bound adversaries.
type Scheduler struct {
	S sched.Scheduler
}

var _ LinkPolicy = Scheduler{}

// Link implements LinkPolicy.
func (p Scheduler) Link(from, to msg.ID, m msg.Message, now float64, rng *rand.Rand) Verdict {
	return Verdict{Delay: p.S.Delay(from, to, m, now, rng)}
}

// FromScheduler wraps s (defaulting to the engines' Uniform[0.1, 1]) as a
// LinkPolicy.
func FromScheduler(s sched.Scheduler) LinkPolicy {
	if s == nil {
		s = sched.Uniform{Min: 0.1, Max: 1}
	}
	return Scheduler{S: s}
}

// Partition drops every message crossing a group boundary and delegates
// in-group messages to Base. It is the policy-native form of
// adversary.Partition: where the simulator's scripted scheduler delays
// cross-group messages by adversary.CrossDelay (so the run remains a legal
// prefix of a reliable execution), a live engine cannot wait 1e9 units, so
// the partition policy expresses the same observable prefix as drops.
type Partition struct {
	// GroupOf assigns each process to a group; nil means one group.
	GroupOf func(msg.ID) int
	// Base supplies in-group delays; nil defaults to Uniform[0.1, 1].
	Base LinkPolicy
}

var _ LinkPolicy = Partition{}

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
	// Base decides the surviving messages; nil defaults to Uniform[0.1, 1].
	Base LinkPolicy
}

var _ LinkPolicy = Drop{}

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
var defaultPolicy LinkPolicy = Scheduler{S: sched.Uniform{Min: 0.1, Max: 1}}

// Default returns the default policy: Uniform[0.1, 1] delays, no loss.
func Default() LinkPolicy { return defaultPolicy }

// Name returns a human-readable description for known policy types.
func Name(p LinkPolicy) string {
	switch v := p.(type) {
	case Scheduler:
		return sched.Name(v.S)
	case Partition:
		return fmt.Sprintf("partition(over %s)", Name(orDefault(v.Base)))
	case Drop:
		return fmt.Sprintf("drop(p=%.2g over %s)", v.P, Name(orDefault(v.Base)))
	default:
		return fmt.Sprintf("%T", p)
	}
}

func orDefault(p LinkPolicy) LinkPolicy {
	if p == nil {
		return defaultPolicy
	}
	return p
}
