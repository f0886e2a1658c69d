// Package adversary provides the scripted link policy used by the
// lower-bound experiments (Theorem 1 and Theorem 3 of the paper).
//
// The impossibility proofs construct executions in which two groups of
// processes run disjoint schedules: messages inside a group flow normally
// while messages crossing the boundary are delayed indefinitely -- legal in
// a completely asynchronous system, where "messages can be delayed
// arbitrarily long" (Section 1). Combined with a fault budget that equals or
// exceeds the n/2 (fail-stop) or n/3 (malicious) bound, each group is large
// enough to decide on its own, and the two groups can be driven to opposite
// decisions.
package adversary

import (
	"math/rand/v2"

	"resilient/internal/msg"
	"resilient/internal/policy"
)

// CrossDelay is the delay applied to messages crossing a partition: far
// beyond any experiment horizon yet finite, so the execution prefix we
// observe is a legal prefix of a run in which every message is eventually
// delivered (the message system stays reliable, as the model requires).
const CrossDelay = 1e9

// Partition is a link policy that adds CrossDelay to every message between
// group 0 and group 1 and leaves all other traffic to Base. Any other group
// -- Overlap's coalition, group 2 -- talks freely to both sides, so one
// type serves the clean split of Theorem 1 (Halves) and the bridged split
// of Theorem 3 (Overlap).
type Partition struct {
	// GroupOf assigns each process to a group; nil means one group.
	GroupOf func(msg.ID) int
	// Base supplies the delay before any cross-group penalty; nil is
	// policy.Default().
	Base policy.LinkPolicy
}

// Link implements policy.LinkPolicy.
func (p Partition) Link(from, to msg.ID, m msg.Message, now float64, rng *rand.Rand) policy.Verdict {
	base := p.Base
	if base == nil {
		base = policy.Default()
	}
	v := base.Link(from, to, m, now, rng)
	if p.GroupOf != nil {
		gf, gt := p.GroupOf(from), p.GroupOf(to)
		if (gf == 0 && gt == 1) || (gf == 1 && gt == 0) {
			v.Delay += CrossDelay
		}
	}
	return v
}

// Halves returns a GroupOf function splitting processes into [0, boundary)
// and [boundary, n).
func Halves(boundary msg.ID) func(msg.ID) int {
	return func(id msg.ID) int {
		if id < boundary {
			return 0
		}
		return 1
	}
}

// Overlap returns a GroupOf function for the Theorem 3 construction with
// sets S = [0, sEnd) and T = [tStart, n): processes in the intersection
// [tStart, sEnd) -- the malicious coalition -- belong to *both* groups, so
// their messages are never delayed and they can talk to both sides.
// Group assignment: S-only processes are group 0, T-only processes group 1,
// and coalition members group 2, which Partition treats as adjacent to both.
func Overlap(tStart, sEnd msg.ID) func(msg.ID) int {
	return func(id msg.ID) int {
		switch {
		case id < tStart:
			return 0 // S only
		case id < sEnd:
			return 2 // coalition: in both S and T
		default:
			return 1 // T only
		}
	}
}
