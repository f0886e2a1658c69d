// Package faults describes fail-stop fault plans: which processes die, in
// which phase, and after how many individual sends within that phase. The
// paper's fail-stop processes "may simply die ... without warning messages"
// (Section 2.1); dying in the middle of a broadcast -- so that only some
// recipients ever see the message -- is the hardest case and is directly
// expressible here.
package faults

import (
	"fmt"
	"math/rand/v2"

	"resilient/internal/msg"
)

// Crash describes the death of a single process.
type Crash struct {
	// Process is the process that dies.
	Process msg.ID
	// Phase is the protocol phase in which it dies. Phase 0 with
	// AfterSends 0 means the process is initially dead and never sends.
	Phase msg.Phase
	// AfterSends is how many individual point-to-point sends the process
	// completes once it has reached Phase before dying. A broadcast to n
	// processes counts as n sends, so AfterSends in 1..n-1 kills the
	// process mid-broadcast.
	AfterSends int
}

// String describes the crash.
func (c Crash) String() string {
	return fmt.Sprintf("p%d dies in phase %s after %d sends", c.Process, c.Phase, c.AfterSends)
}

// Plan maps processes to their crash descriptions. Processes absent from the
// plan never crash.
type Plan map[msg.ID]Crash

// Validate checks that the plan is internally consistent for an n-process
// system.
func (p Plan) Validate(n int) error {
	for _, id := range p.Processes() {
		c := p[id]
		if id != c.Process {
			return fmt.Errorf("faults: plan key p%d does not match crash process p%d", id, c.Process)
		}
		if id < 0 || int(id) >= n {
			return fmt.Errorf("faults: crash process p%d outside 0..%d", id, n-1)
		}
		if c.Phase < 0 {
			return fmt.Errorf("faults: crash phase %d negative for p%d", c.Phase, id)
		}
		if c.AfterSends < 0 {
			return fmt.Errorf("faults: negative AfterSends %d for p%d", c.AfterSends, id)
		}
	}
	return nil
}

// Processes returns the crashing processes in ascending order.
func (p Plan) Processes() []msg.ID { return msg.SortedIDs(p) }

// None is the empty plan.
func None() Plan { return Plan{} }

// InitiallyDead returns a plan in which the given processes are dead from
// the start (the Section 5 fault case).
func InitiallyDead(ids ...msg.ID) Plan {
	p := make(Plan, len(ids))
	for _, id := range ids {
		p[id] = Crash{Process: id, Phase: 0, AfterSends: 0}
	}
	return p
}

// Random returns a plan crashing f distinct processes chosen uniformly from
// 0..n-1, each at a uniform phase in [0, maxPhase] after a uniform number of
// sends in [0, n] (so mid-broadcast deaths are common).
func Random(rng *rand.Rand, n, f int, maxPhase msg.Phase) Plan {
	if f > n {
		f = n
	}
	perm := rng.Perm(n)
	p := make(Plan, f)
	for i := 0; i < f; i++ {
		id := msg.ID(perm[i])
		p[id] = Crash{
			Process:    id,
			Phase:      msg.Phase(rng.IntN(int(maxPhase) + 1)),
			AfterSends: rng.IntN(n + 1),
		}
	}
	return p
}

// Tracker tracks a single process's progress toward its planned crash. The
// execution engines consult it before every individual send and delivery.
type Tracker struct {
	crash   Crash
	hasPlan bool
	dead    bool
	armed   bool
	budget  int
}

// NewTracker returns a tracker for the given process under the plan. A
// process without an entry in the plan gets an inert tracker.
func NewTracker(p Plan, id msg.ID) *Tracker {
	c, ok := p[id]
	return &Tracker{crash: c, hasPlan: ok, budget: c.AfterSends}
}

// Dead reports whether the process has died.
func (t *Tracker) Dead() bool { return t.dead }

// AllowSend is called before each individual send while the process is in
// the given phase. It returns false -- and marks the process dead -- when the
// planned crash point has been reached.
func (t *Tracker) AllowSend(phase msg.Phase) bool {
	if t.dead {
		return false
	}
	if !t.hasPlan {
		return true
	}
	if !t.armed && phase >= t.crash.Phase {
		t.armed = true
	}
	if !t.armed {
		return true
	}
	if t.budget == 0 {
		t.dead = true
		return false
	}
	t.budget--
	return true
}

// CheckPhase is called when the process advances to a new phase; a process
// whose crash phase has been reached with a zero send budget dies
// immediately even if it never attempts another send.
func (t *Tracker) CheckPhase(phase msg.Phase) {
	if t.dead || !t.hasPlan {
		return
	}
	if phase >= t.crash.Phase {
		t.armed = true
		if t.budget == 0 {
			t.dead = true
		}
	}
}
