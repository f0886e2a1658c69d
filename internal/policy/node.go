package policy

import (
	"resilient/internal/core"
	"resilient/internal/faults"
	"resilient/internal/msg"
)

// Node is one process of the paper's model (Section 2.1) as every engine
// steps it: a machine taking atomic receive/compute/send steps, the fault
// harness of its crash plan (a faults.Tracker, nil unless the plan names the
// process), and whether the process counts toward agreement. The node
// applies the plan's phase check around each step, gates each individual
// send, and reports the process's first decision and its death exactly once
// each, so every engine runs the same crash semantics: death at a planned
// phase (even with no further sends), initially-dead processes, and death in
// the middle of a broadcast.
//
// Sending stays with the engine -- the simulator draws a broadcast's
// recipient order and each delay, a live driver writes to its connection --
// and both ask AllowSend before each point-to-point send. The node reads no
// clock: each engine stamps its own times. Like its machine it is
// single-threaded: the simulator steps every node from its dispatch loop, a
// live driver its own node from the process's goroutine.
type Node struct {
	// Machine is the process's protocol machine.
	Machine core.Machine
	tracker *faults.Tracker
	// phase is the machine's phase after its last step, kept only under a
	// crash plan: AllowSend charges the step's sends to it.
	phase msg.Phase
	// correct: the process is not Byzantine, so its decision counts.
	// awaited: it is correct and the plan does not name it, so a run waits
	// for its decision.
	correct, awaited bool
	// decided and deathNoted latch the two once-only reports.
	decided, deathNoted bool
}

// NewNode returns machine's node under plan; byzantine marks a machine that
// plays an adversary role.
func NewNode(machine core.Machine, plan faults.Plan, byzantine bool) Node {
	n := Node{Machine: machine, correct: !byzantine}
	if _, planned := plan[machine.ID()]; planned {
		n.tracker = faults.NewTracker(plan, machine.ID())
	}
	n.awaited = n.correct && n.tracker == nil
	return n
}

// Correct reports whether the process is not Byzantine.
func (n *Node) Correct() bool { return n.correct }

// Awaited reports whether a run waits for the process's decision: it is
// correct and the crash plan does not name it.
func (n *Node) Awaited() bool { return n.awaited }

// Dead reports whether the process has died under its plan.
func (n *Node) Dead() bool { return n.tracker != nil && n.tracker.Dead() }

// Start takes the machine's initial step and returns its sends. A process
// planned to die before it starts (phase 0 after 0 sends) dies first and
// still runs Start, but AllowSend refuses every one of those sends.
func (n *Node) Start() []core.Outbound {
	if n.tracker == nil {
		return n.Machine.Start()
	}
	n.tracker.CheckPhase(n.Machine.Phase())
	outs := n.Machine.Start()
	n.phase = n.Machine.Phase()
	return outs
}

// Step delivers *m to the machine and returns the step's sends, or nil when
// the phase the step reached is the planned crash point with no sends left.
// It takes a pointer so the simulator's delivery copies the message once,
// out of its queue slot into the machine.
func (n *Node) Step(m *msg.Message) []core.Outbound {
	outs := n.Machine.OnMessage(*m)
	if n.tracker == nil {
		return outs
	}
	n.phase = n.Machine.Phase()
	if n.tracker.CheckPhase(n.phase); n.tracker.Dead() {
		return nil
	}
	return outs
}

// AllowSend gates one point-to-point send of the last step. It returns false
// -- and the process is dead from then on -- once the planned crash point is
// reached, so sends already made stand and the rest never happen.
func (n *Node) AllowSend() bool {
	return n.tracker == nil || n.tracker.AllowSend(n.phase)
}

// Decision returns the machine's decision the first time it sees one, and
// never for a Byzantine process, whose "decision" carries no weight. Engines
// ask after every step, the step that kills the process included: a process
// may decide in the step it dies.
func (n *Node) Decision() (msg.Value, bool) {
	if n.decided || !n.correct {
		return 0, false
	}
	v, ok := n.Machine.Decided()
	n.decided = ok
	return v, ok
}

// Died reports the process's death once: true on the first call after it
// died, false before and after.
func (n *Node) Died() bool {
	if n.deathNoted || !n.Dead() {
		return false
	}
	n.deathNoted = true
	return true
}

// DecisionRecord is what one run decided, in the same shape on every engine.
// Decide is its one fold and its one agreement rule; the engine sets
// AllDecided when the run ends and appends to Crashed as processes die.
type DecisionRecord struct {
	// Decisions maps every correct process that decided to its value.
	Decisions map[msg.ID]msg.Value
	// DecisionPhase maps deciders to the phase in which they decided.
	DecisionPhase map[msg.ID]msg.Phase
	// DecisionTime maps deciders to the time of their decision in the
	// engine's own clock: simulated time, or wall-clock seconds since a live
	// run started.
	DecisionTime map[msg.ID]float64
	// Agreement reports whether all recorded decisions are equal; it holds
	// vacuously when nobody decided.
	Agreement bool
	// Value is the first recorded decision: the common one when Agreement
	// holds and some process decided.
	Value msg.Value
	// AllDecided reports whether every awaited (non-Byzantine,
	// non-crash-planned) process decided.
	AllDecided bool
	// Crashed lists the processes that died under the fault plan.
	Crashed []msg.ID
}

// NewDecisionRecord returns an empty record for an n-process run.
func NewDecisionRecord(n int) DecisionRecord {
	return DecisionRecord{
		Decisions:     make(map[msg.ID]msg.Value, n),
		DecisionPhase: make(map[msg.ID]msg.Phase, n),
		DecisionTime:  make(map[msg.ID]float64, n),
		Agreement:     true,
	}
}

// Decide records process id's decision v, made in phase at time at.
func (r *DecisionRecord) Decide(id msg.ID, v msg.Value, phase msg.Phase, at float64) {
	if len(r.Decisions) == 0 {
		r.Value = v
	} else if v != r.Value {
		r.Agreement = false
	}
	r.Decisions[id] = v
	r.DecisionPhase[id] = phase
	r.DecisionTime[id] = at
}

// DecidedCount returns the number of recorded decisions.
func (r *DecisionRecord) DecidedCount() int { return len(r.Decisions) }
