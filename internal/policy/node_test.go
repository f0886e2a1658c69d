package policy

import (
	"testing"

	"resilient/internal/core"
	"resilient/internal/faults"
	"resilient/internal/msg"
)

// scripted is a machine whose phase and decision the test sets; each step
// moves to the phase and decision queued for it and broadcasts once.
type scripted struct {
	id      msg.ID
	phase   msg.Phase
	value   msg.Value
	decided bool
	// next, when set, is applied by the next OnMessage.
	next func(m *scripted)
}

func (m *scripted) ID() msg.ID { return m.id }
func (m *scripted) Start() []core.Outbound {
	return []core.Outbound{core.ToAll(msg.Val(m.id, m.phase, 0))}
}
func (m *scripted) OnMessage(msg.Message) []core.Outbound {
	if m.next != nil {
		m.next(m)
		m.next = nil
	}
	return m.Start()
}
func (m *scripted) Decided() (msg.Value, bool) { return m.value, m.decided }
func (m *scripted) Halted() bool               { return false }
func (m *scripted) Phase() msg.Phase           { return m.phase }

// sends counts the point-to-point sends the node allows, up to want.
func sends(n *Node, want int) int {
	for i := 0; i < want; i++ {
		if !n.AllowSend() {
			return i
		}
	}
	return want
}

func TestHarnessInertWithoutPlan(t *testing.T) {
	m := &scripted{id: 2}
	n := NewNode(m, faults.Plan{0: {Process: 0}}, false)
	if !n.Awaited() || !n.Correct() {
		t.Fatal("a correct process outside the plan is not awaited")
	}
	if n.Start() == nil || sends(&n, 100) != 100 {
		t.Fatal("a node without a crash plan refused a send")
	}
	for phase := msg.Phase(1); phase <= 50; phase++ {
		m.next = func(m *scripted) { m.phase = phase }
		if n.Step(&msg.Message{}) == nil || sends(&n, 10) != 10 {
			t.Fatalf("a node without a crash plan refused a send in phase %d", phase)
		}
	}
	if n.Dead() || n.Died() {
		t.Fatal("a node without a crash plan died")
	}
}

func TestHarnessInitiallyDead(t *testing.T) {
	n := NewNode(&scripted{id: 1}, faults.InitiallyDead(1), false)
	if n.Awaited() {
		t.Fatal("a crash-planned process is awaited")
	}
	if n.Dead() {
		t.Fatal("dead before its first step")
	}
	// The machine still takes its Start step; every send is refused.
	if outs := n.Start(); len(outs) != 1 {
		t.Fatalf("Start returned %d outbounds, want the machine's 1", len(outs))
	}
	if !n.Dead() || sends(&n, 1) != 0 {
		t.Fatal("an initially dead process may send")
	}
	if !n.Died() {
		t.Fatal("death not reported")
	}
	if n.Died() {
		t.Fatal("death reported twice")
	}
}

func TestHarnessCrashMidBroadcast(t *testing.T) {
	m := &scripted{id: 0}
	n := NewNode(m, faults.Plan{0: {Process: 0, Phase: 2, AfterSends: 3}}, false)

	// Phases 0 and 1: unlimited sends.
	n.Start()
	if sends(&n, 10) != 10 {
		t.Fatal("send refused in phase 0")
	}
	m.next = func(m *scripted) { m.phase = 1 }
	n.Step(&msg.Message{})
	if sends(&n, 10) != 10 {
		t.Fatal("send refused in phase 1")
	}

	// Phase 2: exactly 3 sends complete, the 4th kills the process.
	m.next = func(m *scripted) { m.phase = 2 }
	if n.Step(&msg.Message{}) == nil || n.Dead() {
		t.Fatal("died at phase entry despite a positive send budget")
	}
	if got := sends(&n, 10); got != 3 {
		t.Fatalf("%d sends allowed in the crash phase, want 3", got)
	}
	if !n.Dead() || !n.Died() || n.Died() {
		t.Fatal("a mid-broadcast death is not reported exactly once")
	}
}

func TestHarnessDiesAtPhaseWithoutSends(t *testing.T) {
	// A zero send budget at phase 3 kills the process the moment a step
	// reaches phase 3: the step's sends never happen.
	m := &scripted{id: 4}
	n := NewNode(m, faults.Plan{4: {Process: 4, Phase: 3}}, false)
	n.Start()
	m.next = func(m *scripted) { m.phase = 2 }
	if n.Step(&msg.Message{}) == nil || n.Dead() {
		t.Fatal("died before its crash phase")
	}
	m.next = func(m *scripted) { m.phase = 3 }
	if outs := n.Step(&msg.Message{}); outs != nil {
		t.Fatalf("the dying step returned sends %v", outs)
	}
	if !n.Dead() || !n.Died() {
		t.Fatal("survived reaching its crash phase with zero budget")
	}
}

func TestNodeDecidesInDyingStep(t *testing.T) {
	m := &scripted{id: 3}
	n := NewNode(m, faults.Plan{3: {Process: 3, Phase: 1}}, false)
	n.Start()
	m.next = func(m *scripted) { m.phase, m.value, m.decided = 1, msg.V1, true }
	if n.Step(&msg.Message{}) != nil {
		t.Fatal("the dying step returned sends")
	}
	if v, ok := n.Decision(); !ok || v != msg.V1 {
		t.Fatalf("decision in the dying step = %v, %v; want 1, true", v, ok)
	}
	if !n.Died() {
		t.Fatal("death in the deciding step not reported")
	}
	if _, ok := n.Decision(); ok {
		t.Fatal("decision reported twice")
	}
}

func TestNodeByzantineDecisionNeverRecorded(t *testing.T) {
	m := &scripted{id: 5, value: msg.V1, decided: true}
	n := NewNode(m, nil, true)
	if n.Correct() || n.Awaited() {
		t.Fatal("a Byzantine process counts toward agreement")
	}
	n.Start()
	n.Step(&msg.Message{})
	if _, ok := n.Decision(); ok {
		t.Fatal("a Byzantine decision was reported")
	}
}

func TestDecisionRecordSplit(t *testing.T) {
	r := NewDecisionRecord(3)
	if !r.Agreement || r.DecidedCount() != 0 {
		t.Fatal("an empty record must agree vacuously")
	}
	r.Decide(2, msg.V1, 4, 1.5)
	r.Decide(0, msg.V1, 3, 2.5)
	if !r.Agreement || r.Value != msg.V1 {
		t.Fatalf("unanimous record: agreement %v value %v", r.Agreement, r.Value)
	}
	r.Decide(1, msg.V0, 5, 3.5)
	if r.Agreement {
		t.Fatal("a split decision kept agreement")
	}
	if r.Value != msg.V1 {
		t.Fatalf("value %v, want the first decision's 1", r.Value)
	}
	if r.DecidedCount() != 3 || r.DecisionPhase[1] != 5 || r.DecisionTime[2] != 1.5 {
		t.Fatalf("record %+v", r)
	}
}
