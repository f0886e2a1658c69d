package faults

import (
	"math/rand/v2"
	"testing"

	"resilient/internal/msg"
)

func TestPlanValidate(t *testing.T) {
	good := Plan{
		1: {Process: 1, Phase: 0, AfterSends: 3},
		4: {Process: 4, Phase: 2, AfterSends: 0},
	}
	if err := good.Validate(5); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}
	bad := []Plan{
		{1: {Process: 2}},                           // key mismatch
		{9: {Process: 9}},                           // out of range
		{1: {Process: 1, Phase: -1}},                // negative phase
		{1: {Process: 1, Phase: 0, AfterSends: -2}}, // negative sends
		{msg.ID(-1): {Process: -1, Phase: 0}},       // negative id
		{3: {Process: 3, Phase: 0, AfterSends: -1}}, // negative sends again
	}
	for i, p := range bad {
		if err := p.Validate(5); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
}

func TestInitiallyDead(t *testing.T) {
	p := InitiallyDead(2, 4)
	if len(p) != 2 {
		t.Fatalf("size %d", len(p))
	}
	for _, id := range []msg.ID{2, 4} {
		c := p[id]
		if c.Phase != 0 || c.AfterSends != 0 {
			t.Errorf("p%d: %+v not initially dead", id, c)
		}
	}
	ids := p.Processes()
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 4 {
		t.Errorf("Processes() = %v", ids)
	}
}

func TestRandomPlan(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	p := Random(rng, 10, 4, 5)
	if len(p) != 4 {
		t.Fatalf("size %d", len(p))
	}
	if err := p.Validate(10); err != nil {
		t.Fatalf("random plan invalid: %v", err)
	}
	// f > n clamps.
	p2 := Random(rng, 3, 10, 2)
	if len(p2) != 3 {
		t.Errorf("clamped size %d", len(p2))
	}
}

func TestTrackerNoPlanNeverDies(t *testing.T) {
	tr := NewTracker(None(), 0)
	for i := 0; i < 1000; i++ {
		if !tr.AllowSend(msg.Phase(i)) {
			t.Fatal("inert tracker denied a send")
		}
	}
	tr.CheckPhase(999)
	if tr.Dead() {
		t.Error("inert tracker died")
	}
}

func TestTrackerDiesAfterBudget(t *testing.T) {
	p := Plan{0: {Process: 0, Phase: 2, AfterSends: 3}}
	tr := NewTracker(p, 0)
	// Before the crash phase: unlimited sends.
	for i := 0; i < 50; i++ {
		if !tr.AllowSend(1) {
			t.Fatal("denied before crash phase")
		}
	}
	// At the crash phase: exactly 3 more sends.
	for i := 0; i < 3; i++ {
		if !tr.AllowSend(2) {
			t.Fatalf("send %d denied within budget", i)
		}
	}
	if tr.AllowSend(2) {
		t.Fatal("send allowed beyond budget")
	}
	if !tr.Dead() {
		t.Fatal("not dead after budget exhausted")
	}
	if tr.AllowSend(5) {
		t.Fatal("dead process sent")
	}
}

func TestTrackerArmsOnLaterPhase(t *testing.T) {
	// A process that skips past its crash phase still dies.
	p := Plan{0: {Process: 0, Phase: 1, AfterSends: 0}}
	tr := NewTracker(p, 0)
	if !tr.AllowSend(0) {
		t.Fatal("phase 0 send denied")
	}
	if tr.AllowSend(3) {
		t.Fatal("send allowed at phase 3 > crash phase with zero budget")
	}
	if !tr.Dead() {
		t.Fatal("not dead")
	}
}

func TestTrackerCheckPhaseKillsSilently(t *testing.T) {
	p := Plan{0: {Process: 0, Phase: 2, AfterSends: 0}}
	tr := NewTracker(p, 0)
	tr.CheckPhase(1)
	if tr.Dead() {
		t.Fatal("died early")
	}
	tr.CheckPhase(2)
	if !tr.Dead() {
		t.Fatal("CheckPhase did not kill at crash phase with zero budget")
	}
}

func TestTrackerPartialBudgetSurvivesPhaseCheck(t *testing.T) {
	p := Plan{0: {Process: 0, Phase: 2, AfterSends: 2}}
	tr := NewTracker(p, 0)
	tr.CheckPhase(2)
	if tr.Dead() {
		t.Fatal("killed with remaining budget")
	}
	if !tr.AllowSend(2) || !tr.AllowSend(2) {
		t.Fatal("budgeted sends denied")
	}
	if tr.AllowSend(2) {
		t.Fatal("budget not enforced")
	}
}

func TestCrashString(t *testing.T) {
	c := Crash{Process: 3, Phase: 1, AfterSends: 4}
	if c.String() == "" {
		t.Error("empty string")
	}
}
