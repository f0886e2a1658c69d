package explore

import (
	"fmt"
	"os"
	"testing"

	"resilient/internal/core"
	"resilient/internal/failstop"
	"resilient/internal/majority"
	"resilient/internal/msg"
)

// Adapters giving the concrete machines the explorable interface.

type fsMachine struct{ *failstop.Machine }

func (a fsMachine) CloneMachine() Machine { return fsMachine{a.Machine.Clone()} }

type majMachine struct{ *majority.Machine }

func (a majMachine) CloneMachine() Machine { return majMachine{a.Machine.Clone()} }

func failstopSpawn(n, k int) func(msg.ID, msg.Value) (Machine, error) {
	return func(self msg.ID, input msg.Value) (Machine, error) {
		m, err := failstop.New(core.Config{N: n, K: k, Self: self, Input: input}, nil)
		if err != nil {
			return nil, err
		}
		return fsMachine{m}, nil
	}
}

func majoritySpawn(n, k int) func(msg.ID, msg.Value) (Machine, error) {
	return func(self msg.ID, input msg.Value) (Machine, error) {
		m, err := majority.New(core.Config{N: n, K: k, Self: self, Input: input}, nil)
		if err != nil {
			return nil, err
		}
		return majMachine{m}, nil
	}
}

// TestFailStopConsistencyProvenUnanimous proves, by complete enumeration of
// every reachable configuration under every delivery schedule, that the
// Figure 1 protocol at n=3, k=1 with unanimous inputs never reaches a
// configuration with two different decisions. (The unanimous state spaces
// are small enough to exhaust outright.)
func TestFailStopConsistencyProvenUnanimous(t *testing.T) {
	n, k := 3, 1
	for _, v := range []msg.Value{msg.V0, msg.V1} {
		inputs := []msg.Value{v, v, v}
		res, err := Explore(Config{
			N: n, Inputs: inputs,
			Spawn:     failstopSpawn(n, k),
			MaxStates: 500_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != "" {
			t.Fatalf("inputs %v: consistency violated: %s", inputs, res.Violation)
		}
		if res.Truncated {
			t.Fatalf("inputs %v: truncated at %d states", inputs, res.States)
		}
		if res.DecidedStates == 0 {
			t.Fatalf("inputs %v: no reachable decided configuration", inputs)
		}
		t.Logf("inputs %v: %d states, %d transitions, consistency PROVEN",
			inputs, res.States, res.Transitions)
	}
}

// boundedBudget is the state budget of the two bounded explorations below:
// 60,000 states by default, which keeps the package inside tier-1's time
// budget, and 250,000 when RESILIENT_EXPLORE_FULL=1 (set in one CI lane).
func boundedBudget() int {
	if os.Getenv("RESILIENT_EXPLORE_FULL") == "1" {
		return 250_000
	}
	return 60_000
}

// TestFailStopConsistencyBoundedSplit model-checks the harder mixed-input
// patterns under a state budget: bounded verification rather than a full
// proof (the 2-vs-1 spaces run to millions of states), but every explored
// configuration must be consistent.
func TestFailStopConsistencyBoundedSplit(t *testing.T) {
	budget := boundedBudget()
	n, k := 3, 1
	for _, inputs := range [][]msg.Value{
		{1, 0, 0}, {0, 1, 1}, {1, 0, 1},
	} {
		res, err := Explore(Config{
			N: n, Inputs: inputs,
			Spawn:     failstopSpawn(n, k),
			MaxStates: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != "" {
			t.Fatalf("inputs %v: consistency violated: %s", inputs, res.Violation)
		}
		status := "PROVEN (space exhausted)"
		if res.Truncated {
			status = "bounded (budget reached)"
		}
		t.Logf("inputs %v: %d states checked, %s", inputs, res.States, status)
	}
}

// TestFailStopConsistencyWithCrashes additionally branches on killing one
// process at every configuration: the crash-augmented explored set must
// still contain no conflicting decisions.
func TestFailStopConsistencyWithCrashes(t *testing.T) {
	budget := boundedBudget()
	n, k := 3, 1
	inputs := []msg.Value{1, 0, 1}
	res, err := Explore(Config{
		N: n, Inputs: inputs,
		Spawn:      failstopSpawn(n, k),
		MaxCrashes: 1,
		MaxStates:  budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != "" {
		t.Fatalf("consistency violated under crashes: %s", res.Violation)
	}
	t.Logf("with crashes: %d states checked (truncated=%v)", res.States, res.Truncated)
}

// TestMajorityConsistencyBudgeted explores the never-halting majority
// variant at n=4, k=1 under a state budget. The variant's processes run
// forever, so the reachable set is infinite; within the budget no
// conflicting decisions may appear.
func TestMajorityConsistencyBudgeted(t *testing.T) {
	n, k := 4, 1
	res, err := Explore(Config{
		N: n, Inputs: []msg.Value{1, 1, 0, 0},
		Spawn:     majoritySpawn(n, k),
		MaxStates: 60_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != "" {
		t.Fatalf("consistency violated: %s", res.Violation)
	}
	if !res.Truncated {
		t.Logf("surprisingly finite: %d states", res.States)
	}
}

// TestExploreValidatesConfig covers the error paths.
func TestExploreValidatesConfig(t *testing.T) {
	if _, err := Explore(Config{N: 2, Inputs: []msg.Value{0}}); err == nil {
		t.Error("input length mismatch accepted")
	}
	if _, err := Explore(Config{N: 1, Inputs: []msg.Value{0}}); err == nil {
		t.Error("nil spawn accepted")
	}
	bad := func(msg.ID, msg.Value) (Machine, error) { return nil, fmt.Errorf("nope") }
	if _, err := Explore(Config{N: 1, Inputs: []msg.Value{0}, Spawn: bad}); err == nil {
		t.Error("spawn error swallowed")
	}
}

// TestExplorerCatchesABrokenProtocol plants a deliberately broken machine
// (decides its input immediately) and verifies the explorer reports the
// resulting disagreement -- guarding against a checker that can never fail.
func TestExplorerCatchesABrokenProtocol(t *testing.T) {
	res, err := Explore(Config{
		N: 2, Inputs: []msg.Value{0, 1},
		Spawn: func(self msg.ID, input msg.Value) (Machine, error) {
			return &brokenMachine{id: self, input: input}, nil
		},
		MaxStates: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == "" {
		t.Fatal("broken protocol passed the explorer")
	}
}

type brokenMachine struct {
	id      msg.ID
	input   msg.Value
	started bool
}

func (b *brokenMachine) ID() msg.ID { return b.id }
func (b *brokenMachine) Start() []core.Outbound {
	b.started = true
	return []core.Outbound{core.ToAll(msg.Val(b.id, 0, b.input))}
}
func (b *brokenMachine) OnMessage(msg.Message) []core.Outbound { return nil }
func (b *brokenMachine) Decided() (msg.Value, bool)            { return b.input, b.started }
func (b *brokenMachine) Halted() bool                          { return false }
func (b *brokenMachine) Phase() msg.Phase                      { return 0 }
func (b *brokenMachine) CloneMachine() Machine                 { c := *b; return &c }
func (b *brokenMachine) WouldIgnore(msg.Message) bool          { return true }
func (b *brokenMachine) Snapshot() []byte {
	f := byte(0)
	if b.started {
		f = 1
	}
	return []byte{byte(b.id), byte(b.input), f}
}
