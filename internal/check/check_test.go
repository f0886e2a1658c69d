package check

import (
	"math/rand/v2"
	"testing"

	"resilient/internal/core"
	"resilient/internal/failstop"
	"resilient/internal/faults"
	"resilient/internal/malicious"
	"resilient/internal/msg"
	"resilient/internal/runtime"
	"resilient/internal/trace"
)

func runChecked(t *testing.T, protocol string, n, k int, inputs []msg.Value,
	plan faults.Plan, byz map[msg.ID]bool, seed uint64) []Violation {
	t.Helper()
	buf := trace.NewBuffer(0)
	spawn := func(ctx runtime.SpawnContext) (core.Machine, error) {
		if protocol == "malicious" {
			return malicious.New(ctx.Config, ctx.Sink)
		}
		return failstop.New(ctx.Config, ctx.Sink)
	}
	res, err := runtime.Run(runtime.Config{
		N: n, K: k, Inputs: inputs,
		Spawn:     spawn,
		Crashes:   plan,
		Byzantine: byz,
		Seed:      seed,
		Sink:      buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Run(Config{
		N: n, K: k, Inputs: inputs, Byzantine: byz, Protocol: protocol,
	}, buf.Events(), res)
}

func TestCleanFailStopRuns(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewPCG(seed, 1))
		inputs := make([]msg.Value, 7)
		for i := range inputs {
			inputs[i] = msg.Value(rng.IntN(2))
		}
		plan := faults.Random(rng, 7, 3, 3)
		if vs := runChecked(t, "failstop", 7, 3, inputs, plan, nil, seed); len(vs) > 0 {
			t.Fatalf("seed %d: violations: %v", seed, vs)
		}
	}
}

func TestCleanMaliciousRuns(t *testing.T) {
	for seed := uint64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewPCG(seed, 2))
		inputs := make([]msg.Value, 7)
		for i := range inputs {
			inputs[i] = msg.Value(rng.IntN(2))
		}
		if vs := runChecked(t, "malicious", 7, 2, inputs, nil, nil, seed); len(vs) > 0 {
			t.Fatalf("seed %d: violations: %v", seed, vs)
		}
	}
}

func TestDetectsDisagreement(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.EventDecide, Process: 0, Phase: 2, Value: msg.V0},
		{Kind: trace.EventDecide, Process: 1, Phase: 2, Value: msg.V1},
	}
	vs := Run(Config{N: 2, K: 0}, events, nil)
	if !hasViolation(vs, "agreement") {
		t.Fatalf("disagreement not detected: %v", vs)
	}
}

// TestDisagreementViolationDeterministic pins the agreement violation's
// wording: the deciders are walked in id order, so repeated checks of one
// disagreeing trace name the same process and the same two values.
func TestDisagreementViolationDeterministic(t *testing.T) {
	var events []trace.Event
	for p := msg.ID(0); p < 8; p++ {
		events = append(events, trace.Event{Kind: trace.EventDecide, Process: p, Phase: 2, Value: msg.Value(p / 5)})
	}
	const want = "agreement (p5): decided 1 while another process decided 0"
	for i := 0; i < 20; i++ {
		vs := Run(Config{N: 8, K: 0}, events, nil)
		if len(vs) != 1 || vs[0].String() != want {
			t.Fatalf("check %d: violations %v, want exactly %q", i, vs, want)
		}
	}
}

func TestDetectsDoubleDecision(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.EventDecide, Process: 0, Phase: 2, Value: msg.V0},
		{Kind: trace.EventDecide, Process: 0, Phase: 3, Value: msg.V1},
	}
	vs := Run(Config{N: 1, K: 0}, events, nil)
	if !hasViolation(vs, "write-once-decision") {
		t.Fatalf("double decision not detected: %v", vs)
	}
}

func TestDetectsPhaseRegression(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.EventPhase, Process: 0, Phase: 3},
		{Kind: trace.EventPhase, Process: 0, Phase: 1},
	}
	vs := Run(Config{N: 1, K: 0}, events, nil)
	if !hasViolation(vs, "phase-monotonicity") {
		t.Fatalf("phase regression not detected: %v", vs)
	}
}

func TestDetectsValidityViolation(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.EventDecide, Process: 0, Phase: 2, Value: msg.V1},
	}
	vs := Run(Config{N: 2, K: 0, Inputs: []msg.Value{0, 0}}, events, nil)
	if !hasViolation(vs, "validity") {
		t.Fatalf("validity violation not detected: %v", vs)
	}
}

func TestDetectsUnsupportedFailStopDecision(t *testing.T) {
	// A decide event with no preceding witnesses.
	events := []trace.Event{
		{Kind: trace.EventDecide, Process: 0, Phase: 2, Value: msg.V1},
	}
	vs := Run(Config{N: 5, K: 2, Protocol: "failstop"}, events, nil)
	if !hasViolation(vs, "decision-support") {
		t.Fatalf("unsupported decision not detected: %v", vs)
	}
}

func TestDetectsUnsupportedMaliciousDecision(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.EventAccept, Process: 0, Phase: 1, Value: msg.V1},
		{Kind: trace.EventAccept, Process: 0, Phase: 1, Value: msg.V1},
		{Kind: trace.EventDecide, Process: 0, Phase: 1, Value: msg.V1},
	}
	// n=7, k=2: needs > 4.5 accepts, only 2 present.
	vs := Run(Config{N: 7, K: 2, Protocol: "malicious"}, events, nil)
	if !hasViolation(vs, "decision-support") {
		t.Fatalf("unsupported decision not detected: %v", vs)
	}
}

func TestDetectsSendAfterCrash(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.EventCrash, Process: 0, Time: 1},
		{Kind: trace.EventSend, Process: 0, Time: 2},
	}
	vs := Run(Config{N: 1, K: 0}, events, nil)
	if !hasViolation(vs, "silence-after-crash") {
		t.Fatalf("zombie send not detected: %v", vs)
	}
}

func TestDetectsTraceResultMismatch(t *testing.T) {
	res := &runtime.Result{Decisions: map[msg.ID]msg.Value{0: msg.V1}}
	vs := Run(Config{N: 1, K: 0}, nil, res)
	if !hasViolation(vs, "trace-consistency") {
		t.Fatalf("mismatch not detected: %v", vs)
	}
}

func TestByzantineExempt(t *testing.T) {
	// A Byzantine process "deciding" a conflicting value is not a
	// violation.
	events := []trace.Event{
		{Kind: trace.EventDecide, Process: 0, Phase: 2, Value: msg.V0},
		{Kind: trace.EventDecide, Process: 1, Phase: 2, Value: msg.V1},
	}
	vs := Run(Config{N: 2, K: 1, Byzantine: map[msg.ID]bool{1: true}}, events, nil)
	if hasViolation(vs, "agreement") {
		t.Fatalf("byzantine decision flagged: %v", vs)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Invariant: "agreement", Process: 3, Detail: "boom"}
	if v.String() == "" {
		t.Error("empty string")
	}
	g := Violation{Invariant: "global", Process: -1, Detail: "boom"}
	if g.String() == "" {
		t.Error("empty global string")
	}
}

func hasViolation(vs []Violation, invariant string) bool {
	for _, v := range vs {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}
