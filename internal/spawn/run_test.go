package spawn

import (
	"context"
	"testing"
	"time"

	"resilient/internal/metrics"
	"resilient/internal/msg"
	"resilient/internal/policy"
	"resilient/internal/proto"
	"resilient/internal/runtime"
)

// TestFold pins the one Outcome builder: weak validity reads the inputs of
// the non-adversary processes only, the phase span covers every decider,
// and a run terminates only when everyone awaited decided without a stall.
func TestFold(t *testing.T) {
	rec := func(decisions map[msg.ID]msg.Value, phases map[msg.ID]msg.Phase) policy.DecisionRecord {
		r := policy.NewDecisionRecord(4)
		for _, id := range []msg.ID{0, 1, 2, 3} {
			if v, ok := decisions[id]; ok {
				r.Decide(id, v, phases[id], 0)
			}
		}
		r.AllDecided = len(decisions) == 3
		return r
	}
	ones := []msg.Value{msg.V1, msg.V1, msg.V1, msg.V0}
	liar := map[msg.ID]Strategy{3: Liar0}
	for _, tc := range []struct {
		name                 string
		sc                   Scenario
		decisions            map[msg.ID]msg.Value
		stalled              runtime.StallReason
		terminated, validity bool
		first, last          int
	}{
		{"unanimous but for the adversary, kept", Scenario{N: 4, Inputs: ones, Adversaries: liar},
			map[msg.ID]msg.Value{0: 1, 1: 1, 2: 1}, runtime.NotStalled, true, true, 1, 3},
		{"unanimous but for the adversary, broken", Scenario{N: 4, Inputs: ones, Adversaries: liar},
			map[msg.ID]msg.Value{0: 0, 1: 0, 2: 0}, runtime.NotStalled, true, false, 1, 3},
		{"mixed inputs hold it trivially", Scenario{N: 4, Inputs: ones},
			map[msg.ID]msg.Value{0: 0, 1: 0, 2: 0}, runtime.NotStalled, true, true, 1, 3},
		{"a stall is not termination", Scenario{N: 4, Inputs: ones, Adversaries: liar},
			map[msg.ID]msg.Value{0: 1, 1: 1, 2: 1}, runtime.EventBudget, false, true, 1, 3},
		{"nobody decided", Scenario{N: 4, Inputs: ones, Adversaries: liar},
			nil, runtime.QueueDrained, false, true, 0, 0},
	} {
		phases := map[msg.ID]msg.Phase{0: 3, 1: 1, 2: 2}
		out := tc.sc.fold(EngineMem, rec(tc.decisions, phases), tc.stalled, 9, 0)
		if out.Engine != EngineMem || out.Terminated != tc.terminated || out.Validity != tc.validity ||
			out.FirstPhase != tc.first || out.Phases != tc.last || out.Stalled != tc.stalled || out.Messages != 9 {
			t.Errorf("%s: %+v", tc.name, out)
		}
	}
}

// TestLiveRunCountsSends: a live run's Outcome.Messages is the sends its
// drivers made, the same count the livenet.messages_sent counter adds.
func TestLiveRunCountsSends(t *testing.T) {
	reg := metrics.NewRegistry()
	for _, engine := range []Engine{EngineMem, EngineTCP} {
		before := reg.Snapshot().Counters["livenet.messages_sent"]
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		out, err := Run(ctx, engine, Scenario{
			Protocol: proto.FailStop, N: 5, K: 2,
			Inputs:  []msg.Value{1, 0, 1, 0, 1},
			Seed:    1,
			Metrics: reg,
		})
		cancel()
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		delta := reg.Snapshot().Counters["livenet.messages_sent"] - before
		if out.Messages <= 0 || int64(out.Messages) != delta {
			t.Errorf("%v: Messages = %d, livenet.messages_sent rose by %d", engine, out.Messages, delta)
		}
	}
}
