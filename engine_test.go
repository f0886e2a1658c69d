package resilient

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"resilient/internal/adversary"
	"resilient/internal/proto"
)

func unanimous(n int, v Value) []Value {
	inputs := make([]Value, n)
	for i := range inputs {
		inputs[i] = v
	}
	return inputs
}

// parityCase is one row of the engine-parity table: a scenario with
// unanimous inputs, the engines it runs on, and what its outcome must show.
type parityCase struct {
	sc      Scenario
	engines []Engine
	// crashed is the simulator's crash list; a live run is held to
	// checkLiveCrashed.
	crashed []ID
	// validity says the decision must be the unanimous input (false for a
	// protocol whose checker skips validity).
	validity bool
}

// runParity executes one parity row on each of its engines and checks that
// the engine-independent outcome is the same on every one: the run
// terminates, every process outside the fault plan and the adversaries
// decides and nobody else does, all decisions agree, and -- because the
// inputs are unanimous -- validity pins the decided value, so it must match
// across engines even though the schedules differ wildly.
func runParity(t *testing.T, tc parityCase) {
	t.Helper()
	var deciders []ID
	for id := range ID(tc.sc.N) {
		_, crashes := tc.sc.Crashes[id]
		_, adversary := tc.sc.Adversaries[id]
		if !crashes && !adversary {
			deciders = append(deciders, id)
		}
	}
	want := tc.sc.Inputs[0]
	for _, engine := range tc.engines {
		t.Run(engine.String(), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			out, err := RunScenario(ctx, engine, tc.sc)
			if err != nil {
				t.Fatalf("%v: %v", engine, err)
			}
			if out.Engine != engine {
				t.Fatalf("outcome of %v says engine %v", engine, out.Engine)
			}
			if !out.Terminated || !out.AllDecided {
				t.Fatalf("%v: terminated=%v allDecided=%v decisions=%+v", engine, out.Terminated, out.AllDecided, out.Decisions)
			}
			if !out.Agreement {
				t.Fatalf("%v: disagreement: %+v", engine, out.Decisions)
			}
			if tc.validity && (!out.Validity || out.Value != want) {
				t.Fatalf("%v: validity=%v decided %d, want the unanimous input %d", engine, out.Validity, out.Value, want)
			}
			var got []ID
			for id := range out.Decisions {
				got = append(got, id)
			}
			if slices.Sort(got); !slices.Equal(got, deciders) {
				t.Fatalf("%v: deciders %v, want %v", engine, got, deciders)
			}
			for id, v := range out.Decisions {
				if v != out.Value {
					t.Fatalf("%v: p%d decided %d, the outcome value is %d", engine, id, v, out.Value)
				}
			}
			// The simulator runs the whole plan. A live run ends when the
			// awaited processes have decided, which a planned mid-run crash
			// point may or may not have been reached by: there, only the
			// initially dead are certain, and nobody outside the plan dies.
			crashed := slices.Clone(out.Crashed)
			slices.Sort(crashed)
			if engine == EngineSim {
				if !slices.Equal(crashed, tc.crashed) {
					t.Fatalf("%v: crashed %v, want %v", engine, crashed, tc.crashed)
				}
				return
			}
			checkLiveCrashed(t, tc.sc.Crashes, crashed)
		})
	}
}

// checkLiveCrashed is what a live run's crash list can be held to: it ends
// when the awaited processes have decided, so a process planned to die
// mid-run is listed only if it got that far in time.
func checkLiveCrashed(t *testing.T, plan map[ID]Crash, crashed []ID) {
	t.Helper()
	for _, id := range crashed {
		if _, planned := plan[id]; !planned {
			t.Fatalf("p%d crashed outside the plan %v", id, plan)
		}
	}
	for id, c := range plan {
		if c.Phase == 0 && c.AfterSends == 0 && !slices.Contains(crashed, id) {
			t.Fatalf("initially dead p%d not in crashed %v", id, crashed)
		}
	}
}

// TestEngineParityFailStop runs one fail-stop scenario -- a mid-broadcast
// death and an initially-dead process, k faults in total -- on the
// simulator, the in-memory engine, and the TCP mesh.
func TestEngineParityFailStop(t *testing.T) {
	runParity(t, parityCase{
		sc: Scenario{
			Protocol: ProtocolFailStop,
			N:        7, K: 3,
			Inputs: unanimous(7, V1),
			Seed:   11,
			Crashes: map[ID]Crash{
				5: {Process: 5, Phase: 1, AfterSends: 3},
				6: {Process: 6, Phase: 0, AfterSends: 0},
			},
		},
		engines: allEngines, crashed: []ID{5, 6}, validity: true,
	})
}

// TestEngineParityMalicious runs one malicious scenario -- a constant liar
// plus a fail-stop crash, k faults in total -- on all three engines.
func TestEngineParityMalicious(t *testing.T) {
	runParity(t, parityCase{
		sc: Scenario{
			Protocol: ProtocolMalicious,
			N:        7, K: 2,
			Inputs: unanimous(7, V1),
			Seed:   5,
			Adversaries: map[ID]Strategy{
				5: StrategyLiar0,
			},
			Crashes: map[ID]Crash{
				6: {Process: 6, Phase: 0, AfterSends: 0},
			},
		},
		engines: allEngines, crashed: []ID{6}, validity: true,
	})
}

// TestEngineParityBenOrShared runs the shared-coin Ben-Or variant on all
// three engines. The shared coin derives flips from (run seed, phase)
// alone, so one read-only source serves every process concurrently -- the
// live engines exercise that concurrency for real.
func TestEngineParityBenOrShared(t *testing.T) {
	runParity(t, parityCase{
		sc: Scenario{
			Protocol: ProtocolBenOrShared,
			N:        7, K: 3,
			Inputs: unanimous(7, V1),
			Seed:   7,
		},
		engines: allEngines, validity: true,
	})
}

// TestEngineParityRegistry runs every registered protocol through the
// simulator and the in-memory engine at its own resilience bound,
// fault-free with unanimous inputs: all processes decide, they agree, and
// -- unless the protocol's checker skips validity -- the decision is the
// unanimous input. Directory-capable protocols run in their full-mesh
// fallback (no directory wired). Registering a protocol automatically
// enrolls it here.
func TestEngineParityRegistry(t *testing.T) {
	for _, p := range Protocols() {
		d, ok := proto.Lookup(p)
		if !ok {
			t.Fatalf("Protocols() returned unregistered %v", p)
		}
		t.Run(p.String(), func(t *testing.T) {
			runParity(t, parityCase{
				sc: Scenario{
					Protocol: p,
					N:        7, K: p.MaxFaults(7),
					Inputs: unanimous(7, V1),
					Seed:   9,
				},
				engines: []Engine{EngineSim, EngineMem}, validity: !d.SkipValidity,
			})
		})
	}
}

// TestTCPCrashAtPhasePlan drives a full crash-at-phase plan over real
// sockets: k of n processes die at planned points (one initially dead, one
// mid-broadcast, one at a phase boundary) and the n-k survivors, a strict
// majority, still decide.
func TestTCPCrashAtPhasePlan(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	plan := map[ID]Crash{
		2: {Process: 2, Phase: 1, AfterSends: 2},
		4: {Process: 4, Phase: 2, AfterSends: 0},
		6: {Process: 6, Phase: 0, AfterSends: 0},
	}
	out, err := RunScenario(ctx, EngineTCP, Scenario{
		Protocol: ProtocolFailStop,
		N:        7, K: 3,
		Inputs:  []Value{0, 1, 0, 1, 0, 1, 0},
		Seed:    3,
		Crashes: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.AllDecided || !out.Agreement {
		t.Fatalf("survivors failed to decide: %+v", out)
	}
	// The survivors need nothing from p2 or p4 after phase 0: on a busy
	// machine they decide before p4 has reached phase 2.
	checkLiveCrashed(t, plan, out.Crashed)
	if len(out.Decisions) != 4 {
		t.Fatalf("%d deciders, want 4", len(out.Decisions))
	}
	for _, id := range []ID{2, 4, 6} {
		if _, ok := out.Decisions[id]; ok {
			t.Fatalf("crashed p%d recorded a decision", id)
		}
	}
}

// TestBalancerIsSimOnly: the omniscient balancer strategy needs the
// simulator's world view; live engines must reject it up front instead of
// crashing mid-run.
func TestBalancerIsSimOnly(t *testing.T) {
	ctx := context.Background()
	_, err := RunScenario(ctx, EngineMem, Scenario{
		Protocol: ProtocolMalicious,
		N:        7, K: 2,
		Inputs:      unanimous(7, V1),
		Adversaries: map[ID]Strategy{6: StrategyBalancer},
	})
	if err == nil {
		t.Fatal("balancer accepted on a live engine")
	}
	// The same scenario must still run on the simulator.
	if _, err := RunScenario(ctx, EngineSim, Scenario{
		Protocol: ProtocolMalicious,
		N:        7, K: 2,
		Inputs:      unanimous(7, V1),
		Adversaries: map[ID]Strategy{6: StrategyBalancer},
	}); err != nil {
		t.Fatalf("balancer rejected on the simulator: %v", err)
	}
}

// TestParseEngine pins the flag-facing engine names: sim | mem | tcp, and
// nothing else -- "jitter" was an engine once and is a LinkPolicy now.
func TestParseEngine(t *testing.T) {
	for _, want := range []Engine{EngineSim, EngineMem, EngineTCP} {
		got, err := ParseEngine(want.String())
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v", want.String(), got, err)
		}
		if want.Live() != (want != EngineSim) {
			t.Errorf("%v.Live() = %v", want, want.Live())
		}
	}
	for _, name := range []string{"jitter", "quantum"} {
		_, err := ParseEngine(name)
		if err == nil || !strings.Contains(err.Error(), "sim | mem | tcp") {
			t.Errorf("ParseEngine(%q) = %v, want an error naming the three engines", name, err)
		}
	}
	if Engine(4).Valid() || Engine(0).Valid() {
		t.Error("an engine outside sim..tcp reported valid")
	}
}

// TestBridgeCoalitionEnablesBothSides is the Theorem 3 schedule shape as an
// end-to-end run: groups S = {0..3} and T = {2..6} overlap in a coalition
// {2, 3} that talks to both sides. Each side has at least n-k members, so
// with the coalition bridging them every process reaches its witness quorum
// and decides -- under a schedule where direct S-only/T-only traffic never
// flows.
func TestBridgeCoalitionEnablesBothSides(t *testing.T) {
	res, err := Simulate(ProtocolFailStop, 7, 3, unanimous(7, V1), SimOptions{
		Seed:       3,
		Policy:     adversary.Partition{GroupOf: adversary.Overlap(2, 4)},
		MaxSimTime: 1e5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided || !res.Agreement || res.Value != V1 {
		t.Fatalf("bridged run failed: allDecided=%v agreement=%v value=%d stalled=%v",
			res.AllDecided, res.Agreement, res.Value, res.Stalled)
	}
}

// TestPartitionStallsWhereBridgeDecides is the control for the bridge test:
// the same split without the coalition (a hard Halves(2) partition) leaves
// the small side short of its quorum, so the run cannot complete.
func TestPartitionStallsWhereBridgeDecides(t *testing.T) {
	res, err := Simulate(ProtocolFailStop, 7, 3, unanimous(7, V1), SimOptions{
		Seed:       3,
		Policy:     adversary.Partition{GroupOf: adversary.Halves(2)},
		MaxSimTime: 1e5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllDecided {
		t.Fatal("hard-partitioned run decided everywhere")
	}
	if res.Stalled != TimeHorizon {
		t.Fatalf("stalled = %v, want %v (cross traffic parked beyond the horizon)", res.Stalled, TimeHorizon)
	}
}

// TestPartitionPolicyDrainsInsteadOfHorizonChase: expressed as a link
// policy, the same partition drops cross traffic outright, so the simulator
// drains its queue and stops instead of chasing a 1e9-unit delivery
// horizon; the drops are accounted.
func TestPartitionPolicyDrainsInsteadOfHorizonChase(t *testing.T) {
	res, err := Simulate(ProtocolFailStop, 7, 3, unanimous(7, V1), SimOptions{
		Seed:   3,
		Policy: PartitionPolicy{GroupOf: HalvesPartition(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllDecided {
		t.Fatal("partition-policy run decided everywhere")
	}
	if res.Stalled != QueueDrained {
		t.Fatalf("stalled = %v, want %v", res.Stalled, QueueDrained)
	}
	if res.MessagesDropped == 0 {
		t.Fatal("no drops recorded under a partition policy")
	}
	// Dropped messages never enter the queue, so they can account for at
	// most the sent/delivered gap (the rest reached halted machines).
	if res.MessagesDropped > res.MessagesSent-res.MessagesDelivered {
		t.Fatalf("dropped %d exceeds sent %d - delivered %d",
			res.MessagesDropped, res.MessagesSent, res.MessagesDelivered)
	}
}

// TestScenarioSimMatchesSimulate: EngineSim through the scenario API is the
// same deterministic execution as calling Simulate directly.
func TestScenarioSimMatchesSimulate(t *testing.T) {
	sc := Scenario{
		Protocol: ProtocolFailStop,
		N:        7, K: 3,
		Inputs: []Value{0, 1, 0, 1, 0, 1, 0},
		Seed:   42,
	}
	out, err := RunScenario(context.Background(), EngineSim, sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(sc.Protocol, sc.N, sc.K, sc.Inputs, SimOptions{Seed: sc.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if out.Sim.SimTime != res.SimTime || out.Sim.MessagesSent != res.MessagesSent ||
		out.Value != res.Value || out.Sim.Events != res.Events {
		t.Fatalf("scenario sim diverged from Simulate: %+v vs %+v", out.Sim, res)
	}
}
