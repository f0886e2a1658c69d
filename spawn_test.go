package resilient

import (
	"context"
	"fmt"
	"reflect"
	goruntime "runtime"
	"testing"
	"time"

	"resilient/internal/core"
	"resilient/internal/machinetest"
	"resilient/internal/msg"
	"resilient/internal/runtime"
)

var allEngines = []Engine{EngineSim, EngineMem, EngineTCP}

// settleGoroutines waits for the goroutine count to come back down to base
// and returns the last count seen.
func settleGoroutines(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	return goruntime.NumGoroutine()
}

// TestScenarioValidationIsEngineIndependent: a malformed scenario is
// rejected with the same message on every engine, before any of them builds
// a machine or opens a socket (a listening endpoint would leave its accept
// goroutine behind).
func TestScenarioValidationIsEngineIndependent(t *testing.T) {
	good := func() Scenario {
		return Scenario{Protocol: ProtocolFailStop, N: 5, K: 2, Inputs: mixed(5), Seed: 1}
	}
	// A rejection takes no time; the deadline is for an engine that accepts
	// what it should not and then runs it.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for _, tc := range []struct {
		name   string
		break_ func(*Scenario)
	}{
		{"unknown protocol", func(sc *Scenario) { sc.Protocol = Protocol(99) }},
		{"n < 1", func(sc *Scenario) { sc.N, sc.K, sc.Inputs = 0, 0, nil }},
		{"inputs length", func(sc *Scenario) { sc.Inputs = mixed(4) }},
		{"input value", func(sc *Scenario) { sc.Inputs[3] = Value(2) }},
		{"k negative", func(sc *Scenario) { sc.K = -1 }},
		{"k = n", func(sc *Scenario) { sc.K, sc.Unsafe = 5, true }},
		{"k over the bound", func(sc *Scenario) { sc.K = 3 }},
		{"adversary id", func(sc *Scenario) { sc.Adversaries = map[ID]Strategy{7: StrategyLiar0} }},
		{"crash id", func(sc *Scenario) { sc.Crashes = map[ID]Crash{9: {Process: 9}} }},
		{"crash key", func(sc *Scenario) { sc.Crashes = map[ID]Crash{1: {Process: 2}} }},
		{"broadcast scheme", func(sc *Scenario) { sc.Broadcast = BroadcastScheme(9) }},
		{"coin scheme", func(sc *Scenario) { sc.Coin = CoinScheme(42) }},
		{"coin for a deterministic protocol", func(sc *Scenario) { sc.Coin = CoinShared }},
		{"no coin for a randomized protocol", func(sc *Scenario) { sc.Protocol, sc.Coin = ProtocolBenOrCrash, CoinNone }},
		{"sampled scheme with Unsafe", func(sc *Scenario) {
			sc.Protocol, sc.K, sc.Broadcast, sc.Unsafe = ProtocolMalicious, 1, SchemeSample, true
		}},
		{"sampled scheme without an echo stage", func(sc *Scenario) { sc.Broadcast = SchemeSample }},
		{"eps under the echo scheme", func(sc *Scenario) { sc.Eps = 1e-3 }},
		{"negative MaxEvents", func(sc *Scenario) { sc.MaxEvents = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := goruntime.NumGoroutine()
			var want string
			for _, engine := range allEngines {
				sc := good()
				tc.break_(&sc)
				out, err := RunScenario(ctx, engine, sc)
				if err == nil || out != nil {
					t.Fatalf("%v accepted the scenario: %+v", engine, out)
				}
				if want == "" {
					want = err.Error()
				} else if err.Error() != want {
					t.Errorf("%v says %q, %v says %q", engine, err, allEngines[0], want)
				}
			}
			if got := goruntime.NumGoroutine(); got > base {
				t.Errorf("%d goroutines before, %d after: a rejected scenario built something", base, got)
			}
		})
	}

	// The simulator-only knobs are the engine-dependent rules: both live
	// engines refuse the omniscient balancer and an event budget in the
	// same words, before they start anything (TestBalancerIsSimOnly and
	// TestScenarioMaxEventsOnSim run them on the simulator).
	for _, tc := range []struct {
		name    string
		simOnly func(*Scenario)
	}{
		{"balancer", func(sc *Scenario) {
			sc.Protocol, sc.K = ProtocolMalicious, 1
			sc.Adversaries = map[ID]Strategy{4: StrategyBalancer}
		}},
		{"MaxEvents", func(sc *Scenario) { sc.MaxEvents = 50 }},
	} {
		base := goruntime.NumGoroutine()
		sc := good()
		tc.simOnly(&sc)
		memOut, memErr := RunScenario(ctx, EngineMem, sc)
		tcpOut, tcpErr := RunScenario(ctx, EngineTCP, sc)
		if memErr == nil || tcpErr == nil || memErr.Error() != tcpErr.Error() || memOut != nil || tcpOut != nil {
			t.Errorf("%s off the simulator: mem %v, tcp %v", tc.name, memErr, tcpErr)
		}
		if got := goruntime.NumGoroutine(); got > base {
			t.Errorf("%s: %d goroutines before, %d after: a live engine started before refusing it", tc.name, base, got)
		}
	}
	if _, err := RunScenario(ctx, Engine(4), good()); err == nil {
		t.Error("a fourth engine ran")
	}
}

// TestScenarioMaxEventsOnSim: on the simulator a scenario's MaxEvents is the
// event budget -- 50 deliveries stall a fail-stop run, and the outcome says
// so.
func TestScenarioMaxEventsOnSim(t *testing.T) {
	out, err := RunScenario(context.Background(), EngineSim, Scenario{
		Protocol: ProtocolFailStop, N: 7, K: 3, Inputs: mixed(7), Seed: 1, MaxEvents: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Sim.Stalled != EventBudget || out.Sim.AllDecided {
		t.Errorf("stalled %v, all decided %v: want an event-budget stall", out.Sim.Stalled, out.Sim.AllDecided)
	}
}

// TestValidationNamesLowestID: a scenario with two faulty ids is refused in
// the same words on every run, naming the lowest id -- not whichever one the
// walk over the map met first.
func TestValidationNamesLowestID(t *testing.T) {
	for _, tc := range []struct {
		sc   Scenario
		want string
	}{
		{Scenario{Protocol: ProtocolMalicious, N: 7, K: 2, Inputs: mixed(7),
			Adversaries: map[ID]Strategy{7: StrategyLiar0, 8: StrategyLiar1}},
			"resilient: adversary 7 outside 0..6"},
		{Scenario{Protocol: ProtocolFailStop, N: 7, K: 3, Inputs: mixed(7),
			Crashes: map[ID]Crash{7: {Process: 7}, 8: {Process: 8}}},
			"resilient: faults: crash process p7 outside 0..6"},
	} {
		seen := map[string]bool{}
		for i := 0; i < 64; i++ {
			if _, err := RunScenario(context.Background(), EngineSim, tc.sc); err != nil {
				seen[err.Error()] = true
			}
		}
		if len(seen) != 1 || !seen[tc.want] {
			t.Errorf("64 validations said %v, want only %q", seen, tc.want)
		}
	}
}

// TestRejectedTCPScenarioLeaksNothing: an EngineTCP scenario whose crash
// plan names a process outside 0..n-1 used to open its n-socket mesh before
// the plan was looked at, and leave the listeners and their accept
// goroutines behind.
func TestRejectedTCPScenarioLeaksNothing(t *testing.T) {
	base := goruntime.NumGoroutine()
	for i := 0; i < 5; i++ {
		_, err := RunScenario(context.Background(), EngineTCP, Scenario{
			Protocol: ProtocolFailStop, N: 5, K: 2, Inputs: mixed(5),
			Crashes: map[ID]Crash{9: {Process: 9}},
		})
		if err == nil {
			t.Fatal("crash plan for p9 accepted at n=5")
		}
	}
	if got := settleGoroutines(base); got > base {
		t.Errorf("%d goroutines before five rejected scenarios, %d after", base, got)
	}
}

// lockstep is a balanced lockstep execution as process self sees it, in
// every protocol's dialect at once: each phase, every other process says its
// value (alternating by id) in each wire kind and proposes "?" -- so a
// deterministic machine steps through its phases and a coin machine, never
// shown a majority, flips in every round.
func lockstep(n int, self ID, phases int) []msg.Message {
	var script []msg.Message
	for ph := Phase(0); int(ph) < phases; ph++ {
		for from := ID(0); int(from) < n; from++ {
			if from == self {
				continue
			}
			v := Value(from % 2)
			script = append(script,
				msg.State(from, ph, v, 1), msg.Val(from, ph, v), msg.Initial(from, ph, v),
				msg.Gossip(from, 0, ph, V1), msg.Ready(from, 0, ph, V1),
				msg.BenOrReport(from, ph, v), msg.BenOrProposal(from, ph, V0, true))
			for subject := ID(0); int(subject) < n; subject++ {
				script = append(script, msg.Echo(from, subject, ph, Value(subject%2)))
			}
		}
	}
	return script
}

// TestSpawnPathMatchesNewMachine pins the seed derivation of the one spawn
// path against the public constructor: for every registered protocol and
// every coin scheme it can run under, process i's machine as the live
// engines and the log build it equals NewMachine with the documented
// CoinSeed -- seed ^ (i+1)*0x9e3779b97f4a7c15 under the local scheme, the
// seed itself under the shared one -- in everything it sends along one
// scripted execution, for a scenario seed and for a log slot's seed.
func TestSpawnPathMatchesNewMachine(t *testing.T) {
	const n = 7
	slot := (&logRun{seed: 42}).slotSeed(3)
	for _, p := range Protocols() {
		schemes := []CoinScheme{CoinAuto}
		if p.NeedsCoin() {
			schemes = []CoinScheme{CoinLocal, CoinShared}
		}
		for _, scheme := range schemes {
			t.Run(fmt.Sprintf("%v/%v", p, scheme), func(t *testing.T) {
				k := p.MaxFaults(n)
				sc := Scenario{Protocol: p, N: n, K: k, Inputs: mixed(n), Seed: 42, Coin: scheme}
				base, err := validate(&sc, EngineMem)
				if err != nil {
					t.Fatal(err)
				}
				for _, seed := range []uint64{sc.Seed, slot} {
					sp := base.Reseeded(seed)
					flips := false
					for i := 0; i < n; i++ {
						cfg := core.Config{N: n, K: k, Self: ID(i), Input: sc.Inputs[i]}
						spawned, err := sp.Spawn(runtime.SpawnContext{Config: cfg})
						if err != nil {
							t.Fatal(err)
						}
						mc := MachineConfig{N: n, K: k, Self: ID(i), Input: sc.Inputs[i], Coin: scheme, CoinSeed: seed}
						if sp.Scheme() == CoinLocal {
							mc.CoinSeed = seed ^ uint64(i+1)*0x9e3779b97f4a7c15
						}
						public, err := NewMachine(p, mc)
						if err != nil {
							t.Fatal(err)
						}
						script := lockstep(n, ID(i), 6)
						want := machinetest.Replay(spawned, script)
						if got := machinetest.Replay(public, script); !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %#x p%d: NewMachine sent %d outbounds, the spawn path %d, and they differ",
								seed, i, len(got), len(want))
						}
						// The comparison only has teeth if the script reaches
						// the coin: another seed must change what is sent.
						mc.CoinSeed++
						other, err := NewMachine(p, mc)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(machinetest.Replay(other, script), want) {
							flips = true
						}
					}
					if flips != p.NeedsCoin() {
						t.Errorf("seed %#x: coin seed changes the outbounds = %v, protocol draws a coin = %v",
							seed, flips, p.NeedsCoin())
					}
				}
			})
		}
	}
}
