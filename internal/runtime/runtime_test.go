package runtime

import (
	"testing"

	"resilient/internal/benor"
	"resilient/internal/coin"
	"resilient/internal/core"
	"resilient/internal/failstop"
	"resilient/internal/faults"
	"resilient/internal/majority"
	"resilient/internal/malicious"
	"resilient/internal/msg"
	"resilient/internal/policy"
)

func failStopSpawner(t *testing.T) Spawner {
	t.Helper()
	return func(ctx SpawnContext) (core.Machine, error) {
		return failstop.New(ctx.Config, ctx.Sink)
	}
}

func majoritySpawner(t *testing.T) Spawner {
	t.Helper()
	return func(ctx SpawnContext) (core.Machine, error) {
		return majority.New(ctx.Config, ctx.Sink)
	}
}

func maliciousSpawner(t *testing.T) Spawner {
	t.Helper()
	return func(ctx SpawnContext) (core.Machine, error) {
		return malicious.New(ctx.Config, ctx.Sink)
	}
}

func benorSpawner(t *testing.T, mode benor.Mode) Spawner {
	t.Helper()
	return func(ctx SpawnContext) (core.Machine, error) {
		return benor.NewWithCoin(ctx.Config, mode, coin.NewLocal(ctx.RNG), ctx.Sink)
	}
}

func mixedInputs(n int) []msg.Value {
	in := make([]msg.Value, n)
	for i := range in {
		in[i] = msg.Value(i % 2)
	}
	return in
}

func sameInputs(n int, v msg.Value) []msg.Value {
	in := make([]msg.Value, n)
	for i := range in {
		in[i] = v
	}
	return in
}

func requireConsensus(t *testing.T, res *Result, label string) {
	t.Helper()
	if res.Stalled != NotStalled {
		t.Fatalf("%s: stalled: %v", label, res.Stalled)
	}
	if !res.AllDecided {
		t.Fatalf("%s: not all correct processes decided (%d decisions)", label, res.DecidedCount())
	}
	if !res.Agreement {
		t.Fatalf("%s: agreement violated: %v", label, res.Decisions)
	}
}

func TestFailStopNoFaults(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		res, err := Run(Config{
			N: 7, K: 3, Inputs: mixedInputs(7),
			Spawn: failStopSpawner(t), Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		requireConsensus(t, res, "failstop")
	}
}

func TestFailStopUnanimousValidity(t *testing.T) {
	for _, v := range []msg.Value{msg.V0, msg.V1} {
		res, err := Run(Config{
			N: 9, K: 4, Inputs: sameInputs(9, v),
			Spawn: failStopSpawner(t), Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		requireConsensus(t, res, "failstop unanimous")
		if res.Value != v {
			t.Fatalf("validity violated: inputs all %d, decided %d", v, res.Value)
		}
	}
}

func TestFailStopWithCrashes(t *testing.T) {
	// Kill k processes at assorted phases, including mid-broadcast.
	plan := faults.Plan{
		0: {Process: 0, Phase: 0, AfterSends: 0}, // initially dead
		3: {Process: 3, Phase: 1, AfterSends: 4}, // mid-broadcast in phase 1
		5: {Process: 5, Phase: 2, AfterSends: 9},
	}
	for seed := uint64(0); seed < 20; seed++ {
		res, err := Run(Config{
			N: 7, K: 3, Inputs: mixedInputs(7),
			Spawn: failStopSpawner(t), Crashes: plan, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		requireConsensus(t, res, "failstop with crashes")
	}
}

func TestMajorityVariant(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		res, err := Run(Config{
			N: 10, K: 3, Inputs: mixedInputs(10),
			Spawn: majoritySpawner(t), Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		requireConsensus(t, res, "majority")
	}
}

func TestMaliciousAllHonest(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		res, err := Run(Config{
			N: 7, K: 2, Inputs: mixedInputs(7),
			Spawn: maliciousSpawner(t), Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		requireConsensus(t, res, "malicious all-honest")
	}
}

func TestMaliciousUnanimousValidity(t *testing.T) {
	res, err := Run(Config{
		N: 7, K: 2, Inputs: sameInputs(7, msg.V1),
		Spawn: maliciousSpawner(t), Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireConsensus(t, res, "malicious unanimous")
	if res.Value != msg.V1 {
		t.Fatalf("validity violated: decided %d", res.Value)
	}
}

func TestBenOrCrashMode(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		res, err := Run(Config{
			N: 7, K: 3, Inputs: mixedInputs(7),
			Spawn: benorSpawner(t, benor.Crash), Seed: seed,
			Policy: policy.Uniform{Min: 0.1, Max: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		requireConsensus(t, res, "benor crash")
	}
}

func TestBenOrByzantineModeHonest(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		res, err := Run(Config{
			N: 11, K: 2, Inputs: mixedInputs(11),
			Spawn: benorSpawner(t, benor.Byzantine), Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		requireConsensus(t, res, "benor byzantine-mode honest")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		res, err := Run(Config{
			N: 7, K: 3, Inputs: mixedInputs(7),
			Spawn: failStopSpawner(t), Seed: 12345,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.MessagesSent != b.MessagesSent || a.SimTime != b.SimTime || a.Value != b.Value ||
		a.Events != b.Events {
		t.Fatalf("same seed produced different executions:\n%+v\n%+v", a, b)
	}
}
