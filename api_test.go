package resilient

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVerifyCleanRun(t *testing.T) {
	inputs := mixed(7)
	buf := NewTraceBuffer(0)
	res, err := Simulate(ProtocolFailStop, 7, 3, inputs, SimOptions{Seed: 5, Trace: buf})
	if err != nil {
		t.Fatal(err)
	}
	if vs := Verify(ProtocolFailStop, 7, 3, inputs, nil, buf, res); len(vs) > 0 {
		t.Fatalf("violations on clean run: %v", vs)
	}
}

func TestVerifyMaliciousWithAdversaries(t *testing.T) {
	inputs := mixed(7)
	adv := map[ID]Strategy{5: StrategyEquivocator, 6: StrategyBalancer}
	buf := NewTraceBuffer(0)
	res, err := Simulate(ProtocolMalicious, 7, 2, inputs, SimOptions{
		Seed: 9, Trace: buf, Adversaries: adv,
	})
	if err != nil {
		t.Fatal(err)
	}
	if vs := Verify(ProtocolMalicious, 7, 2, inputs, adv, buf, res); len(vs) > 0 {
		t.Fatalf("violations: %v", vs)
	}
}

func TestDecisionSplit(t *testing.T) {
	split, err := DecisionSplit(30, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(split) != 31 {
		t.Fatalf("len %d", len(split))
	}
	if split[0] != 0 || split[30] != 1 {
		t.Errorf("endpoints %v, %v", split[0], split[30])
	}
	// More initial ones, (weakly) more likely to decide 1.
	for i := 1; i <= 30; i++ {
		if split[i] < split[i-1]-1e-9 {
			t.Fatalf("split not monotone at %d", i)
		}
	}
}

func TestSimulateUnsafeBypassesBound(t *testing.T) {
	// k beyond the bound is rejected normally and accepted with Unsafe.
	if _, err := Simulate(ProtocolFailStop, 6, 3, mixed(6), SimOptions{}); err == nil {
		t.Fatal("over-bound k accepted without Unsafe")
	}
	res, err := Simulate(ProtocolFailStop, 6, 3, mixed(6), SimOptions{
		Unsafe: true, MaxSimTime: 50,
	})
	if err != nil {
		t.Fatalf("unsafe rejected: %v", err)
	}
	// With k = n/2 Figure 1 cannot decide; it must stall without
	// disagreeing.
	if !res.Agreement {
		t.Fatal("unsafe run broke agreement")
	}
}

func TestSimulateTraceCapturesDecides(t *testing.T) {
	buf := NewTraceBuffer(0)
	res, err := Simulate(ProtocolFailStop, 5, 2, mixed(5), SimOptions{Seed: 2, Trace: buf})
	if err != nil {
		t.Fatal(err)
	}
	decides := 0
	for _, e := range buf.Events() {
		if e.Kind.String() == "decide" {
			decides++
		}
	}
	if decides != res.DecidedCount() {
		t.Fatalf("%d decide events, %d decisions", decides, res.DecidedCount())
	}
}

func TestAnalyzeConsistency(t *testing.T) {
	// The public wrappers must agree with each other: bound dominates
	// exact for the paper's parametrization.
	for _, n := range []int{30, 60} {
		an, err := AnalyzeFailStop(n, n/3)
		if err != nil {
			t.Fatal(err)
		}
		if b := FailStopPhaseBound(n, DefaultBandL); an.FromBalanced > b {
			t.Errorf("n=%d: exact %v > bound %v", n, an.FromBalanced, b)
		}
		if len(an.ByState) != n+1 {
			t.Errorf("ByState length %d", len(an.ByState))
		}
	}
}

func TestMaliciousPhaseBoundMonotone(t *testing.T) {
	prev := 0.0
	for _, l := range []float64{0.1, 0.5, 1, 1.5, 2, 2.5} {
		b := MaliciousPhaseBound(l)
		if b <= prev {
			t.Fatalf("bound not increasing at l=%v: %v <= %v", l, b, prev)
		}
		if math.IsNaN(b) || math.IsInf(b, 0) {
			t.Fatalf("bound at l=%v is %v", l, b)
		}
		prev = b
	}
}

func TestProtocolStringsAndValidity(t *testing.T) {
	for _, p := range Protocols() {
		if !p.Valid() {
			t.Errorf("%v invalid", p)
		}
		if p.String() == "" {
			t.Errorf("protocol %d unnamed", int(p))
		}
	}
	if Protocol(0).Valid() || Protocol(99).Valid() {
		t.Error("out-of-range protocol valid")
	}
	if _, err := Simulate(Protocol(99), 3, 1, mixed(3), SimOptions{}); err == nil {
		t.Error("unknown protocol simulated")
	}
}

func TestNewMachinePublic(t *testing.T) {
	m, err := NewMachine(ProtocolFailStop, MachineConfig{N: 5, K: 2, Self: 1, Input: V1})
	if err != nil {
		t.Fatal(err)
	}
	if m.ID() != 1 {
		t.Errorf("id %d", m.ID())
	}
	if outs := m.Start(); len(outs) != 1 {
		t.Errorf("start outs %d", len(outs))
	}
	// Ben-Or machines build directly through NewMachine: the registry
	// resolves the coin scheme and seeds the coin from CoinSeed.
	if _, err := NewMachine(ProtocolBenOrCrash, MachineConfig{N: 5, K: 2, CoinSeed: 1}); err != nil {
		t.Errorf("NewMachine(ProtocolBenOrCrash): %v", err)
	}
	if _, err := NewMachine(ProtocolBenOrShared, MachineConfig{N: 5, K: 2, CoinSeed: 1}); err != nil {
		t.Errorf("NewMachine(ProtocolBenOrShared): %v", err)
	}
	// Coin overrides that contradict the protocol are rejected.
	if _, err := NewMachine(ProtocolFailStop, MachineConfig{N: 5, K: 2, Coin: CoinShared}); err == nil {
		t.Error("coin override accepted for a deterministic protocol")
	}
	if _, err := NewMachine(ProtocolBenOrCrash, MachineConfig{N: 5, K: 2, Coin: CoinNone}); err == nil {
		t.Error("coinless override accepted for a randomized protocol")
	}
}

func TestStrategyStrings(t *testing.T) {
	for s := StrategySilent; s <= StrategyMute; s++ {
		if s.String() == "" {
			t.Errorf("strategy %d unnamed", int(s))
		}
	}
}

func TestSimulatePropertyQuick(t *testing.T) {
	// Property: every in-bound fail-stop configuration with random inputs
	// and random crash plans terminates in agreement.
	f := func(seedLo, seedHi uint16, nRaw, split uint8) bool {
		n := 3 + int(nRaw%9) // 3..11
		k := (n - 1) / 2
		seed := uint64(seedLo)<<16 | uint64(seedHi)
		inputs := make([]Value, n)
		for i := range inputs {
			inputs[i] = Value((int(split) >> (i % 8)) & 1)
		}
		crashes := map[ID]Crash{}
		if k > 0 {
			id := ID(int(seedLo) % n)
			crashes[id] = Crash{
				Process:    id,
				Phase:      Phase(int(seedHi) % 3),
				AfterSends: int(seedLo) % (n + 1),
			}
		}
		res, err := Simulate(ProtocolFailStop, n, k, inputs, SimOptions{
			Seed: seed, Crashes: crashes,
		})
		if err != nil {
			return false
		}
		return res.AllDecided && res.Agreement && res.Stalled == NotStalled
	}
	if err := quickCheck(f, 60); err != nil {
		t.Error(err)
	}
}

// quickCheck adapts testing/quick with a bounded count.
func quickCheck(f any, count int) error {
	return quick.Check(f, &quick.Config{MaxCount: count})
}
