package resilient

import (
	"context"
	"math"
	"testing"
	"time"
)

func mixed(n int) []Value {
	in := make([]Value, n)
	for i := range in {
		in[i] = Value(i % 2)
	}
	return in
}

func TestSimulateAllProtocols(t *testing.T) {
	cases := []struct {
		p    Protocol
		n, k int
	}{
		{ProtocolFailStop, 7, 3},
		{ProtocolMalicious, 7, 2},
		{ProtocolMajority, 8, 2},
		{ProtocolBenOrCrash, 6, 2},
		{ProtocolBenOrByzantine, 11, 2},
		{ProtocolBivalence, 5, 2},
	}
	for _, tc := range cases {
		t.Run(tc.p.String(), func(t *testing.T) {
			for seed := uint64(0); seed < 5; seed++ {
				res, err := Simulate(tc.p, tc.n, tc.k, mixed(tc.n), SimOptions{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if !res.AllDecided || !res.Agreement || res.Stalled != NotStalled {
					t.Fatalf("seed %d: decided=%v agreement=%v stall=%v",
						seed, res.AllDecided, res.Agreement, res.Stalled)
				}
			}
		})
	}
}

func TestSimulateRejectsOverBudgetK(t *testing.T) {
	if _, err := Simulate(ProtocolFailStop, 6, 3, mixed(6), SimOptions{}); err == nil {
		t.Fatal("expected error for k=3, n=6 (bound is 2)")
	}
	if _, err := Simulate(ProtocolMalicious, 6, 2, mixed(6), SimOptions{}); err == nil {
		t.Fatal("expected error for k=2, n=6 (bound is 1)")
	}
}

func TestSimulateWithAdversaries(t *testing.T) {
	strategies := []Strategy{
		StrategySilent, StrategyBalancer, StrategyFlipper,
		StrategyLiar0, StrategyLiar1, StrategyEquivocator,
		StrategyDoubleEcho, StrategyMute,
	}
	for _, s := range strategies {
		t.Run(s.String(), func(t *testing.T) {
			// k = 2 < n/3 keeps the omniscient adversaries' stalling power
			// moderate; the full k = (n-1)/3 regime is exercised by the E4
			// experiment harness, which budgets for the long tail.
			for seed := uint64(0); seed < 3; seed++ {
				res, err := Simulate(ProtocolMalicious, 7, 2, mixed(7), SimOptions{
					Seed:        seed,
					Adversaries: map[ID]Strategy{5: s, 6: s},
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.AllDecided || !res.Agreement || res.Stalled != NotStalled {
					t.Fatalf("seed %d strategy %v: decided=%v agreement=%v stall=%v decisions=%v",
						seed, s, res.AllDecided, res.Agreement, res.Stalled, res.Decisions)
				}
			}
		})
	}
}

func TestScenarioMemLive(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := RunScenario(ctx, EngineMem, Scenario{
		Protocol: ProtocolFailStop, N: 5, K: 2, Inputs: mixed(5), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Decisions) != 5 || !out.Agreement {
		t.Fatalf("decisions=%d agreement=%v", len(out.Decisions), out.Agreement)
	}
}

func TestScenarioTCPLive(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := RunScenario(ctx, EngineTCP, Scenario{
		Protocol: ProtocolMalicious, N: 4, K: 1, Inputs: mixed(4), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Decisions) != 4 || !out.Agreement {
		t.Fatalf("decisions=%d agreement=%v", len(out.Decisions), out.Agreement)
	}
}

func TestPhaseBoundUnderSeven(t *testing.T) {
	for _, n := range []int{30, 99, 300, 3000, 30000} {
		b := FailStopPhaseBound(n, DefaultBandL)
		if b >= 7 {
			t.Errorf("n=%d: bound %v >= 7, contradicting the paper", n, b)
		}
		if b <= 1 || math.IsNaN(b) {
			t.Errorf("n=%d: implausible bound %v", n, b)
		}
	}
}

func TestAnalyzeFailStopMatchesMonteCarlo(t *testing.T) {
	n, k := 60, 20 // k = n/3, the paper's analysis point
	an, err := AnalyzeFailStop(n, k)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateFailStopAbsorption(n, k, 3000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(an.FromBalanced - est.Mean); diff > 4*est.CI95+0.05 {
		t.Errorf("exact %v vs MC %v: |diff| %v too large", an.FromBalanced, est, diff)
	}
}

func TestAnalyzeMaliciousBound(t *testing.T) {
	// k = l*sqrt(n)/2 with l = 1 at n = 100: k = 5. The paper's bound is
	// 1/(2*Phi(1)) ~ 3.15; the exact chain must respect a comparable scale.
	an, err := AnalyzeMalicious(100, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	if an.FromBalanced <= 0 {
		t.Fatalf("non-positive absorption time %v", an.FromBalanced)
	}
	bound := MaliciousPhaseBound(1.0)
	if an.FromBalanced > 25*bound {
		t.Errorf("exact %v wildly exceeds the paper's scale %v", an.FromBalanced, bound)
	}
}
