package resilient_test

import (
	"context"
	"fmt"
	"math"
	"time"

	"resilient"
)

// ExampleSimulate runs the Figure 1 fail-stop protocol while three of
// seven processes die mid-run -- the maximum tolerable, since
// floor((7-1)/2) = 3.
func ExampleSimulate() {
	n := 7
	inputs := []resilient.Value{1, 0, 1, 1, 0, 0, 1}
	res, err := resilient.Simulate(resilient.ProtocolFailStop, n, 3, inputs,
		resilient.SimOptions{
			Seed: 2026,
			Crashes: map[resilient.ID]resilient.Crash{
				// p6 never says a word; p5 dies in the middle of its
				// phase-1 broadcast (only some peers see it); p4 dies later.
				6: {Process: 6, Phase: 0, AfterSends: 0},
				5: {Process: 5, Phase: 1, AfterSends: 3},
				4: {Process: 4, Phase: 2, AfterSends: 5},
			},
		})
	if err != nil {
		panic(err)
	}
	fmt.Printf("crashed: %d/%d\n", len(res.Crashed), n)
	fmt.Println("all decided:", res.AllDecided)
	fmt.Println("agreement:", res.Agreement)
	fmt.Println("value:", res.Value)
	fmt.Println("messages:", res.MessagesSent)
	for id := range resilient.ID(n) {
		if v, ok := res.Decisions[id]; ok {
			fmt.Printf("p%d decided %d in phase %d\n", id, v, res.DecisionPhase[id])
		}
	}
	// Output:
	// crashed: 3/7
	// all decided: true
	// agreement: true
	// value: 1
	// messages: 253
	// p0 decided 1 in phase 6
	// p1 decided 1 in phase 6
	// p2 decided 1 in phase 6
	// p3 decided 1 in phase 6
}

// ExampleSimulate_byzantine runs the Figure 2 echo protocol at n = 10 with
// three hostile processes -- the floor((10-1)/3) maximum -- under three
// mixes of strategies. The echo-broadcast acceptance rule (strictly more
// than (n+k)/2 matching echoes, first echo per sender only) defuses each.
func ExampleSimulate_byzantine() {
	n, k := 10, 3
	inputs := make([]resilient.Value, n)
	for i := range inputs {
		inputs[i] = resilient.Value(i % 2)
	}
	for _, mix := range [][3]resilient.Strategy{
		{resilient.StrategyEquivocator, resilient.StrategyBalancer, resilient.StrategyDoubleEcho},
		{resilient.StrategySilent, resilient.StrategySilent, resilient.StrategySilent},
		{resilient.StrategyLiar1, resilient.StrategyLiar1, resilient.StrategyLiar1},
	} {
		adversaries := map[resilient.ID]resilient.Strategy{7: mix[0], 8: mix[1], 9: mix[2]}
		res, err := resilient.Simulate(resilient.ProtocolMalicious, n, k, inputs,
			resilient.SimOptions{Seed: 7, Adversaries: adversaries})
		if err != nil {
			panic(err)
		}
		fmt.Printf("p7=%v p8=%v p9=%v: decided %d/%d, agreement %v, value %d, phases %d\n",
			mix[0], mix[1], mix[2], res.DecidedCount(), n-k, res.Agreement, res.Value, res.MaxPhase)
	}
	// Output:
	// p7=equivocator p8=balancer p9=double-echo: decided 7/7, agreement true, value 0, phases 4
	// p7=silent p8=silent p9=silent: decided 7/7, agreement true, value 0, phases 2
	// p7=liar1 p8=liar1 p9=liar1: decided 7/7, agreement true, value 1, phases 4
}

// ExampleSimulate_lowerBound runs Figure 1 at k = n/2, beyond the paper's
// floor((n-1)/2) bound, with the two halves holding opposite inputs. The
// witness cardinality can never exceed n/2, so the protocol stalls rather
// than disagree; Theorem 1 says every protocol that keeps deciding at this
// k can be driven to disagreement (`experiments -only E5` shows both horns).
func ExampleSimulate_lowerBound() {
	n := 6
	res, err := resilient.Simulate(resilient.ProtocolFailStop, n, n/2,
		[]resilient.Value{0, 0, 0, 1, 1, 1},
		resilient.SimOptions{
			Seed:       99,
			Unsafe:     true, // k = n/2 exceeds floor((n-1)/2) = 2
			MaxSimTime: 500,
		})
	if err != nil {
		panic(err)
	}
	fmt.Printf("decided: %d/%d\n", res.DecidedCount(), n)
	fmt.Println("agreement:", res.Agreement)
	fmt.Println("stalled:", res.Stalled)
	// Output:
	// decided: 0/6
	// agreement: true
	// stalled: time horizon reached
}

// ExampleRunScenario runs the Figure 2 protocol as a real cluster: one
// goroutine per process over a full mesh of loopback TCP connections.
func ExampleRunScenario() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := resilient.RunScenario(ctx, resilient.EngineTCP, resilient.Scenario{
		Protocol: resilient.ProtocolMalicious,
		N:        5, K: 1,
		Inputs: []resilient.Value{1, 0, 1, 0, 1},
		Seed:   1,
	})
	if err != nil {
		panic(err)
	}
	// The decided value depends on which messages arrive first, so only
	// the guarantees are printed.
	fmt.Println("agreement:", out.Agreement)
	fmt.Println("all decided:", out.AllDecided)
	// Output:
	// agreement: true
	// all decided: true
}

// ExampleEstimateFailStopAbsorption compares, at n = 300, the exact Markov
// absorption time, the paper's closed-form bound and a Monte-Carlo
// estimate under the Section 4 view model -- then does the same for the
// malicious chain with k = sqrt(n)/2 balancing adversaries.
func ExampleEstimateFailStopAbsorption() {
	const n = 300
	k := n / 3 // the Section 4.1 parametrization
	exact, err := resilient.AnalyzeFailStop(n, k)
	if err != nil {
		panic(err)
	}
	est, err := resilient.EstimateFailStopAbsorption(n, k, 4000, 1)
	if err != nil {
		panic(err)
	}
	bound := resilient.FailStopPhaseBound(n, resilient.DefaultBandL)
	fmt.Printf("fail-stop, k=%d: exact %.3f, estimate %v, bound eq.(13) %.3f\n",
		k, exact.FromBalanced, est, bound)

	km := 9 // ~ sqrt(300)/2, i.e. l ~ 1
	exactM, err := resilient.AnalyzeMalicious(n, km, true)
	if err != nil {
		panic(err)
	}
	estM, err := resilient.EstimateMaliciousAbsorption(n, km, 4000, true, 1)
	if err != nil {
		panic(err)
	}
	l := 2 * float64(km) / math.Sqrt(n)
	fmt.Printf("malicious, k=%d: exact %.3f, estimate %v, bound 1/(2*Phi(l)) %.3f\n",
		km, exactM.FromBalanced, estM, resilient.MaliciousPhaseBound(l))
	// Output:
	// fail-stop, k=100: exact 2.055, estimate 2.06 ± 0.01 (n=4000), bound eq.(13) 6.532
	// malicious, k=9: exact 2.270, estimate 2.24 ± 0.04 (n=4000), bound 1/(2*Phi(l)) 3.348
}

// ExampleFailStopPhaseBound evaluates the paper's eq. (13): the expected
// number of phases to convergence is below 7 for any system size.
func ExampleFailStopPhaseBound() {
	for _, n := range []int{30, 3000} {
		b := resilient.FailStopPhaseBound(n, resilient.DefaultBandL)
		fmt.Printf("n=%d: bound < 7: %v\n", n, b < 7)
	}
	// Output:
	// n=30: bound < 7: true
	// n=3000: bound < 7: true
}

// ExampleProtocol_MaxFaults compares resilience across the implemented
// protocols.
func ExampleProtocol_MaxFaults() {
	n := 16
	for _, p := range []resilient.Protocol{
		resilient.ProtocolFailStop,
		resilient.ProtocolMalicious,
		resilient.ProtocolBenOrByzantine,
		resilient.ProtocolBivalence,
	} {
		fmt.Printf("%v: k <= %d\n", p, p.MaxFaults(n))
	}
	// Output:
	// failstop(fig1): k <= 7
	// malicious(fig2): k <= 5
	// benor-byzantine: k <= 3
	// bivalence(s5): k <= 15
}
