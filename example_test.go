package resilient_test

import (
	"fmt"

	"resilient"
)

// ExampleSimulate runs the Figure 1 fail-stop protocol with the maximum
// tolerable number of crash faults.
func ExampleSimulate() {
	inputs := []resilient.Value{1, 1, 1, 1, 1, 0, 0}
	res, err := resilient.Simulate(resilient.ProtocolFailStop, 7, 3, inputs,
		resilient.SimOptions{
			Seed: 1,
			Crashes: map[resilient.ID]resilient.Crash{
				6: {Process: 6, Phase: 0, AfterSends: 0},
			},
		})
	if err != nil {
		panic(err)
	}
	fmt.Println("agreement:", res.Agreement)
	fmt.Println("all decided:", res.AllDecided)
	// Output:
	// agreement: true
	// all decided: true
}

// ExampleSimulate_byzantine runs the Figure 2 echo protocol against an
// equivocating adversary.
func ExampleSimulate_byzantine() {
	inputs := []resilient.Value{1, 1, 1, 1, 1, 1, 0}
	res, err := resilient.Simulate(resilient.ProtocolMalicious, 7, 2, inputs,
		resilient.SimOptions{
			Seed:        3,
			Adversaries: map[resilient.ID]resilient.Strategy{6: resilient.StrategyEquivocator},
		})
	if err != nil {
		panic(err)
	}
	// The six correct processes share input 1; the equivocator cannot
	// override a supermajority.
	fmt.Println("agreement:", res.Agreement)
	fmt.Println("value:", res.Value)
	// Output:
	// agreement: true
	// value: 1
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
