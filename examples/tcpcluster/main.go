// TCP cluster: five processes run the Figure 2 malicious-case protocol as
// a real cluster -- one goroutine per process, full mesh of loopback TCP
// connections, length-prefixed binary frames -- rather than inside the
// simulator. This is the deployment shape a downstream user would run.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"resilient"
)

func main() {
	n, k := 5, 1
	inputs := []resilient.Value{1, 0, 1, 0, 1}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	out, err := resilient.RunScenario(ctx, resilient.EngineTCP, resilient.Scenario{
		Protocol: resilient.ProtocolMalicious,
		N:        n, K: k,
		Inputs: inputs,
		Seed:   1,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("TCP cluster of %d (k=%d) finished in %v\n", n, k, out.Elapsed.Round(time.Millisecond))
	fmt.Printf("  agreement: %v, value: %d\n", out.Agreement, out.Value)
	for id := range resilient.ID(n) {
		if v, ok := out.Decisions[id]; ok {
			fmt.Printf("  p%d decided %d in phase %d\n", id, v, out.DecisionPhase[id])
		}
	}
}
