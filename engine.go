package resilient

import (
	"context"
	"fmt"

	"resilient/internal/adversary"
	"resilient/internal/policy"
	"resilient/internal/spawn"
)

// Engine selects an execution engine: the simulator, goroutines over an
// in-memory message system, or goroutines over a loopback TCP mesh; see the
// spawn package.
type Engine = spawn.Engine

// Engines.
const (
	EngineSim = spawn.EngineSim
	EngineMem = spawn.EngineMem
	EngineTCP = spawn.EngineTCP
)

// ParseEngine resolves an engine name: sim | mem | tcp.
func ParseEngine(s string) (Engine, error) {
	e, err := spawn.ParseEngine(s)
	if err != nil {
		err = fmt.Errorf("resilient: %w", err)
	}
	return e, err
}

// LinkPolicy decides per-link message delivery -- delay, loss, partition --
// for every engine; see the internal policy package.
type LinkPolicy = policy.LinkPolicy

// DropPolicy loses each message independently with probability P before
// consulting Base for the delay of survivors.
type DropPolicy = policy.Drop

// PartitionPolicy drops every message crossing between groups; GroupOf maps
// a process to its group.
type PartitionPolicy = policy.Partition

// HalvesPartition returns a GroupOf function splitting processes into
// [0, boundary) and [boundary, n).
func HalvesPartition(boundary ID) func(ID) int { return adversary.Halves(boundary) }

// Scenario is one engine-independent experiment: protocol, system size,
// inputs, faults, and link behaviour. The same Scenario value runs on any
// Engine via RunScenario; see the spawn package for its fields.
type Scenario = spawn.Scenario

// validate runs spawn's one check of a runnable scenario for engine, before
// any engine builds a machine or opens a socket, and returns its spawner.
func validate(sc *Scenario, engine Engine) (*spawn.Spawner, error) {
	sp, err := sc.Validate(engine)
	if err != nil {
		err = fmt.Errorf("resilient: %w", err)
	}
	return sp, err
}

// Outcome is the engine-independent view of one scenario execution; see the
// spawn package.
type Outcome = spawn.Outcome

// RunScenario executes one scenario on the chosen engine through spawn.Run.
// The context bounds live runs; the simulator ignores it and bounds a run by
// the scenario's MaxEvents, which the live engines refuse. On a live run
// that ends before every correct process decides, the partial Outcome is
// returned alongside the error.
func RunScenario(ctx context.Context, engine Engine, sc Scenario) (*Outcome, error) {
	out, err := spawn.Run(ctx, engine, sc)
	if err != nil {
		err = fmt.Errorf("resilient: %w", err)
	}
	return out, err
}
