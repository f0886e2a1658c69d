package resilient

import (
	"context"
	"fmt"
	"time"

	"resilient/internal/adversary"
	"resilient/internal/faults"
	"resilient/internal/livenet"
	"resilient/internal/msg"
	"resilient/internal/netxport"
	"resilient/internal/policy"
	"resilient/internal/runtime"
	"resilient/internal/spawn"
	"resilient/internal/transport"
)

// Engine selects an execution engine. All engines run the same protocol
// machines under the same fault plans and link policies; they differ only in
// where asynchrony comes from.
type Engine int

const (
	// EngineSim is the deterministic discrete-event simulator: virtual
	// time, seeded randomness, reproducible executions.
	EngineSim Engine = iota + 1
	// EngineMem runs one goroutine per process over an in-memory message
	// system; asynchrony comes from the Go scheduler, and from the scenario's
	// LinkPolicy when one is set -- a uniform-delay policy realizes the
	// paper's probabilistic delivery assumption (Section 2.3) in real time.
	EngineMem
	// EngineTCP runs one goroutine per process over a loopback TCP mesh --
	// real sockets, real frames, the deployment shape.
	EngineTCP
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineSim:
		return "sim"
	case EngineMem:
		return "mem"
	case EngineTCP:
		return "tcp"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Live reports whether the engine runs in real time (everything but the
// simulator).
func (e Engine) Live() bool { return e == EngineMem || e == EngineTCP }

// Valid reports whether e names an engine.
func (e Engine) Valid() bool { return e >= EngineSim && e <= EngineTCP }

// ParseEngine resolves an engine name: sim | mem | tcp.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "sim", "":
		return EngineSim, nil
	case "mem":
		return EngineMem, nil
	case "tcp":
		return EngineTCP, nil
	default:
		return 0, fmt.Errorf("resilient: unknown engine %q (want sim | mem | tcp)", s)
	}
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
// Engine via RunScenario.
type Scenario struct {
	// Protocol selects the consensus protocol.
	Protocol Protocol
	// N is the system size; K the fault parameter.
	N, K int
	// Inputs holds the n initial values.
	Inputs []Value
	// Seed selects the execution (simulator) and seeds policy and coin
	// randomness (all engines).
	Seed uint64
	// Crashes schedules fail-stop deaths, keyed by process. All engines
	// apply the same crash-at-(phase, afterSends) semantics.
	Crashes map[ID]Crash
	// Adversaries assigns Byzantine strategies to processes. All
	// strategies except StrategyBalancer (which needs the simulator's
	// omniscient world view) run on every engine.
	Adversaries map[ID]Strategy
	// Policy, when non-nil, decides per-link delivery on every engine:
	// virtual delay units in the simulator, wall-clock units of Unit on
	// the live engines. Nil is the simulator's Uniform[0.1, 1] default and
	// undelayed delivery on the live engines.
	Policy LinkPolicy
	// Unit is the wall-clock length of one abstract delay unit on live
	// engines (0 = livenet.DefaultUnit, one millisecond).
	Unit time.Duration
	// Broadcast selects the echo-broadcast primitive (see
	// SimOptions.Broadcast); all engines honour it, and all reject
	// SchemeSample on a protocol without an echo stage.
	Broadcast BroadcastScheme
	// Eps is the sampled scheme's per-acceptance error bound
	// (0 = sample.DefaultEps); a non-zero Eps under SchemeEcho is rejected.
	Eps float64
	// Coin overrides the coin scheme of randomized protocols (see
	// SimOptions.Coin); all engines honour it.
	Coin CoinScheme
	// Unsafe skips the resilience-bound validation of (n, k).
	Unsafe bool
	// Metrics, when non-nil, receives run accounting: "runtime." counters
	// from the simulator, "livenet." (and "net." for TCP) from the live
	// engines.
	Metrics *MetricsRegistry
}

// Outcome is the engine-independent view of one scenario execution. The
// engine-specific report (Sim or Live) carries the full detail.
type Outcome struct {
	// Engine is the engine that produced this outcome.
	Engine Engine
	// DecisionRecord is the engine report's: decisions with their phases
	// and times, agreement, and the processes that died.
	policy.DecisionRecord
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Sim is the simulator's full result (EngineSim only).
	Sim *Result
	// Live is the live engine's full report (live engines only).
	Live *ClusterReport
}

// RunScenario executes one scenario on the chosen engine. The context
// bounds live runs (the simulator ignores it; bound simulated runs with
// MaxEvents/MaxSimTime via Simulate directly). On a live run that ends
// before every correct process decides, the partial Outcome is returned
// alongside the error.
func RunScenario(ctx context.Context, engine Engine, sc Scenario) (*Outcome, error) {
	sp, err := sc.validate(engine)
	if err != nil {
		return nil, err
	}
	if engine == EngineSim {
		res, err := runtime.Run(sc.simConfig(sp))
		if err != nil {
			return nil, err
		}
		return &Outcome{Engine: EngineSim, DecisionRecord: res.DecisionRecord, Elapsed: res.WallClock, Sim: res}, nil
	}
	cluster, err := sc.cluster(engine, sp)
	if err != nil {
		return nil, err
	}
	rep, runErr := cluster.Run(ctx)
	if rep == nil {
		return nil, runErr
	}
	return &Outcome{Engine: engine, DecisionRecord: rep.DecisionRecord, Elapsed: rep.Elapsed, Live: rep}, runErr
}

// simConfig is the validated scenario as a simulator configuration.
func (sc *Scenario) simConfig(sp *spawn.Spawner) runtime.Config {
	return runtime.Config{
		N: sc.N, K: sc.K,
		Inputs:    sc.Inputs,
		Spawn:     sp.Spawn,
		Byzantine: spawn.Members(sc.Adversaries),
		Crashes:   faults.Plan(sc.Crashes),
		Policy:    sc.Policy,
		Seed:      sc.Seed,
		Metrics:   sc.Metrics,
	}
}

// cluster assembles the validated scenario's live cluster: machines first,
// then the engine's transport, fault plan, and link policy.
func (sc *Scenario) cluster(engine Engine, sp *spawn.Spawner) (*livenet.Cluster, error) {
	machines, err := sp.Machines(sc.N, sc.K, sc.Inputs)
	if err != nil {
		return nil, fmt.Errorf("resilient: %w", err)
	}
	var endpoints []*netxport.Endpoint
	if engine == EngineTCP {
		if endpoints, err = tcpMeshEndpoints(sc.N, sc.Metrics); err != nil {
			return nil, err
		}
	}
	// Instance 0: the run owns the mesh, so each endpoint is its own conn
	// and closes with the run.
	var cluster *livenet.Cluster
	conns, err := liveConns(sc.N, endpoints, 0, nil)
	if err == nil {
		cluster, err = livenet.NewCluster(machines, conns)
	}
	if err != nil {
		closeEndpoints(endpoints)
		return nil, err
	}
	cluster.Metrics = sc.Metrics
	cluster.Crashes = faults.Plan(sc.Crashes)
	cluster.Policy = sc.Policy
	cluster.Unit = sc.Unit
	cluster.Seed = sc.Seed
	cluster.Byzantine = spawn.Members(sc.Adversaries)
	return cluster, nil
}

// liveConns returns one live instance's connections, nil for a process that
// alive leaves out (a nil alive leaves out nobody): a fresh in-memory message
// system when there are no endpoints, otherwise instance inst of each TCP
// endpoint, 0 being the endpoint itself. On error nothing stays open.
func liveConns(n int, endpoints []*netxport.Endpoint, inst uint32, alive []bool) ([]transport.Conn, error) {
	var mem *transport.Mem
	if endpoints == nil {
		mem = transport.NewMem(n)
	}
	conns := make([]transport.Conn, n)
	for i := range conns {
		if alive != nil && !alive[i] {
			continue
		}
		var err error
		switch {
		case mem != nil:
			conns[i], err = mem.Conn(msg.ID(i))
		case inst == 0:
			conns[i] = endpoints[i]
		default:
			conns[i], err = endpoints[i].Instance(inst)
		}
		if err != nil {
			livenet.CloseConns(conns)
			return nil, fmt.Errorf("instance %d conn p%d: %w", inst, i, err)
		}
	}
	return conns, nil
}

// ClusterReport summarizes a live cluster run; see the livenet package.
type ClusterReport = livenet.Report

// tcpMeshEndpoints starts n loopback TCP endpoints on ephemeral ports and
// wires them into a full mesh: everyone listens first, then the discovered
// addresses are exchanged. On error, every endpoint opened so far is closed.
func tcpMeshEndpoints(n int, reg *MetricsRegistry) ([]*netxport.Endpoint, error) {
	endpoints := make([]*netxport.Endpoint, 0, n)
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	for i := 0; i < n; i++ {
		ep, err := netxport.Listen(msg.ID(i), addrs)
		if err != nil {
			closeEndpoints(endpoints)
			return nil, err
		}
		ep.SetMetrics(reg)
		endpoints = append(endpoints, ep)
	}
	for _, ep := range endpoints {
		for j, peer := range endpoints {
			ep.SetPeerAddr(msg.ID(j), peer.Addr())
		}
	}
	return endpoints, nil
}

func closeEndpoints(endpoints []*netxport.Endpoint) {
	for _, ep := range endpoints {
		ep.Close()
	}
}
