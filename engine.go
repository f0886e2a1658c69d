package resilient

import (
	"context"
	"fmt"
	"time"

	"resilient/internal/adversary"
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
// Engine via RunScenario; see the spawn package for its fields.
type Scenario = spawn.Scenario

// validate runs spawn's one check of a runnable scenario for engine, before
// any engine builds a machine or opens a socket, and returns its spawner.
func validate(sc *Scenario, engine Engine) (*spawn.Spawner, error) {
	if !engine.Valid() {
		return nil, fmt.Errorf("resilient: unknown engine %d", int(engine))
	}
	sp, err := sc.Validate(engine.Live())
	if err != nil {
		err = fmt.Errorf("resilient: %w", err)
	}
	return sp, err
}

// Outcome is the engine-independent view of one scenario execution. On the
// simulator, Sim carries the full result; a live engine's report is the
// decision record and elapsed time themselves.
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
}

// RunScenario executes one scenario on the chosen engine. The context
// bounds live runs; the simulator ignores it and bounds a run by the
// scenario's MaxEvents, which the live engines refuse. On a live run that
// ends before every correct process decides, the partial Outcome is
// returned alongside the error.
func RunScenario(ctx context.Context, engine Engine, sc Scenario) (*Outcome, error) {
	sp, err := validate(&sc, engine)
	if err != nil {
		return nil, err
	}
	if engine == EngineSim {
		res, err := runtime.Run(sc.SimConfig(sp))
		if err != nil {
			return nil, err
		}
		return &Outcome{Engine: EngineSim, DecisionRecord: res.DecisionRecord, Elapsed: res.WallClock, Sim: res}, nil
	}
	cluster, err := liveCluster(&sc, engine, sp)
	if err != nil {
		return nil, err
	}
	rep, runErr := cluster.Run(ctx)
	if rep == nil {
		return nil, runErr
	}
	return &Outcome{Engine: engine, DecisionRecord: rep.DecisionRecord, Elapsed: rep.Elapsed}, runErr
}

// liveCluster assembles the validated scenario's live cluster: machines
// first, then the engine's transport, fault plan, and link policy.
func liveCluster(sc *Scenario, engine Engine, sp *spawn.Spawner) (*livenet.Cluster, error) {
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
	conns := make([]transport.Conn, sc.N)
	err = liveConns(conns, endpoints, 0, nil)
	if err == nil {
		cluster, err = livenet.NewCluster(machines, conns)
	}
	if err != nil {
		closeEndpoints(endpoints)
		return nil, err
	}
	cluster.Metrics = sc.Metrics
	cluster.Crashes = sc.Crashes
	cluster.Policy = sc.Policy
	cluster.Unit = sc.Unit
	cluster.Seed = sc.Seed
	cluster.Byzantine = spawn.Members(sc.Adversaries)
	return cluster, nil
}

// liveConns fills conns, one entry per process, with one live instance's
// connections, nil for a process that alive leaves out (a nil alive leaves
// out nobody): a fresh in-memory message system when there are no
// endpoints, otherwise instance inst of each TCP endpoint, 0 being the
// endpoint itself. On error nothing stays open.
func liveConns(conns []transport.Conn, endpoints []*netxport.Endpoint, inst uint32, alive []bool) error {
	var mem *transport.Mem
	if endpoints == nil {
		mem = transport.NewMem(len(conns))
	}
	clear(conns)
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
			return fmt.Errorf("instance %d conn p%d: %w", inst, i, err)
		}
	}
	return nil
}

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
