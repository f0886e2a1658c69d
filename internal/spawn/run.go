package spawn

import (
	"context"
	"fmt"
	"time"

	"resilient/internal/livenet"
	"resilient/internal/metrics"
	"resilient/internal/msg"
	"resilient/internal/netxport"
	"resilient/internal/policy"
	"resilient/internal/runtime"
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
		return 0, fmt.Errorf("unknown engine %q (want sim | mem | tcp)", s)
	}
}

// Outcome is the engine-independent view of one run: what Run returns on
// every engine and what a Monte-Carlo tally folds. On the simulator, Sim
// carries the full result as well.
type Outcome struct {
	// Engine is the engine that produced this outcome.
	Engine Engine
	// DecisionRecord is the engine report's: decisions with their phases
	// and times, agreement, and the processes that died.
	policy.DecisionRecord
	// Terminated reports that every correct process decided and the run did
	// not stall.
	Terminated bool
	// Validity reports weak validity: every decision is the input of some
	// non-adversary process, so unanimous inputs force the decision.
	Validity bool
	// Stalled says why a simulated run ended early (runtime.NotStalled on
	// the live engines, which a context bounds).
	Stalled runtime.StallReason
	// FirstPhase and Phases are the earliest and the latest decision phase
	// (0 if nobody decided); their difference is the spread the Section 3.3
	// note bounds.
	FirstPhase, Phases int
	// Messages counts the run's point-to-point sends on every engine.
	Messages int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Sim is the simulator's full result (EngineSim only).
	Sim *runtime.Result
}

// Run executes the scenario on engine: it validates it once, then hands it
// to the simulator or builds and runs a live cluster. The context bounds
// live runs; the simulator ignores it and bounds a run by the scenario's
// MaxEvents, which the live engines refuse. On a live run that ends before
// every correct process decides, the partial Outcome is returned alongside
// the error.
func Run(ctx context.Context, engine Engine, sc Scenario) (*Outcome, error) {
	sp, err := sc.Validate(engine)
	if err != nil {
		return nil, err
	}
	if engine == EngineSim {
		res, err := runtime.Run(sc.SimConfig(sp))
		if err != nil {
			return nil, err
		}
		return sc.SimOutcome(res), nil
	}
	cluster, err := sc.liveCluster(engine, sp)
	if err != nil {
		return nil, err
	}
	rep, runErr := cluster.Run(ctx)
	if rep == nil {
		return nil, runErr
	}
	out := sc.fold(engine, rep.DecisionRecord, runtime.NotStalled, rep.Messages, rep.Elapsed)
	return &out, runErr
}

// SimOutcome is the Outcome of res, a simulator run of the validated
// scenario: Run's own fold, for a caller that runs the simulator with knobs
// a Scenario does not carry (a trace, a time horizon).
func (sc *Scenario) SimOutcome(res *runtime.Result) *Outcome {
	out := sc.fold(EngineSim, res.DecisionRecord, res.Stalled, res.MessagesSent, res.WallClock)
	out.Sim = res
	return &out
}

// fold is the one Outcome builder: rec is what a run of the validated
// scenario on engine decided, stalled why it stopped short, messages its
// sends and elapsed its wall-clock duration.
func (sc *Scenario) fold(engine Engine, rec policy.DecisionRecord, stalled runtime.StallReason, messages int, elapsed time.Duration) Outcome {
	out := Outcome{
		Engine:         engine,
		DecisionRecord: rec,
		Terminated:     rec.AllDecided && stalled == runtime.NotStalled,
		Validity:       true,
		Stalled:        stalled,
		Messages:       messages,
		Elapsed:        elapsed,
	}
	var inputs uint // bit v: some non-adversary process started with v
	for i, in := range sc.Inputs {
		if _, adversary := sc.Adversaries[msg.ID(i)]; !adversary {
			inputs |= 1 << in
		}
	}
	decided := false
	for p := range msg.ID(len(sc.Inputs)) {
		ph, ok := rec.DecisionPhase[p]
		if !ok {
			continue
		}
		if !decided || int(ph) < out.FirstPhase {
			out.FirstPhase = int(ph)
		}
		decided = true
		out.Phases = max(out.Phases, int(ph))
		out.Validity = out.Validity && inputs&(1<<rec.Decisions[p]) != 0
	}
	return out
}

// liveCluster assembles the validated scenario's live cluster: machines
// first, then the engine's transport, fault plan, and link policy.
func (sc *Scenario) liveCluster(engine Engine, sp *Spawner) (*livenet.Cluster, error) {
	machines, err := sp.Machines(sc.N, sc.K, sc.Inputs)
	if err != nil {
		return nil, err
	}
	var endpoints []*netxport.Endpoint
	if engine == EngineTCP {
		if endpoints, err = TCPMesh(sc.N, sc.Metrics); err != nil {
			return nil, err
		}
	}
	// Instance 0: the run owns the mesh, so each endpoint is its own conn
	// and closes with the run.
	var cluster *livenet.Cluster
	conns := make([]transport.Conn, sc.N)
	err = LiveConns(conns, endpoints, 0, nil)
	if err == nil {
		cluster, err = livenet.NewCluster(machines, conns)
	}
	if err != nil {
		CloseMesh(endpoints)
		return nil, err
	}
	cluster.Metrics = sc.Metrics
	cluster.Crashes = sc.Crashes
	cluster.Policy = sc.Policy
	cluster.Unit = sc.Unit
	cluster.Seed = sc.Seed
	cluster.Byzantine = Members(sc.Adversaries)
	return cluster, nil
}

// LiveConns fills conns, one entry per process, with one live instance's
// connections, nil for a process that alive leaves out (a nil alive leaves
// out nobody): a fresh in-memory message system when there are no
// endpoints, otherwise instance inst of each TCP endpoint, 0 being the
// endpoint itself. On error nothing stays open.
func LiveConns(conns []transport.Conn, endpoints []*netxport.Endpoint, inst uint32, alive []bool) error {
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

// TCPMesh starts n loopback TCP endpoints on ephemeral ports and wires them
// into a full mesh: everyone listens first, then the discovered addresses
// are exchanged. On error, every endpoint opened so far is closed.
func TCPMesh(n int, reg *metrics.Registry) ([]*netxport.Endpoint, error) {
	endpoints := make([]*netxport.Endpoint, 0, n)
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	for i := 0; i < n; i++ {
		ep, err := netxport.Listen(msg.ID(i), addrs)
		if err != nil {
			CloseMesh(endpoints)
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

// CloseMesh closes every endpoint of a mesh.
func CloseMesh(endpoints []*netxport.Endpoint) {
	for _, ep := range endpoints {
		ep.Close()
	}
}
