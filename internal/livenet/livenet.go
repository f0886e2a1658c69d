// Package livenet is the goroutine-based live execution engine: one
// goroutine per process, each driving a core.Machine against a
// transport.Conn (in-memory or TCP). Unlike internal/runtime it has no
// global event queue and no simulated clock -- asynchrony comes from real
// goroutine scheduling and real sockets -- so it demonstrates the protocols
// in the deployment shape a downstream user would run them in.
//
// The engine composes the shared fault/delivery layer of internal/policy:
// a faults.Plan becomes per-process FaultHarnesses (crash-at-phase,
// initially-dead, mid-broadcast send suppression -- the same semantics the
// simulator applies) and a policy.LinkPolicy becomes per-connection delay,
// loss, and partition decisions interpreted in wall-clock time. The same
// (protocol, n, k, faults, policy, seed) scenario therefore runs unchanged
// on the simulator and on the live engines.
//
// Cluster.Run is the engine's one run loop: a scenario's instance and every
// slot of a replicated log (through RunInstance) go through it.
package livenet

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"resilient/internal/core"
	"resilient/internal/faults"
	"resilient/internal/metrics"
	"resilient/internal/msg"
	"resilient/internal/policy"
	"resilient/internal/transport"
)

// liveMetrics holds the engine's instrument handles; all fields are nil
// (free no-ops) when metrics are off.
type liveMetrics struct {
	sent         *metrics.Counter
	received     *metrics.Counter
	decisions    *metrics.Counter
	crashes      *metrics.Counter
	runs         *metrics.Counter
	decisionSecs *metrics.Histogram
	runSecs      *metrics.Histogram
}

func newLiveMetrics(reg *metrics.Registry) liveMetrics {
	if reg == nil {
		return liveMetrics{}
	}
	m := reg.Scoped("livenet.")
	return liveMetrics{
		sent:         m.Counter("messages_sent"),
		received:     m.Counter("messages_received"),
		decisions:    m.Counter("decisions"),
		crashes:      m.Counter("crashes"),
		runs:         m.Counter("runs"),
		decisionSecs: m.Histogram("decision_wall_seconds", metrics.TimeBuckets()),
		runSecs:      m.Histogram("run_wall_seconds", metrics.TimeBuckets()),
	}
}

// Decision reports one process's decision.
type Decision struct {
	Process msg.ID
	Value   msg.Value
	Phase   msg.Phase
	At      time.Time
}

// errCrashed is Driver-internal: a send was suppressed because the fault
// harness reached its planned crash point. It never escapes Run.
var errCrashed = errors.New("livenet: process crashed by fault plan")

// Driver runs one machine against one endpoint. Cluster.Run wires the rest.
type Driver struct {
	machine core.Machine
	conn    transport.Conn
	n       int
	met     liveMetrics
	// decided receives the machine's decision, exactly once.
	decided chan<- Decision
	// harness, when non-nil, applies a fail-stop crash plan to this
	// process: the driver consults it before every individual send and
	// after every machine step, exactly like the simulator's dispatch loop.
	harness *policy.FaultHarness
	// crashed receives the process id, exactly once, when the harness kills
	// the process; it is set whenever harness is.
	crashed chan<- msg.ID

	decisionNoted, crashNoted bool
}

// NewDriver returns a driver for machine over conn in an n-process system.
func NewDriver(machine core.Machine, conn transport.Conn, n int) *Driver {
	return &Driver{machine: machine, conn: conn, n: n}
}

// Run starts the machine and processes messages until the machine halts,
// dies under its fault plan, the context is cancelled, or the connection
// closes. It returns nil on a clean halt, crash, or connection close and
// the underlying error otherwise.
func (d *Driver) Run(ctx context.Context) error {
	if h := d.harness; h != nil {
		// An initially-dead process (phase 0, zero budget) dies here; its
		// machine still takes its Start step -- as in the simulator -- but
		// every send is suppressed.
		h.CheckPhase()
	}
	err := d.sendAll(d.machine.Start())
	d.noteDecision()
	if d.dead() {
		d.noteCrash()
		return nil
	}
	if err != nil {
		return err
	}
	for !d.machine.Halted() {
		if err := ctx.Err(); err != nil {
			return nil // cancelled: treated as a clean shutdown
		}
		in, err := d.conn.Recv()
		if err != nil {
			if errors.Is(err, transport.ErrClosed) {
				return nil
			}
			return fmt.Errorf("p%d recv: %w", d.machine.ID(), err)
		}
		d.met.received.Inc()
		outs := d.machine.OnMessage(in)
		if h := d.harness; h != nil {
			h.CheckPhase() // phase advance may reach the planned crash point
		}
		var sendErr error
		if !d.dead() {
			sendErr = d.sendAll(outs)
		}
		d.noteDecision() // a process may decide in the step it dies
		if d.dead() {
			d.noteCrash()
			return nil
		}
		if sendErr != nil {
			return sendErr
		}
	}
	return nil
}

func (d *Driver) dead() bool {
	return d.harness != nil && d.harness.Dead()
}

// sendAll performs the point-to-point sends of one machine step, stopping at
// the first that fails. Destinations outside 0..n-1 are skipped, as in the
// simulator: one malformed outbound from a Byzantine machine must not abort
// the run for every correct process.
func (d *Driver) sendAll(outs []core.Outbound) error {
	var err error
	core.Expand(outs, d.n, func(to msg.ID, m msg.Message) {
		if err == nil {
			err = d.send(to, m)
		}
	})
	return err
}

func (d *Driver) send(to msg.ID, m msg.Message) error {
	if d.harness != nil && !d.harness.AllowSend() {
		return errCrashed // mid-broadcast death: earlier sends stand
	}
	err := d.conn.Send(to, m)
	if err == nil || errors.Is(err, transport.ErrClosed) {
		d.met.sent.Inc()
		return nil // a closed destination is indistinguishable from a slow one
	}
	return fmt.Errorf("p%d send to p%d: %w", d.machine.ID(), to, err)
}

func (d *Driver) noteDecision() {
	if d.decisionNoted {
		return
	}
	if v, ok := d.machine.Decided(); ok {
		d.decisionNoted = true
		d.decided <- Decision{
			Process: d.machine.ID(),
			Value:   v,
			Phase:   d.machine.Phase(),
			At:      time.Now(),
		}
	}
}

func (d *Driver) noteCrash() {
	if d.crashNoted {
		return
	}
	d.crashNoted = true
	d.met.crashes.Inc()
	d.crashed <- d.machine.ID()
}

// Report summarizes a cluster run. Its shape mirrors runtime.Result so a
// scenario's outcome reads the same from either engine.
type Report struct {
	// Decisions holds each process's decision, in decision order.
	// Byzantine processes are excluded.
	Decisions []Decision
	// Agreement reports whether all decisions carry the same value.
	Agreement bool
	// Value is the common decision when Agreement holds.
	Value msg.Value
	// AllDecided reports whether every correct (non-Byzantine,
	// non-crash-planned) process decided.
	AllDecided bool
	// Crashed lists the processes that died under the fault plan, in
	// ascending order.
	Crashed []msg.ID
	// Elapsed is the wall-clock duration from start to the last decision.
	Elapsed time.Duration
}

// DecisionMap returns the decisions keyed by process.
func (r *Report) DecisionMap() map[msg.ID]msg.Value {
	m := make(map[msg.ID]msg.Value, len(r.Decisions))
	for _, d := range r.Decisions {
		m[d.Process] = d.Value
	}
	return m
}

// Cluster runs n machines to decision over a shared in-memory message
// system, or over caller-supplied connections (e.g. TCP endpoints).
type Cluster struct {
	machines []core.Machine
	conns    []transport.Conn
	// Metrics, when non-nil, receives live-run accounting under the
	// "livenet." prefix. Set it before calling Run.
	Metrics *metrics.Registry
	// Crashes is the fail-stop fault plan, applied through per-process
	// FaultHarnesses with the same semantics as the simulator. Set it
	// before calling Run.
	Crashes faults.Plan
	// Policy, when non-nil, decides per-link delivery (delay, loss,
	// partition) in wall-clock time, one abstract unit = Unit.
	Policy policy.LinkPolicy
	// Unit is the wall-clock length of one abstract time unit for Policy
	// delays (0 = DefaultUnit).
	Unit time.Duration
	// Seed seeds the per-connection policy RNGs.
	Seed uint64
	// Byzantine marks processes whose machines play an adversary role;
	// they are excluded from decision accounting, like in the simulator.
	Byzantine map[msg.ID]bool
}

// NewMemCluster wires the given machines over a fresh in-memory message
// system. The machine for process i must have ID i.
func NewMemCluster(machines []core.Machine) (*Cluster, error) {
	n := len(machines)
	mem := transport.NewMem(n)
	conns := make([]transport.Conn, n)
	for i, m := range machines {
		if int(m.ID()) != i {
			return nil, fmt.Errorf("livenet: machine %d has id %d", i, m.ID())
		}
		c, err := mem.Conn(msg.ID(i))
		if err != nil {
			return nil, err
		}
		conns[i] = c
	}
	return &Cluster{machines: machines, conns: conns}, nil
}

// NewCluster wires machines over caller-supplied connections (one per
// machine, same order).
func NewCluster(machines []core.Machine, conns []transport.Conn) (*Cluster, error) {
	if len(machines) != len(conns) {
		return nil, fmt.Errorf("livenet: %d machines, %d conns", len(machines), len(conns))
	}
	return &Cluster{machines: machines, conns: conns}, nil
}

// Run drives every machine concurrently until all correct processes have
// decided or the context expires. It returns the collected report; a
// context expiry with missing decisions is reported via the error. A process
// whose connection is nil is absent from this instance -- dead at a log's
// slot boundary: no driver, no goroutine, not awaited; traffic addressed to
// it is the transport's to drop. Every connection is closed by the time Run
// returns, on every path.
func (c *Cluster) Run(ctx context.Context) (*Report, error) {
	n := len(c.machines)
	if err := c.Crashes.Validate(n); err != nil {
		CloseConns(c.conns)
		return nil, err
	}
	start := time.Now()
	conns := c.conns
	if c.Policy != nil {
		conns = make([]transport.Conn, n)
		for i, inner := range c.conns {
			if inner != nil {
				conns[i] = newPolicyConn(inner, c.Policy, c.Unit, start,
					c.Seed^uint64(i+1)*0xbf58476d1ce4e5b9)
			}
		}
	}
	decCh := make(chan Decision, n)
	errCh := make(chan error, n)
	// Without a fault plan nothing can crash: no harness, and a nil crash
	// channel whose select case never fires.
	var crashCh chan msg.ID
	if len(c.Crashes) > 0 {
		crashCh = make(chan msg.ID, n)
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	met := newLiveMetrics(c.Metrics)
	var wg sync.WaitGroup
	// pending tracks the correct processes whose decisions the run waits
	// for: crash-planned and Byzantine processes are excluded, mirroring
	// the simulator's mustDecide accounting.
	awaited := make([]bool, n)
	pending := 0
	for i := range c.machines {
		if conns[i] == nil {
			continue
		}
		id := msg.ID(i)
		_, planned := c.Crashes[id]
		if !planned && !c.Byzantine[id] {
			awaited[i] = true
			pending++
		}
		d := NewDriver(c.machines[i], conns[i], n)
		d.met, d.decided = met, decCh
		if crashCh != nil {
			d.harness, d.crashed = policy.NewFaultHarness(c.machines[i], c.Crashes), crashCh
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := d.Run(runCtx); err != nil {
				errCh <- err
			}
		}()
	}

	report := &Report{Decisions: make([]Decision, 0, n)}
	var runErr error
	record := func(dec Decision) {
		if c.Byzantine[dec.Process] {
			return // an adversary's "decision" carries no weight
		}
		report.Decisions = append(report.Decisions, dec)
		met.decisions.Inc()
		met.decisionSecs.Observe(dec.At.Sub(start).Seconds())
		if awaited[dec.Process] {
			awaited[dec.Process] = false
			pending--
		}
	}
collect:
	for pending > 0 {
		select {
		case dec := <-decCh:
			record(dec)
		case id := <-crashCh:
			report.Crashed = append(report.Crashed, id)
		case err := <-errCh:
			runErr = err
			break collect
		case <-ctx.Done():
			runErr = fmt.Errorf("livenet: %d/%d decisions before deadline: %w",
				len(report.Decisions), len(report.Decisions)+pending, ctx.Err())
			break collect
		}
	}
	report.Elapsed = time.Since(start)

	// Shut down -- all decided, a driver error, or the caller's deadline:
	// closing the connections unblocks every driver still inside Recv.
	cancel()
	CloseConns(conns)
	wg.Wait()
	// Drain decisions and crashes that raced with shutdown.
	for {
		select {
		case dec := <-decCh:
			record(dec)
			continue
		case id := <-crashCh:
			report.Crashed = append(report.Crashed, id)
			continue
		default:
		}
		break
	}
	met.runs.Inc()
	met.runSecs.Observe(report.Elapsed.Seconds())

	report.AllDecided = pending == 0
	slices.Sort(report.Crashed)
	report.Agreement = true
	for i, dec := range report.Decisions {
		if i == 0 {
			report.Value = dec.Value
			continue
		}
		if dec.Value != report.Value {
			report.Agreement = false
		}
	}
	return report, runErr
}

// CloseConns closes every non-nil connection.
func CloseConns(conns []transport.Conn) {
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}
