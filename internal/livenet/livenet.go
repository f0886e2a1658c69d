// Package livenet is the goroutine-based live execution engine: one
// goroutine per process, each driving a core.Machine against a
// transport.Conn (in-memory or TCP). Unlike internal/runtime it has no
// global event queue and no simulated clock -- asynchrony comes from real
// goroutine scheduling and real sockets -- so it demonstrates the protocols
// in the deployment shape a downstream user would run them in.
//
// The engine composes the shared fault/delivery layer of internal/policy:
// each driver steps its process's policy.Node -- the simulator's node, with
// the same crash-at-phase, initially-dead and mid-broadcast semantics and the
// same once-only decision and death -- and folds the reports into the same
// policy.DecisionRecord; a policy.LinkPolicy becomes per-connection delay,
// loss, and partition decisions interpreted in wall-clock time. The same
// (protocol, n, k, faults, policy, seed) scenario therefore runs unchanged
// on the simulator and on the live engines.
//
// Cluster.Run is the engine's one run loop: a scenario's instance and every
// slot of a replicated log (through Runner.RunInstance) go through it. A log
// slot folds its decisions straight into an InstanceOutcome instead of a
// DecisionRecord, on a Runner's storage that the log keeps from slot to
// slot.
package livenet

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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

// note is one driver's report to Run: its process's first decision, or its
// death under the fault plan.
type note struct {
	id      msg.ID
	crashed bool
	awaited bool
	value   msg.Value
	phase   msg.Phase
	at      time.Duration // since the run started
}

// errCrashed is driver-internal: the node refused a send because the process
// reached its planned crash point. It never escapes Run.
var errCrashed = errors.New("livenet: process crashed by fault plan")

// driver steps one process's node against one endpoint. Cluster.Run wires
// the rest.
type driver struct {
	node policy.Node
	conn transport.Conn
	r    *Runner // the run's storage and settings
}

// loop is a driver's goroutine: it runs the driver and reports a failure to
// the run.
func (d *driver) loop() {
	defer d.r.wg.Done()
	if err := d.run(); err != nil {
		d.r.errs <- err
	}
}

// run starts the machine and processes messages until the machine halts,
// dies under its fault plan, the run stops, or the connection closes. It
// returns nil on a clean halt, crash, stop, or connection close and the
// underlying error otherwise.
func (d *driver) run() error {
	err := d.sendAll(d.node.Start())
	if d.settle() {
		return nil
	}
	if err != nil {
		return err
	}
	for !d.node.Machine.Halted() {
		if d.r.stop.Load() {
			return nil // shut down: treated as a clean halt
		}
		in, err := d.conn.Recv()
		if err != nil {
			if errors.Is(err, transport.ErrClosed) {
				return nil
			}
			return fmt.Errorf("p%d recv: %w", d.node.Machine.ID(), err)
		}
		d.r.met.received.Inc()
		err = d.sendAll(d.node.Step(&in))
		if d.settle() {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// settle reports what the last step left behind -- a first decision, a
// death -- and whether the process is dead.
func (d *driver) settle() bool {
	id := d.node.Machine.ID()
	if v, ok := d.node.Decision(); ok {
		d.r.notes <- note{id: id, awaited: d.node.Awaited(), value: v,
			phase: d.node.Machine.Phase(), at: time.Since(d.r.start)}
	}
	if d.node.Died() {
		d.r.notes <- note{id: id, crashed: true}
	}
	return d.node.Dead()
}

// sendAll performs the point-to-point sends of one machine step, stopping at
// the first that fails. Destinations outside 0..n-1 are skipped, as in the
// simulator: one malformed outbound from a Byzantine machine must not abort
// the run for every correct process.
func (d *driver) sendAll(outs []core.Outbound) error {
	var err error
	core.Expand(outs, d.r.n, func(to msg.ID, m msg.Message) {
		if err == nil {
			err = d.send(to, m)
		}
	})
	return err
}

func (d *driver) send(to msg.ID, m msg.Message) error {
	if !d.node.AllowSend() {
		return errCrashed // mid-broadcast death: earlier sends stand
	}
	err := d.conn.Send(to, m)
	if err == nil || errors.Is(err, transport.ErrClosed) {
		d.r.met.sent.Inc()
		return nil // a closed destination is indistinguishable from a slow one
	}
	return fmt.Errorf("p%d send to p%d: %w", d.node.Machine.ID(), to, err)
}

// Report summarizes a cluster run. Its DecisionRecord is the one
// runtime.Result embeds, with DecisionTime in wall-clock seconds since the
// run started and Crashed in ascending order.
type Report struct {
	policy.DecisionRecord
	// Elapsed is the wall-clock duration from start to the last decision.
	Elapsed time.Duration
}

// recorder is what a run folds its drivers' decisions and deaths into: Run's
// Report, or RunInstance's InstanceOutcome.
type recorder interface {
	decide(nt note)
	crash(id msg.ID)
	decided() int
}

func (r *Report) decide(nt note) { r.Decide(nt.id, nt.value, nt.phase, nt.at.Seconds()) }

func (r *Report) crash(id msg.ID) { r.Crashed = append(r.Crashed, id) }

func (r *Report) decided() int { return len(r.Decisions) }

// Cluster runs n machines to decision over a shared in-memory message
// system, or over caller-supplied connections (e.g. TCP endpoints).
type Cluster struct {
	machines []core.Machine
	conns    []transport.Conn
	// Metrics, when non-nil, receives live-run accounting under the
	// "livenet." prefix. Set it before calling Run.
	Metrics *metrics.Registry
	// Crashes is the fail-stop fault plan, applied through per-process
	// policy.Nodes with the same semantics as the simulator. Set it
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
	report := &Report{DecisionRecord: policy.NewDecisionRecord(n)}
	var err error
	report.Elapsed, report.AllDecided, err = c.run(ctx, report, new(Runner))
	slices.Sort(report.Crashed)
	return report, err
}

// Runner is the storage of Cluster.Run's loop -- the drivers, the note and
// error channels, the wait group and the stop flag -- kept from one run to
// the next, so that a caller running instance after instance (a replicated
// log's slots) builds it once. Its zero value is ready to use. It runs one
// instance at a time, and a run leaves nothing behind that the next could
// see: by the time a run returns every driver has exited, both channels are
// drained and the drivers are cleared.
type Runner struct {
	drivers []driver
	notes   chan note
	errs    chan error
	wg      sync.WaitGroup
	// stop tells the drivers to shut down once the run has what it waits
	// for, or has given up on it.
	stop atomic.Bool
	// The run's settings, read by its drivers.
	n     int
	start time.Time
	met   liveMetrics
	reg   *metrics.Registry // the registry met's handles came from
	// out is what RunInstance folds the run's decisions into.
	out InstanceOutcome
}

// run is Run after the crash plan's validation, on r's storage, folding
// the drivers' notes into rec. It returns the time to the last decision and
// whether every awaited process decided.
func (c *Cluster) run(ctx context.Context, rec recorder, r *Runner) (time.Duration, bool, error) {
	n := len(c.machines)
	r.n, r.start = n, time.Now()
	r.stop.Store(false)
	if c.Metrics != r.reg {
		r.met, r.reg = newLiveMetrics(c.Metrics), c.Metrics
	}
	conns := c.conns
	if c.Policy != nil {
		conns = make([]transport.Conn, n)
		for i, inner := range c.conns {
			if inner != nil {
				conns[i] = newPolicyConn(inner, c.Policy, c.Unit, r.start,
					c.Seed^uint64(i+1)*0xbf58476d1ce4e5b9)
			}
		}
	}
	// A driver notes at most one decision and one death and fails at most
	// once, so neither channel ever blocks a driver.
	if cap(r.notes) != 2*n {
		r.notes, r.errs = make(chan note, 2*n), make(chan error, n)
	}
	if len(r.drivers) < n {
		r.drivers = make([]driver, n)
	}

	met := r.met
	// pending counts the awaited processes yet to decide.
	pending := 0
	for i, m := range c.machines {
		if conns[i] == nil {
			continue
		}
		d := &r.drivers[i]
		*d = driver{node: policy.NewNode(m, c.Crashes, c.Byzantine[msg.ID(i)]), conn: conns[i], r: r}
		if d.node.Awaited() {
			pending++
		}
		r.wg.Add(1)
		go d.loop()
	}

	var runErr error
	record := func(nt note) {
		if nt.crashed {
			rec.crash(nt.id)
			met.crashes.Inc()
			return
		}
		rec.decide(nt)
		met.decisions.Inc()
		met.decisionSecs.Observe(nt.at.Seconds())
		if nt.awaited {
			pending--
		}
	}
collect:
	for pending > 0 {
		select {
		case nt := <-r.notes:
			record(nt)
		case err := <-r.errs:
			runErr = err
			break collect
		case <-ctx.Done():
			runErr = fmt.Errorf("livenet: %d/%d decisions before deadline: %w",
				rec.decided(), rec.decided()+pending, ctx.Err())
			break collect
		}
	}
	elapsed := time.Since(r.start)

	// Shut down -- all decided, a driver error, or the caller's deadline:
	// closing the connections unblocks every driver still inside Recv.
	r.stop.Store(true)
	CloseConns(conns)
	r.wg.Wait()
	// Drain the notes that raced with shutdown, and drop the failures no
	// one waited for: a later driver's behind the one that ended the run,
	// or one after every decision was in. Left buffered, an error would end
	// the next run on this storage.
	for len(r.notes) > 0 {
		record(<-r.notes)
	}
	for len(r.errs) > 0 {
		<-r.errs
	}
	clear(r.drivers)
	met.runs.Inc()
	met.runSecs.Observe(elapsed.Seconds())
	return elapsed, pending == 0, runErr
}

// CloseConns closes every non-nil connection.
func CloseConns(conns []transport.Conn) {
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}
