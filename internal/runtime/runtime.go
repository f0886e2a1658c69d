// Package runtime is the deterministic discrete-event execution engine.
//
// It realizes the paper's system model (Section 2.1): processes take atomic
// steps -- receive a message, compute, send a finite set of messages -- and
// the message system delivers every sent message after a delay chosen by a
// pluggable scheduler. All nondeterminism flows through a single seeded
// random source, so a (Config, Seed) pair identifies exactly one execution;
// the stochastic schedulers realize the probabilistic delivery assumption of
// Section 2.3, and scripted schedulers realize the adversaries of the
// impossibility proofs.
//
// The engine supports fail-stop fault injection (death at any phase, even in
// the middle of a broadcast), Byzantine machines (via the Spawner), sender
// authentication (the engine stamps the true sender on every message),
// tracing, per-run metrics, and stall detection.
package runtime

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"resilient/internal/core"
	"resilient/internal/faults"
	"resilient/internal/metrics"
	"resilient/internal/msg"
	"resilient/internal/policy"
	"resilient/internal/sched"
	"resilient/internal/trace"
)

// DefaultMaxEvents bounds the number of delivery events processed before the
// engine declares the run stalled; it is generous enough for every
// experiment in this repository at its configured sizes.
const DefaultMaxEvents = 20_000_000

// SpawnContext is everything a Spawner may use to build one process.
type SpawnContext struct {
	// Config is the per-process protocol configuration.
	Config core.Config
	// RNG is a process-private random source (e.g. for Ben-Or's coin).
	RNG *rand.Rand
	// World is the omniscient view; honest machines must ignore it.
	World core.WorldView
	// Sink receives trace events.
	Sink trace.Sink
	// Byzantine reports whether this process was listed in Config.Byzantine.
	Byzantine bool
}

// Spawner builds the protocol machine for one process.
type Spawner func(ctx SpawnContext) (core.Machine, error)

// Config describes one execution.
type Config struct {
	// N is the number of processes and K the protocol fault parameter.
	N, K int
	// Inputs holds the initial values i_p; len(Inputs) must equal N.
	Inputs []msg.Value
	// Spawn builds each process's machine.
	Spawn Spawner
	// Byzantine marks processes whose machines play an adversary role;
	// they are excluded from agreement/termination accounting.
	Byzantine map[msg.ID]bool
	// Crashes is the fail-stop fault plan.
	Crashes faults.Plan
	// Policy decides per-link delivery (delay and drop); nil is
	// policy.Default, Uniform[0.1, 1] delays and no loss. A sched.Scheduler
	// becomes one via policy.FromScheduler, which is draw-identical to
	// consulting the scheduler directly -- the pre-policy goldens pin this.
	// A dropped message counts as sent but never delivers.
	Policy policy.LinkPolicy
	// Seed determines the execution.
	Seed uint64
	// Sink receives trace events; nil disables tracing.
	Sink trace.Sink
	// MaxEvents bounds processed deliveries (0 = DefaultMaxEvents).
	MaxEvents int
	// MaxSimTime stops the run once simulated time passes this horizon
	// (0 = unlimited). Used by the partition experiments, whose event
	// queues never drain.
	MaxSimTime float64
	// RunToCompletion keeps processing events after every correct process
	// has decided (for message-complexity measurements). By default the
	// run stops at the moment of the last correct decision.
	RunToCompletion bool
	// AllowForgery disables sender authentication: messages keep whatever
	// From field their sender wrote. The paper requires authentication for
	// the malicious case ("the message system must provide a way for
	// correct processes to verify the identity of the sender", Section
	// 3.1); this switch exists to demonstrate WHY -- see the E12
	// impersonation ablation, where a single forger splits the system.
	AllowForgery bool
	// Metrics, when non-nil, receives run-accounting counters and
	// histograms under the "runtime." prefix; nil keeps the hot path
	// allocation-free (like trace.Nop for tracing). A registry may be
	// shared across runs -- counters accumulate -- and is safe for
	// concurrent runs (e.g. a parallel sweep feeding one registry).
	Metrics *metrics.Registry
}

func (c *Config) validate() error {
	if c.N < 1 {
		return fmt.Errorf("runtime: need n >= 1, got %d", c.N)
	}
	if c.K < 0 || c.K >= c.N {
		return fmt.Errorf("runtime: need 0 <= k < n, got k=%d n=%d", c.K, c.N)
	}
	if len(c.Inputs) != c.N {
		return fmt.Errorf("runtime: %d inputs for %d processes", len(c.Inputs), c.N)
	}
	for i, v := range c.Inputs {
		if !v.Valid() {
			return fmt.Errorf("runtime: invalid input %d for p%d", v, i)
		}
	}
	if c.Spawn == nil {
		return errors.New("runtime: nil Spawner")
	}
	if err := c.Crashes.Validate(c.N); err != nil {
		return err
	}
	for id := range c.Byzantine {
		if id < 0 || int(id) >= c.N {
			return fmt.Errorf("runtime: byzantine id p%d outside 0..%d", id, c.N-1)
		}
	}
	return nil
}

// StallReason explains why a run ended without all correct processes
// deciding.
type StallReason int

const (
	// NotStalled means the run completed normally.
	NotStalled StallReason = iota
	// QueueDrained means no messages remained yet some correct process had
	// not decided: a genuine deadlock.
	QueueDrained
	// EventBudget means MaxEvents was exhausted: livelock or a run far
	// longer than expected.
	EventBudget
	// TimeHorizon means MaxSimTime was reached.
	TimeHorizon
)

// String names the reason.
func (r StallReason) String() string {
	switch r {
	case NotStalled:
		return "not stalled"
	case QueueDrained:
		return "queue drained (deadlock)"
	case EventBudget:
		return "event budget exhausted"
	case TimeHorizon:
		return "time horizon reached"
	default:
		return fmt.Sprintf("StallReason(%d)", int(r))
	}
}

// Result summarizes one execution.
type Result struct {
	// Decisions maps every non-Byzantine process that decided to its value.
	Decisions map[msg.ID]msg.Value
	// DecisionPhase maps deciders to the phase in which they decided.
	DecisionPhase map[msg.ID]msg.Phase
	// DecisionTime maps deciders to the simulation time of their decision.
	DecisionTime map[msg.ID]float64
	// Agreement reports whether all recorded decisions are equal.
	Agreement bool
	// Value is the common decision when Agreement holds and at least one
	// process decided.
	Value msg.Value
	// AllDecided reports whether every correct (non-Byzantine, non-crashed)
	// process decided.
	AllDecided bool
	// Stalled is non-zero when the run ended without AllDecided.
	Stalled StallReason
	// MessagesSent counts individual point-to-point sends (a broadcast to
	// n processes counts n).
	MessagesSent int
	// MessagesDelivered counts messages actually consumed by machines.
	MessagesDelivered int
	// MessagesDropped counts messages the link policy lost: they count as
	// sent but were never scheduled for delivery. Always zero under pure
	// scheduler policies.
	MessagesDropped int
	// Events counts processed delivery events, including those that reached
	// a crashed or halted process (the messages_undelivered counter).
	Events int
	// SimTime is the simulation clock at the end of the run.
	SimTime float64
	// MaxPhase is the largest phase any non-Byzantine machine reached.
	MaxPhase msg.Phase
	// Crashed lists processes that died during the run.
	Crashed []msg.ID
	// WallClock is the real time the run took inside Run.
	WallClock time.Duration
	// Metrics is a snapshot of Config.Metrics taken at the end of the run;
	// nil when no registry was attached. With a shared registry it reflects
	// everything accumulated so far, not just this run.
	Metrics *metrics.Snapshot
}

// DecidedCount returns the number of recorded decisions.
func (r *Result) DecidedCount() int { return len(r.Decisions) }

// event is one pending delivery.
type event struct {
	at  float64
	seq uint64
	to  msg.ID
	m   msg.Message
}

// runMetrics holds the engine's instrument handles, resolved once per run.
// Every handle is nil when no registry is attached, making each record call
// a no-op (see the metrics package). The per-event tallies (sent, delivered,
// dropped, undelivered, events) and the queue's own are plain ints during
// the run and reach their instruments once, in finish: an atomic add per
// event was 6.5-8.5 % of a run's CPU with a registry attached.
type runMetrics struct {
	runs          *metrics.Counter
	sent          *metrics.Counter
	delivered     *metrics.Counter
	dropped       *metrics.Counter
	undelivered   *metrics.Counter
	events        *metrics.Counter
	decisions     *metrics.Counter
	crashes       *metrics.Counter
	stalls        *metrics.Counter
	queueRecals   *metrics.Counter
	queueFarKeys  *metrics.Counter
	queueLenMax   *metrics.Gauge
	decisionPhase *metrics.Histogram
	maxPhase      *metrics.Histogram
	messages      *metrics.Histogram
	simTime       *metrics.Histogram
	wallSeconds   *metrics.Histogram
}

func newRunMetrics(reg *metrics.Registry) runMetrics {
	if reg == nil {
		return runMetrics{}
	}
	m := reg.Scoped("runtime.")
	return runMetrics{
		runs:          m.Counter("runs"),
		sent:          m.Counter("messages_sent"),
		delivered:     m.Counter("messages_delivered"),
		dropped:       m.Counter("messages_dropped"),
		undelivered:   m.Counter("messages_undelivered"),
		events:        m.Counter("events"),
		decisions:     m.Counter("decisions"),
		crashes:       m.Counter("crashes"),
		stalls:        m.Counter("stalls"),
		queueRecals:   m.Counter("queue_recalibrations"),
		queueFarKeys:  m.Counter("queue_overflow_keys"),
		queueLenMax:   m.Gauge("queue_len_max"),
		decisionPhase: m.Histogram("decision_phase", metrics.PhaseBuckets()),
		maxPhase:      m.Histogram("max_phase", metrics.PhaseBuckets()),
		messages:      m.Histogram("messages_per_run", metrics.ExpBuckets(10, 4, 12)),
		simTime:       m.Histogram("sim_time", metrics.ExpBuckets(0.1, 4, 12)),
		wallSeconds:   m.Histogram("wall_seconds", metrics.TimeBuckets()),
	}
}

// runner holds one execution's state.
type runner struct {
	cfg      Config
	rng      *rand.Rand
	sink     trace.Sink
	traceOn  bool // sink.Enabled(), cached: gates per-message Event building
	pol      policy.LinkPolicy
	met      runMetrics
	machines []core.Machine
	harness  []*policy.FaultHarness
	crashed  []bool
	now      float64
	seq      uint64
	queue    *eventQueue
	result   *Result
	// perm is the broadcast recipient-order scratch, shuffled in place per
	// broadcast (replacing a fresh rng.Perm allocation per call).
	perm []int
	// correct[i] reports whether process i counts toward agreement.
	correct []bool
	// mustDecide counts correct, crash-free processes yet to decide.
	mustDecide int
	decided    []bool
	// reporters[i] is machines[i]'s ValueReporter face, resolved once at
	// spawn so the omniscient world view never type-asserts on a hot path.
	reporters []core.ValueReporter
	// stepStamp identifies the current machine step; valStamp/valZeros/
	// valOnes memoize CorrectValueCounts within a step (no other machine's
	// state can change until the step ends, so one scan per step suffices
	// no matter how many sends a Byzantine balancer rewrites).
	stepStamp uint64
	valStamp  uint64
	valZeros  int
	valOnes   int
}

type worldView struct{ r *runner }

var _ core.WorldView = worldView{}

func (w worldView) N() int { return w.r.cfg.N }
func (w worldView) K() int { return w.r.cfg.K }

func (w worldView) CorrectValueCounts() (zeros, ones int) {
	r := w.r
	if r.valStamp == r.stepStamp {
		return r.valZeros, r.valOnes
	}
	for i, vr := range r.reporters {
		if vr == nil || !r.correct[i] || r.isDead(msg.ID(i)) {
			continue
		}
		if vr.CurrentValue() == msg.V1 {
			ones++
		} else {
			zeros++
		}
	}
	r.valStamp, r.valZeros, r.valOnes = r.stepStamp, zeros, ones
	return zeros, ones
}

func (w worldView) CorrectDecidedCounts() (zeros, ones int) {
	for i, m := range w.r.machines {
		if !w.r.correct[i] {
			continue
		}
		if v, ok := m.Decided(); ok {
			if v == msg.V1 {
				ones++
			} else {
				zeros++
			}
		}
	}
	return zeros, ones
}

// Run executes one configuration to completion and returns its result.
// An error indicates an invalid configuration or a Spawner failure, never a
// protocol misbehaviour: those are reported through the Result.
func Run(cfg Config) (*Result, error) {
	started := time.Now() //lint:allow walltime wall-clock run accounting; machines never observe it
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	r.start()
	r.loop()
	r.result.WallClock = time.Since(started) //lint:allow walltime wall-clock run accounting; machines never observe it
	r.finish()
	r.queue.reset()
	queuePool.Put(r.queue)
	return r.result, nil
}

// queuePool hands a finished run's queue storage -- slab chunks, ring, active
// array -- to the next run, which would otherwise allocate (and the kernel
// fault in) the same large objects again. A queue is reset before it is put,
// so every get is indistinguishable from new(eventQueue) and which queue a
// run draws cannot change a number in its Result.
var queuePool = sync.Pool{New: func() any { return new(eventQueue) }}

// newRunner validates the configuration and builds a runner with its
// machines spawned but no steps taken; the initial steps happen in start.
func newRunner(cfg Config) (*runner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &runner{
		cfg:       cfg,
		rng:       rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)),
		sink:      cfg.Sink,
		pol:       cfg.Policy,
		met:       newRunMetrics(cfg.Metrics),
		machines:  make([]core.Machine, cfg.N),
		harness:   make([]*policy.FaultHarness, cfg.N),
		crashed:   make([]bool, cfg.N),
		correct:   make([]bool, cfg.N),
		decided:   make([]bool, cfg.N),
		reporters: make([]core.ValueReporter, cfg.N),
		perm:      make([]int, cfg.N),
		result: &Result{
			Decisions:     make(map[msg.ID]msg.Value, cfg.N),
			DecisionPhase: make(map[msg.ID]msg.Phase, cfg.N),
			DecisionTime:  make(map[msg.ID]float64, cfg.N),
		},
	}
	if r.sink == nil {
		r.sink = trace.Nop{}
	}
	r.traceOn = r.sink.Enabled()
	if r.pol == nil {
		r.pol = policy.Default()
	}
	world := worldView{r: r}
	for i := 0; i < cfg.N; i++ {
		id := msg.ID(i)
		byz := cfg.Byzantine[id]
		r.correct[i] = !byz
		if !byz {
			if _, crashes := cfg.Crashes[id]; !crashes {
				r.mustDecide++
			}
		}
		pcg := rand.NewPCG(cfg.Seed^uint64(i+1)*0xbf58476d1ce4e5b9, uint64(i)+cfg.Seed)
		m, err := cfg.Spawn(SpawnContext{
			Config:    core.Config{N: cfg.N, K: cfg.K, Self: id, Input: cfg.Inputs[i]},
			RNG:       rand.New(pcg),
			World:     world,
			Sink:      r.sink,
			Byzantine: byz,
		})
		if err != nil {
			return nil, fmt.Errorf("spawn p%d: %w", i, err)
		}
		if m == nil {
			return nil, fmt.Errorf("spawn p%d: nil machine", i)
		}
		r.machines[i] = m
		r.reporters[i], _ = m.(core.ValueReporter)
		if _, planned := cfg.Crashes[id]; planned {
			r.harness[i] = policy.NewFaultHarness(m, cfg.Crashes)
		}
	}
	r.queue = queuePool.Get().(*eventQueue) // last: no error path holds one
	return r, nil
}

// start takes every machine's initial step, enqueuing its first sends.
func (r *runner) start() {
	for i, m := range r.machines {
		r.stepStamp++
		r.noteProgress(msg.ID(i)) // a process may be planned to die before starting
		r.dispatch(msg.ID(i), m.Start())
		r.checkDecision(msg.ID(i))
	}
}

// isDead reads crashed alone: both paths on which a harness kills its
// process, noteProgress and dispatch, mark the process crashed at once.
func (r *runner) isDead(id msg.ID) bool {
	return r.crashed[id]
}

// noteProgress lets the fault harness observe the process's phase, killing
// it if its planned crash point has been passed without sends. A process
// the crash plan does not name has no harness and nothing to observe.
func (r *runner) noteProgress(id msg.ID) {
	h := r.harness[id]
	if h == nil {
		return
	}
	wasDead := h.Dead()
	h.CheckPhase()
	if h.Dead() && !wasDead {
		r.markCrashed(id)
	}
}

func (r *runner) markCrashed(id msg.ID) {
	if r.crashed[id] {
		return
	}
	r.crashed[id] = true
	r.result.Crashed = append(r.result.Crashed, id)
	r.met.crashes.Inc()
	r.sink.Record(trace.Event{
		Time: r.now, Kind: trace.EventCrash, Process: id,
		Phase: r.machines[id].Phase(),
	})
}

// dispatch expands and enqueues the sends produced by one machine step,
// applying the sender's crash plan to each individual point-to-point send.
// Each outbound message is stored in the queue once, however many recipients
// it fans out to; the release after the sends frees a slot that a crash or
// link drops left without a queued delivery.
func (r *runner) dispatch(from msg.ID, outs []core.Outbound) {
	harness := r.harness[from]
	var phase msg.Phase
	if harness != nil {
		phase = r.machines[from].Phase()
	}
	for _, o := range outs {
		if !r.cfg.AllowForgery {
			o.Msg.From = from // authenticated sender: forgery is impossible
		}
		alive := true
		switch o.To {
		case msg.Broadcast:
			// Broadcast in random recipient order, so that a mid-broadcast
			// death reaches a random subset of processes. The in-place
			// Fisher-Yates over the runner's scratch slice draws exactly the
			// variates rng.Perm would (rand/v2 Perm = identity + Shuffle, and
			// Shuffle's step i draws Uint64N(i+1)), so executions are
			// seed-for-seed identical to the allocating version it replaced.
			perm := r.perm
			for i := range perm {
				perm[i] = i
			}
			for i := len(perm) - 1; i > 0; i-- {
				j := int(r.rng.Uint64N(uint64(i + 1)))
				perm[i], perm[j] = perm[j], perm[i]
			}
			ref := r.queue.hold(o.Msg)
			for _, q := range perm {
				if alive = harness == nil || harness.AllowSendAt(phase); !alive {
					break
				}
				r.enqueue(from, msg.ID(q), o.Msg, ref)
			}
			r.queue.release(ref)
		case msg.Multicast:
			// In list order, no shuffle: per in-range target the same harness
			// charge, link draw and (at, seq) key as the unicast list this
			// form replaced, so executions are identical to it -- but the
			// message is held once, not once per recipient.
			ref := r.queue.hold(o.Msg)
			for _, t := range o.Targets {
				if t < 0 || int(t) >= r.cfg.N {
					continue
				}
				if alive = harness == nil || harness.AllowSendAt(phase); !alive {
					break
				}
				r.enqueue(from, msg.ID(t), o.Msg, ref)
			}
			r.queue.release(ref)
		default:
			if int(o.To) < 0 || int(o.To) >= r.cfg.N {
				continue
			}
			if alive = harness == nil || harness.AllowSendAt(phase); alive {
				ref := r.queue.hold(o.Msg)
				r.enqueue(from, o.To, o.Msg, ref)
				r.queue.release(ref)
			}
		}
		if !alive {
			r.markCrashed(from)
			return
		}
	}
}

// enqueue sends m, held in the queue as ref, over the link from -> to.
func (r *runner) enqueue(from, to msg.ID, m msg.Message, ref int32) {
	v := r.pol.Link(from, to, m, r.now, r.rng)
	r.result.MessagesSent++
	if v.Drop {
		// The link lost the message: it was sent but will never deliver.
		// No event is scheduled, so a fully partitioned run drains its
		// queue instead of chasing a 1e9-unit horizon.
		r.result.MessagesDropped++
		return
	}
	d := sched.Clamp(v.Delay)
	r.seq++
	r.queue.pushRef(r.now+d, r.seq, to, ref)
	if r.traceOn {
		r.sink.Record(trace.Event{
			Time: r.now, Kind: trace.EventSend, Process: from,
			Phase: m.Phase, Value: m.Value,
			//lint:allow hotalloc note formatting runs only when a sink is enabled (traceOn gate)
			Note: fmt.Sprintf("%s -> p%d", m.Kind, to),
		})
	}
}

func (r *runner) loop() {
	maxEvents := r.maxEvents()
	for r.stepNext(maxEvents) {
	}
}

// maxEvents resolves the configured event budget.
func (r *runner) maxEvents() int {
	if r.cfg.MaxEvents <= 0 {
		return DefaultMaxEvents
	}
	return r.cfg.MaxEvents
}

// stepNext processes the next pending delivery. It returns false -- without
// consuming an event -- once the run is over: every correct process decided
// (unless RunToCompletion), the event budget or time horizon was hit, or the
// queue drained.
func (r *runner) stepNext(maxEvents int) bool {
	if r.mustDecide == 0 && !r.cfg.RunToCompletion {
		return false
	}
	if r.result.Events >= maxEvents {
		r.result.Stalled = EventBudget
		return false
	}
	nextAt, ok := r.queue.peekAt()
	if !ok {
		if r.mustDecide > 0 {
			r.result.Stalled = QueueDrained
		}
		return false
	}
	if r.cfg.MaxSimTime > 0 && nextAt > r.cfg.MaxSimTime {
		if r.mustDecide > 0 {
			r.result.Stalled = TimeHorizon
		}
		return false
	}
	e := r.queue.pop()
	r.now = e.at
	r.result.Events++
	r.deliver(e)
	return true
}

func (r *runner) deliver(e event) {
	id := e.to
	m := r.machines[id]
	if r.isDead(id) || m.Halted() {
		// Not a link loss (Result.MessagesDropped): the message arrived at
		// a process that will never take another step. finish counts these
		// as messages_undelivered, Events - MessagesDelivered.
		return
	}
	r.result.MessagesDelivered++
	if r.traceOn {
		r.sink.Record(trace.Event{
			Time: r.now, Kind: trace.EventDeliver, Process: id,
			Phase: e.m.Phase, Value: e.m.Value,
			//lint:allow hotalloc note formatting runs only when a sink is enabled (traceOn gate)
			Note: fmt.Sprintf("%s from p%d", e.m.Kind, e.m.From),
		})
	}
	r.stepStamp++
	outs := m.OnMessage(e.m)
	r.noteProgress(id)
	if !r.isDead(id) {
		r.dispatch(id, outs)
	}
	r.checkDecision(id)
	if p := m.Phase(); r.correct[id] && p > r.result.MaxPhase {
		r.result.MaxPhase = p
	}
}

func (r *runner) checkDecision(id msg.ID) {
	if r.decided[id] || !r.correct[id] {
		return
	}
	v, ok := r.machines[id].Decided()
	if !ok {
		return
	}
	r.decided[id] = true
	r.result.Decisions[id] = v
	r.result.DecisionPhase[id] = r.machines[id].Phase()
	r.result.DecisionTime[id] = r.now
	r.met.decisions.Inc()
	r.met.decisionPhase.Observe(float64(r.machines[id].Phase()))
	if _, crashes := r.cfg.Crashes[id]; !crashes && !r.crashed[id] {
		r.mustDecide--
	}
}

func (r *runner) finish() {
	res := r.result
	res.SimTime = r.now
	res.AllDecided = r.mustDecide == 0
	res.Agreement = true
	first := true
	for _, v := range res.Decisions {
		if first {
			//lint:allow maprange Value is meaningful only when Agreement holds, i.e. all entries are equal
			res.Value = v
			first = false
			continue
		}
		if v != res.Value {
			res.Agreement = false
			break
		}
	}
	if first {
		// Nobody decided: vacuous agreement, but flag it via AllDecided.
		res.Agreement = true
	}
	r.met.runs.Inc()
	r.met.sent.Add(int64(res.MessagesSent))
	r.met.delivered.Add(int64(res.MessagesDelivered))
	r.met.dropped.Add(int64(res.MessagesDropped))
	r.met.undelivered.Add(int64(res.Events - res.MessagesDelivered))
	r.met.events.Add(int64(res.Events))
	r.met.queueRecals.Add(int64(r.queue.recals))
	r.met.queueFarKeys.Add(int64(r.queue.farKeys))
	r.met.queueLenMax.SetMax(float64(r.queue.peak))
	if res.Stalled != NotStalled {
		r.met.stalls.Inc()
	}
	r.met.maxPhase.Observe(float64(res.MaxPhase))
	r.met.messages.Observe(float64(res.MessagesSent))
	r.met.simTime.Observe(res.SimTime)
	r.met.wallSeconds.Observe(res.WallClock.Seconds())
	if r.cfg.Metrics != nil {
		res.Metrics = r.cfg.Metrics.Snapshot()
	}
}
