package resilient

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"resilient/internal/check"
	"resilient/internal/core"
	"resilient/internal/faults"
	"resilient/internal/livenet"
	"resilient/internal/metrics"
	"resilient/internal/msg"
	"resilient/internal/netxport"
	"resilient/internal/runtime"
	"resilient/internal/spawn"
	"resilient/internal/transport"
)

// Defaults for the replicated-log layer.
const (
	// DefaultLogBatch is the maximum number of operations per slot batch.
	DefaultLogBatch = 16
	// DefaultLogPipeline is the window of consensus slots in flight at once.
	DefaultLogPipeline = 4
	// maxLogOp bounds a single operation's payload so any batch chunk fits
	// in one wire frame with room for framing overhead.
	maxLogOp = msg.MaxPayload - 16
)

// LogCrash schedules a slot-boundary fail-stop: the process participates
// fully in every slot before Slot and not at all from Slot on. Slots whose
// rotating proposer is dead become no-op slots -- the survivors still run
// consensus for the slot and unanimously decide "no batch", preserving the
// one-decision-per-slot invariant the commit order is built on.
type LogCrash struct {
	// Process is the crashing process.
	Process ID
	// Slot is the first slot the process is dead for.
	Slot int
}

// LogOptions configures a replicated-log run. The log multiplexes one
// consensus instance per slot (Figure-2 authenticated echo by default) over
// a shared transport: slot s is proposed by process s mod n, carries a
// batch of operations when that proposer is alive, and commits in slot
// order.
type LogOptions struct {
	// Engine selects the execution engine (default EngineSim).
	Engine Engine
	// Protocol selects the per-slot consensus protocol (default
	// ProtocolMalicious). A slot needs a validity-respecting binary
	// consensus decision, so ProtocolBroadcast (not a consensus) and
	// ProtocolBivalence (decides input parity) are rejected.
	Protocol Protocol
	// Coin overrides the coin scheme of randomized slot protocols (see
	// SimOptions.Coin).
	Coin CoinScheme
	// N is the replica count (default 7); K the fault parameter
	// (0 = the protocol's bound for N).
	N, K int
	// Seed selects the execution; per-slot machine seeds derive from it.
	Seed uint64
	// Batch is the maximum operations per slot (0 = DefaultLogBatch).
	Batch int
	// Pipeline is the window of slots in flight concurrently
	// (0 = DefaultLogPipeline): at most Pipeline slots run at once. Commits
	// are still delivered in slot order, so a finished slot waits for every
	// earlier one, and how many finished slots wait behind a straggler has no
	// bound.
	Pipeline int
	// Crashes schedules slot-boundary fail-stop deaths. At most K processes
	// may crash over the whole run.
	Crashes []LogCrash
	// Metrics, when non-nil, receives log accounting under "log." plus the
	// underlying engine's usual instruments.
	Metrics *MetricsRegistry
}

// LogReport summarizes a replicated-log run.
type LogReport struct {
	// Engine is the engine that produced this report.
	Engine Engine
	// Ops counts committed operations.
	Ops int
	// Slots counts consensus instances run, NoopSlots the subset that
	// decided "no batch" because their proposer was dead, and Batches the
	// batches committed.
	Slots, NoopSlots, Batches int
	// Committed holds every committed operation in commit order, read from
	// the batch frames one replica of each slot received. Two runs of the
	// same seed, ops, and crash plan produce byte-identical sequences on
	// every engine.
	Committed [][]byte
	// Replicas holds, per replica, the slots it took part in and committed,
	// the operations it committed and their running digest: what
	// check.Log compares against Committed.
	Replicas []LogReplica
	// SlotDecisions holds each slot's decided value in slot order: V1 for a
	// committed batch, V0 for a no-op slot.
	SlotDecisions []Value
	// Elapsed is the wall-clock duration of the run and OpsPerSec the
	// committed-operation throughput over it.
	Elapsed   time.Duration
	OpsPerSec float64
	// P50, P95, P99 are commit-latency percentiles -- operation submission
	// to in-order commit delivery -- on live engines (zero on EngineSim,
	// whose latencies are virtual; see SimTime).
	P50, P95, P99 time.Duration
	// SimTime is the global virtual end time of the run (EngineSim only).
	SimTime float64
}

// LogReplica is what one replica of a log run committed; see
// LogReport.Replicas.
type LogReplica = check.LogReplica

// logMetrics holds the log layer's instrument handles; all fields are nil
// (free no-ops) when metrics are off.
type logMetrics struct {
	slots      *metrics.Counter
	noops      *metrics.Counter
	batches    *metrics.Counter
	ops        *metrics.Counter
	commitSecs *metrics.Histogram
	batchOps   *metrics.Histogram
	batchWait  *metrics.Histogram // each op's arrival -> its slot's launch
	backlog    *metrics.Gauge     // ops arrived and not yet launched
	backlogMax *metrics.Gauge     // high-water mark of backlog
}

func newLogMetrics(reg *MetricsRegistry) logMetrics {
	if reg == nil {
		return logMetrics{}
	}
	m := reg.Scoped("log.")
	return logMetrics{
		slots:      m.Counter("slots"),
		noops:      m.Counter("noop_slots"),
		batches:    m.Counter("batches"),
		ops:        m.Counter("ops_committed"),
		commitSecs: m.Histogram("commit_latency_seconds", metrics.TimeBuckets()),
		batchOps:   m.Histogram("batch_ops", metrics.ExpBuckets(1, 2, 8)),
		batchWait:  m.Histogram("batch_wait_seconds", metrics.ExpBuckets(1e-5, 2, 16)), // 10µs .. 0.33s
		backlog:    m.Gauge("backlog_ops"),
		backlogMax: m.Gauge("backlog_ops_max"),
	}
}

// logBatch is one slot's worth of operations with their arrival stamps,
// offsets from the run's start.
type logBatch struct {
	ops       [][]byte
	submitted []time.Duration
}

// batcher is the dispatcher's backlog: the operations that have arrived and
// not yet been given a slot, in arrival order, each with its arrival stamp.
// Operations arrive in the order of the run's list, so the backlog is a
// window of that list, ops[head:len(at)], and a batch is a sub-slice of it:
// the batcher keeps the arrival stamps and two indices, and copies no
// operation. take cuts the next slot's batch from the front, so the backlog
// always reads as a FIFO of full batches with one open batch behind them,
// and a batch stays open to new arrivals for exactly as long as the
// pipeline leaves it waiting -- no timer closes it.
type batcher struct {
	max  int
	ops  [][]byte        // the run's operations, in arrival order
	at   []time.Duration // at[i] is ops[i]'s arrival stamp; len(at) have arrived
	head int             // the first arrival not yet in a batch
}

// newBatcher makes the backlog of a run over ops, sized so that add never
// regrows it.
func newBatcher(max int, ops [][]byte) *batcher {
	return &batcher{max: max, ops: ops, at: make([]time.Duration, 0, len(ops))}
}

// add folds the next operation's arrival, at the given stamp.
func (b *batcher) add(at time.Duration) {
	b.at = append(b.at, at)
}

// waiting counts the arrivals not yet in a batch.
func (b *batcher) waiting() int { return len(b.at) - b.head }

// take removes and returns the head batch -- the oldest max operations, or
// all of them when fewer are waiting -- and nil when none is.
func (b *batcher) take() *logBatch {
	n := min(b.waiting(), b.max)
	if n == 0 {
		return nil
	}
	lo, hi := b.head, b.head+n
	b.head = hi
	return &logBatch{ops: b.ops[lo:hi:hi], submitted: b.at[lo:hi:hi]}
}

// slotDesc describes one consensus slot: its rotating proposer, the
// per-process alive mask under the slot-boundary crash plan, and the batch
// it carries (nil for a no-op slot).
type slotDesc struct {
	slot     int
	proposer ID
	run      []bool
	batch    *logBatch
}

// logRun is a normalized, validated log configuration.
type logRun struct {
	engine  Engine
	slot    Scenario      // what every slot is; seed, inputs and the dead set vary per slot
	spawner spawn.Spawner // the slot protocol's; reseeded per slot
	n, k    int
	seed    uint64
	batch   int
	window  int
	crashAt map[ID]int // process -> first dead slot
	reg     *MetricsRegistry
	met     logMetrics
	// spare holds replica sets whose slot has committed, for replicas to
	// hand to a later slot. At most window slots run at once, but the
	// finished slots waiting behind a straggler have no bound, so the list
	// keeps 2·window sets and drops the rest; none outlives the run.
	spare chan *replicaSet
}

func newLogRun(opts LogOptions) (*logRun, error) {
	r := &logRun{
		engine: opts.Engine,
		n:      opts.N,
		k:      opts.K,
		seed:   opts.Seed,
		batch:  opts.Batch,
		window: opts.Pipeline,
		reg:    opts.Metrics,
	}
	if r.engine == 0 {
		r.engine = EngineSim
	}
	protocol := opts.Protocol
	if protocol == 0 {
		protocol = ProtocolMalicious
	}
	if protocol == ProtocolBroadcast || protocol == ProtocolBivalence {
		return nil, fmt.Errorf("resilient: log slots need a validity-respecting consensus protocol, not %v", protocol)
	}
	if r.n == 0 {
		r.n = 7
	}
	if r.k == 0 {
		r.k = protocol.MaxFaults(r.n)
	}
	// A slot is a scenario: the same validation, with the unanimous inputs
	// the log feeds it standing in.
	r.slot = Scenario{Protocol: protocol, N: r.n, K: r.k, Inputs: make([]Value, max(r.n, 0)), Seed: r.seed, Coin: opts.Coin, Metrics: r.reg}
	sp, err := validate(&r.slot, r.engine)
	if err != nil {
		return nil, err
	}
	r.spawner = *sp
	if r.batch == 0 {
		r.batch = DefaultLogBatch
	}
	if r.batch < 1 {
		return nil, fmt.Errorf("resilient: log batch %d < 1", r.batch)
	}
	if r.window == 0 {
		r.window = DefaultLogPipeline
	}
	if r.window < 1 {
		return nil, fmt.Errorf("resilient: log pipeline window %d < 1", r.window)
	}
	if len(opts.Crashes) > r.k {
		return nil, fmt.Errorf("resilient: %d log crashes exceed k=%d", len(opts.Crashes), r.k)
	}
	r.crashAt = make(map[ID]int, len(opts.Crashes))
	for _, c := range opts.Crashes {
		if int(c.Process) < 0 || int(c.Process) >= r.n {
			return nil, fmt.Errorf("resilient: log crash process %d outside 0..%d", c.Process, r.n-1)
		}
		if c.Slot < 0 {
			return nil, fmt.Errorf("resilient: log crash slot %d < 0", c.Slot)
		}
		if _, dup := r.crashAt[c.Process]; dup {
			return nil, fmt.Errorf("resilient: duplicate log crash for process %d", c.Process)
		}
		r.crashAt[c.Process] = c.Slot
	}
	r.met = newLogMetrics(r.reg)
	r.spare = make(chan *replicaSet, 2*r.window)
	return r, nil
}

// aliveAt reports whether process p participates in slot s.
func (r *logRun) aliveAt(p ID, s int) bool {
	at, crashed := r.crashAt[p]
	return !crashed || s < at
}

// desc builds slot s's descriptor carrying the given batch; the caller must
// pass nil exactly when s's proposer is dead.
func (r *logRun) desc(s int, b *logBatch) slotDesc {
	d := slotDesc{slot: s, proposer: ID(s % r.n), run: make([]bool, r.n), batch: b}
	for i := 0; i < r.n; i++ {
		d.run[i] = r.aliveAt(ID(i), s)
	}
	return d
}

// slotSeed derives slot s's machine seed.
func (r *logRun) slotSeed(s int) uint64 {
	return r.seed ^ (uint64(s)+1)*0x94d049bb133111eb
}

// input returns the slot's unanimous input: V1 (commit the batch) when the
// proposer is alive, V0 (no-op) otherwise.
func (d *slotDesc) input() Value {
	if d.batch != nil {
		return msg.V1
	}
	return msg.V0
}

// inputs returns the slot's input for each of n processes.
func (d *slotDesc) inputs(n int) []Value {
	in := make([]Value, n)
	for i := range in {
		in[i] = d.input()
	}
	return in
}

// dead lists the processes that take no part in the slot.
func (d *slotDesc) dead() []ID {
	var ids []ID
	for p, alive := range d.run {
		if !alive {
			ids = append(ids, ID(p))
		}
	}
	return ids
}

// batchFrames packs a batch's operations into length-prefixed wire chunks,
// each within the frame payload bound, appended to frames.
func batchFrames(frames [][]byte, ops [][]byte) [][]byte {
	var cur []byte
	var buf [binary.MaxVarintLen64]byte
	for _, op := range ops {
		n := binary.PutUvarint(buf[:], uint64(len(op)))
		if len(cur) > 0 && len(cur)+n+len(op) > msg.MaxPayload {
			frames = append(frames, cur)
			cur = nil
		}
		cur = append(cur, buf[:n]...)
		cur = append(cur, op...)
	}
	if len(cur) > 0 {
		frames = append(frames, cur)
	}
	return frames
}

// nextOp splits the first operation off a batch frame, as a sub-slice of
// the frame; ok is false at the frame's end or at a malformed length prefix.
func nextOp(frame []byte) (op, rest []byte, ok bool) {
	l, n := binary.Uvarint(frame)
	if n <= 0 || uint64(len(frame)-n) < l {
		return nil, nil, false
	}
	end := n + int(l)
	return frame[n:end:end], frame[end:], true
}

// slotMachine is one replica's side of a log slot: the slot's consensus
// machine, wrapped so that the batch travels as this machine's own traffic
// (DESIGN §12). The proposer's wrapper holds the batch from the start and
// sends it from Start, chunk i of c as a Graph frame with Phase i and
// Cardinality c, to every other replica alive in the slot. Every wrapper
// takes the Graph frames it receives out of the message stream and passes
// everything else to the consensus machine until that halts. A replica
// commits only what it holds: the wrapper reports a V0 decision as soon as
// the machine makes it and a V1 decision once it holds every chunk of the
// batch, and it halts once the machine has halted and it has committed.
type slotMachine struct {
	inner  core.Machine
	frames [][]byte        // the batch's chunks by index; empty until one is held
	held   int32           // the non-nil entries of frames
	limit  int32           // the most chunks a batch has: at least one op each
	send   []core.Outbound // the proposer's batch frames, with room for Start's
}

// ID implements core.Machine.
func (w *slotMachine) ID() msg.ID { return w.inner.ID() }

// Phase implements core.Machine.
func (w *slotMachine) Phase() msg.Phase { return w.inner.Phase() }

// Start sends the proposer's batch ahead of the machine's first step.
func (w *slotMachine) Start() []core.Outbound {
	outs := w.inner.Start()
	if w.send == nil {
		return outs
	}
	return append(w.send, outs...)
}

// OnMessage holds a batch frame and passes any other message to the
// consensus machine while it runs.
func (w *slotMachine) OnMessage(m msg.Message) []core.Outbound {
	switch m.Kind {
	case msg.KindGraph:
		w.hold(m)
		return nil
	case msg.KindState, msg.KindValue, msg.KindInitial, msg.KindEcho,
		msg.KindBenOrReport, msg.KindBenOrProposal, msg.KindGossip, msg.KindReady:
		// Consensus traffic.
	}
	if w.inner.Halted() {
		return nil
	}
	return w.inner.OnMessage(m)
}

// hold keeps chunk m.Phase of an m.Cardinality-chunk batch. An empty frame,
// a repeated chunk, and a chunk count above the limit or unlike the first
// frame's are dropped.
func (w *slotMachine) hold(m msg.Message) {
	c, i := int(m.Cardinality), int(m.Phase)
	if len(w.frames) == 0 {
		if c < 1 || c > int(w.limit) {
			return
		}
		w.frames = slices.Grow(w.frames, c)[:c] // nil entries: cleared at commit
	}
	if c != len(w.frames) || i < 0 || i >= c || w.frames[i] != nil || len(m.Payload) == 0 {
		return
	}
	w.frames[i] = m.Payload
	w.held++
}

// Decided reports the machine's decision once the replica can commit it.
func (w *slotMachine) Decided() (msg.Value, bool) {
	v, ok := w.inner.Decided()
	if ok && v == msg.V1 && (w.held == 0 || int(w.held) < len(w.frames)) {
		return 0, false
	}
	return v, ok
}

// Halted reports that the machine has halted and the replica committed.
// Engines ask after every delivery, so the machine's halt goes first.
func (w *slotMachine) Halted() bool {
	if !w.inner.Halted() {
		return false
	}
	_, committed := w.Decided()
	return committed
}

// replicaSet is one slot's n replicas and the storage their slot runs on:
// the wrappers, the engine's view of them as machines, the live engine's
// conns and run loop (livenet.Runner: drivers and channels), and the
// proposer's send list and its destinations. A set serves one slot at a
// time and passes from a committed slot to a later one whole.
type replicaSet struct {
	ws       []slotMachine
	machines []core.Machine // machines[i] is &ws[i]
	conns    []transport.Conn
	live     livenet.Runner
	targets  []int32         // the replicas the proposer sends its batch to
	send     []core.Outbound // the proposer's batch frames
}

func newReplicaSet(n int) *replicaSet {
	set := &replicaSet{ws: make([]slotMachine, n), machines: make([]core.Machine, n), conns: make([]transport.Conn, n)}
	for i := range set.ws {
		set.machines[i] = &set.ws[i]
	}
	return set
}

// replicas returns slot d's replica set: a recorded slot's set when one is
// spare, else a new one. Each wrapper keeps the machine it held, for
// respawn to reset, and its frame list's storage, and nothing else of its
// last slot: no frame, no count, no send. The proposer's holds the batch
// and its frames to send. The frames' bytes are new every slot, since the
// report's committed operations alias them; the lists that index them are
// not.
func (r *logRun) replicas(d slotDesc) *replicaSet {
	var set *replicaSet
	select {
	case set = <-r.spare:
	default:
		set = newReplicaSet(r.n)
	}
	ws := set.ws
	for i := range ws {
		ws[i] = slotMachine{inner: ws[i].inner, frames: ws[i].frames[:0], limit: int32(min(r.batch, math.MaxInt32))}
	}
	if d.batch == nil {
		return set
	}
	w := &ws[d.proposer]
	frames := batchFrames(w.frames, d.batch.ops)
	set.targets = set.targets[:0]
	for p, alive := range d.run {
		if alive && ID(p) != d.proposer {
			set.targets = append(set.targets, int32(p))
		}
	}
	w.frames, w.held = frames, int32(len(frames))
	set.send = slices.Grow(set.send[:0], len(frames)+1)[:len(frames)]
	for i, f := range frames {
		m := msg.Graph(d.proposer, Phase(i), f)
		m.Cardinality = int32(len(frames))
		set.send[i] = core.ToMany(set.targets, m)
	}
	w.send = set.send
	return set
}

// respawn builds the replica's machine for the process ctx describes,
// offering the spawner the machine the replica held in its last slot.
func (w *slotMachine) respawn(sp *spawn.Spawner, ctx runtime.SpawnContext) error {
	m, err := sp.Respawn(ctx, w.inner)
	w.inner = m
	return err
}

// RunLog runs the replicated log to completion over a fixed operation list
// (closed loop): every operation is submitted at once, so the operations are
// batched Batch at a time, each batch is committed through its own consensus
// slot with up to Pipeline slots in flight, and the report's Committed
// sequence reflects in-order commit delivery. The same (ops, seed, crash
// plan) produces a byte-identical committed sequence on every engine.
func RunLog(ctx context.Context, opts LogOptions, ops [][]byte) (*LogReport, error) {
	r, err := newLogRun(opts)
	if err != nil {
		return nil, err
	}
	return r.run(ctx, ops, 0)
}

// run commits ops, arriving at rate ops/sec on a live engine (0 = all at
// once), with up to window slots in flight. EngineTCP multiplexes every slot
// over ONE shared loopback mesh via per-slot netxport instance conns;
// EngineMem gives each slot a fresh in-memory system. Slots commit in slot
// order, and on a live engine each operation's latency is measured from
// submission to that commit. A failed slot ends the run: the error names
// it, and the report holds the slots committed before it.
func (r *logRun) run(ctx context.Context, ops [][]byte, rate float64) (*LogReport, error) {
	for i, op := range ops {
		if len(op) > maxLogOp {
			return nil, fmt.Errorf("resilient: log op %d is %d bytes (max %d)", i, len(op), maxLogOp)
		}
	}
	start := time.Now()
	live := r.engine != EngineSim
	if !live {
		rate = 0 // the simulator's clock is virtual
	}
	var endpoints []*netxport.Endpoint
	if r.engine == EngineTCP {
		eps, err := spawn.TCPMesh(r.n, r.reg)
		if err != nil {
			return nil, err
		}
		endpoints = eps
		defer spawn.CloseMesh(endpoints)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, r.window)
	var wg sync.WaitGroup

	// Commit step: slot s's goroutine runs it under mu once committed == s,
	// so slots commit in slot order and one at a time touch the report.
	// Commit latency is stamped HERE -- a slot that finished early but sits
	// behind a straggler has not committed yet.
	var mu sync.Mutex
	turn := sync.NewCond(&mu)
	committed := 0 // slots whose commit step has run, failed ones included
	rep := &LogReport{Engine: r.engine, Committed: make([][]byte, 0, len(ops)), Replicas: make([]LogReplica, r.n)}
	lats := make([]time.Duration, 0, len(ops))
	var durs []float64
	var runErr error
	commit := func(d slotDesc, res slotResult) {
		if runErr != nil {
			return
		}
		v, err := r.verdict(d, res)
		if err != nil {
			runErr = err
			cancel()
			return
		}
		now := time.Now()
		r.recordSlot(rep, d, v, res.set.ws)
		for i := range res.set.ws {
			clear(res.set.ws[i].frames) // a spare set pins no payload
		}
		select { // the engine returned, so the slot's machines are quiescent
		case r.spare <- res.set:
		default:
		}
		if !live {
			durs = append(durs, res.simTime)
		} else if b := d.batch; b != nil && v == msg.V1 {
			for _, at := range b.submitted {
				l := now.Sub(start) - at
				lats = append(lats, l)
				r.met.commitSecs.Observe(l.Seconds())
			}
		}
	}

	// Dispatcher (DESIGN §12): fold every arrival that is due into the
	// backlog first, so admission never waits for the pipeline; only then
	// offer the head batch, which is cut and launched the moment a window
	// slot is free. A dead proposer's turn spends the free slot on a no-op
	// slot and leaves the backlog waiting. With every operation due at once
	// the batches are ops cut Batch at a time, whatever the engine's pace.
	bat := newBatcher(r.batch, ops)
	gap := arrivalGaps(r.seed, rate)
	next, due, s := 0, gap(), 0 // ops[next] arrives at start+due; s is the next slot
	timer := time.NewTimer(due)
	defer timer.Stop()
	for runCtx.Err() == nil {
		now := time.Since(start)
		for ; next < len(ops) && due <= now; next++ {
			bat.add(now)
			due += gap()
		}
		backlog := float64(bat.waiting())
		r.met.backlog.Set(backlog)
		r.met.backlogMax.SetMax(backlog)
		var offer chan<- struct{}
		if backlog > 0 {
			offer = sem
		}
		var arrival <-chan time.Time
		if next < len(ops) {
			timer.Reset(due - now) // a stale tick costs one empty turn of this loop
			arrival = timer.C
		} else if offer == nil {
			break
		}
		select {
		case offer <- struct{}{}:
			var b *logBatch
			if r.aliveAt(ID(s%r.n), s) {
				b = bat.take()
				if live {
					launched := time.Since(start)
					for _, at := range b.submitted {
						r.met.batchWait.Observe((launched - at).Seconds())
					}
				}
			}
			d := r.desc(s, b)
			s++
			wg.Add(1)
			go func() {
				defer wg.Done()
				res := r.runSlot(runCtx, d, endpoints)
				<-sem
				mu.Lock()
				for committed != d.slot {
					turn.Wait()
				}
				commit(d, res)
				committed++
				turn.Broadcast()
				mu.Unlock()
			}()
		case <-arrival:
		case <-runCtx.Done():
		}
	}
	wg.Wait()

	if runErr == nil && ctx.Err() != nil {
		runErr = ctx.Err()
	}
	rep.SimTime = windowEnd(durs, r.window)
	r.finishReport(rep, start, lats)
	return rep, runErr
}

// windowEnd is window admission on one virtual clock: at most window slots
// are in flight, each slot is admitted the moment the earliest in-flight one
// ends and then runs for its own duration, and the result is the time the
// last one ends.
func windowEnd(durs []float64, window int) float64 {
	free := make([]float64, min(window, len(durs)))
	end := 0.0
	for _, d := range durs {
		first := 0
		for i, f := range free {
			if f < free[first] {
				first = i
			}
		}
		free[first] += d
		end = max(end, free[first])
	}
	return end
}

// slotResult is one slot's run: its replica set after the engine returned
// and, on the simulator, the slot's virtual duration and why it stopped
// short.
type slotResult struct {
	set     *replicaSet
	simTime float64
	stalled runtime.StallReason
	err     error
}

// runSlot runs slot d on the run's engine: through runtime.Run on the
// simulator, through livenet.RunInstance over the engine's transport
// otherwise. On TCP the slot claims instance id slot+1 on every live
// endpoint (id 0 is the endpoints' own base channel); dead replicas never
// claim theirs, so frames addressed to them are dropped by the demux
// exactly like traffic to a crashed host's dead process.
func (r *logRun) runSlot(ctx context.Context, d slotDesc, endpoints []*netxport.Endpoint) slotResult {
	res := slotResult{set: r.replicas(d)}
	set := res.set
	if r.engine == EngineSim {
		if out, err := r.simRun(d, set.ws); err != nil {
			res.err = err
		} else {
			res.simTime, res.stalled = out.SimTime, out.Stalled
		}
		return res
	}
	sp := r.spawner.Reseeded(r.slotSeed(d.slot))
	for i := range set.ws {
		cfg := core.Config{N: r.n, K: r.k, Self: ID(i), Input: d.input()}
		if err := set.ws[i].respawn(&sp, runtime.SpawnContext{Config: cfg}); err != nil {
			res.err = fmt.Errorf("resilient: build p%d: %w", i, err)
			return res
		}
	}
	if res.err = spawn.LiveConns(set.conns, endpoints, uint32(d.slot)+1, d.run); res.err != nil {
		return res
	}
	_, res.err = set.live.RunInstance(ctx, set.machines, set.conns, d.run, r.reg)
	clear(set.conns) // closed by the run; the set pins none of them
	return res
}

// simRun runs slot d through runtime.Run -- the call spawn.Run makes --
// with every machine wrapped in its replica. It is runSlot's simulator
// half, apart so that the reseeded spawner its Spawn closure captures is
// not moved to the heap on a live slot.
func (r *logRun) simRun(d slotDesc, ws []slotMachine) (*runtime.Result, error) {
	sc := r.slot
	sc.Seed = r.slotSeed(d.slot)
	sc.Inputs = d.inputs(r.n)
	sc.Crashes = faults.InitiallyDead(d.dead()...)
	sp := r.spawner.Reseeded(sc.Seed)
	cfg := sc.SimConfig(&sp)
	cfg.Spawn = func(ctx runtime.SpawnContext) (core.Machine, error) {
		w := &ws[ctx.Config.Self]
		return w, w.respawn(&sp, ctx)
	}
	return runtime.Run(cfg)
}

// verdict is the commit rule, the same on every engine: slot d commits its
// decided value only if its run returned no error and every replica alive in
// the slot committed the same value.
func (r *logRun) verdict(d slotDesc, res slotResult) (Value, error) {
	if res.err != nil {
		return 0, fmt.Errorf("resilient: log slot %d: %w", d.slot, res.err)
	}
	var v Value
	decided, agree := false, true
	var missing []ID
	for p, alive := range d.run {
		if !alive {
			continue
		}
		switch dv, ok := res.set.ws[p].Decided(); {
		case !ok:
			missing = append(missing, ID(p))
		case !decided:
			v, decided = dv, true
		case dv != v:
			agree = false
		}
	}
	if missing != nil || !agree {
		return 0, fmt.Errorf("resilient: log slot %d: replicas %v did not commit (agreement=%v stalled=%v)",
			d.slot, missing, agree, res.stalled)
	}
	return v, nil
}

// recordSlot folds one decided slot into the report from what its replicas
// (ws, after the slot ended) committed: per replica the slot, the ops and
// their digest, and the committed sequence from the frames of the
// lowest-numbered replica other than the proposer that committed the batch
// (the proposer's own when no other replica runs).
func (r *logRun) recordSlot(rep *LogReport, d slotDesc, v Value, ws []slotMachine) {
	rep.Slots++
	rep.SlotDecisions = append(rep.SlotDecisions, v)
	r.met.slots.Inc()
	src := -1
	for p := range ws {
		if !d.run[p] {
			continue
		}
		rp, w := &rep.Replicas[p], &ws[p]
		rp.Alive++
		dv, ok := w.Decided()
		if !ok {
			continue
		}
		rp.Slots++
		if dv != msg.V1 {
			continue
		}
		for _, f := range w.frames {
			rp.Digest = rp.Digest.Fold(f)
			for _, rest, ok := nextOp(f); ok; _, rest, ok = nextOp(rest) {
				rp.Ops++
			}
		}
		if src < 0 || ID(src) == d.proposer {
			src = p
		}
	}
	if d.batch == nil {
		rep.NoopSlots++
		r.met.noops.Inc()
		return
	}
	if v != msg.V1 || src < 0 {
		// An alive proposer's batch slot decided no-op: the batch is lost,
		// which the committed sequence (and check.Log) will expose.
		return
	}
	before := len(rep.Committed)
	for _, f := range ws[src].frames {
		for op, rest, ok := nextOp(f); ok; op, rest, ok = nextOp(rest) {
			rep.Committed = append(rep.Committed, op)
		}
	}
	ops := len(rep.Committed) - before
	rep.Batches++
	rep.Ops += ops
	r.met.batches.Inc()
	r.met.ops.Add(int64(ops))
	r.met.batchOps.Observe(float64(ops))
}

// finishReport stamps duration, throughput, and (live) latency percentiles.
func (r *logRun) finishReport(rep *LogReport, start time.Time, lats []time.Duration) {
	rep.Elapsed = time.Since(start)
	if secs := rep.Elapsed.Seconds(); secs > 0 {
		rep.OpsPerSec = float64(rep.Ops) / secs
	}
	if len(lats) == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	rank := func(q float64) time.Duration {
		i := int(q*float64(len(lats))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return lats[i]
	}
	rep.P50, rep.P95, rep.P99 = rank(0.50), rank(0.95), rank(0.99)
}
