package resilient

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"resilient/internal/faults"
	"resilient/internal/livenet"
	"resilient/internal/metrics"
	"resilient/internal/msg"
	"resilient/internal/netxport"
	"resilient/internal/runtime"
	"resilient/internal/spawn"
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
	// (0 = DefaultLogPipeline). Commits are still delivered in slot order
	// through a reorder buffer bounded by the window.
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
	// Committed holds every committed operation in commit order. Two runs
	// of the same seed, ops, and crash plan produce byte-identical
	// sequences on every engine.
	Committed [][]byte
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
// take cuts the next slot's batch from the front, so the backlog always
// reads as a FIFO of full batches with one open batch behind them, and a
// batch stays open to new arrivals for exactly as long as the pipeline
// leaves it waiting -- no timer closes it.
type batcher struct {
	max int
	ops [][]byte
	at  []time.Duration
}

// newBatcher sizes the backlog for a run of total operations, so add never
// regrows it.
func newBatcher(max, total int) *batcher {
	return &batcher{max: max, ops: make([][]byte, 0, total), at: make([]time.Duration, 0, total)}
}

// add appends one arrival.
func (b *batcher) add(op []byte, at time.Duration) {
	b.ops = append(b.ops, op)
	b.at = append(b.at, at)
}

// take removes and returns the head batch -- the oldest max operations, or
// all of them when fewer are waiting -- and nil when none is.
func (b *batcher) take() *logBatch {
	n := min(len(b.ops), b.max)
	if n == 0 {
		return nil
	}
	head := &logBatch{ops: b.ops[:n:n], submitted: b.at[:n:n]}
	b.ops, b.at = b.ops[n:], b.at[n:]
	return head
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

// plan lays the backlog's batches onto slots: each batch takes the next
// slot whose rotating proposer is alive, and every dead-proposer slot
// skipped on the way becomes a no-op slot (the survivors still decide it, to
// V0). The slot sequence -- hence the commit order -- is a pure function of
// the batch sequence and the crash plan, which is what makes the committed
// sequence engine-independent.
func (r *logRun) plan(bat *batcher) []slotDesc {
	var descs []slotDesc
	s := 0
	for b := bat.take(); b != nil; b = bat.take() {
		for !r.aliveAt(ID(s%r.n), s) {
			descs = append(descs, r.desc(s, nil))
			s++
		}
		descs = append(descs, r.desc(s, b))
		s++
	}
	return descs
}

// slotSeed derives slot s's machine seed.
func (r *logRun) slotSeed(s int) uint64 {
	return r.seed ^ (uint64(s)+1)*0x94d049bb133111eb
}

// slotInputs returns the unanimous per-process input for a slot: V1
// (commit the batch) when the proposer is alive, V0 (no-op) otherwise.
func (d *slotDesc) inputs(n int) []Value {
	v := msg.V0
	if d.batch != nil {
		v = msg.V1
	}
	in := make([]Value, n)
	for i := range in {
		in[i] = v
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
// each within the frame payload bound.
func batchFrames(ops [][]byte) [][]byte {
	var frames [][]byte
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

// run commits ops through the log, arriving at rate ops/sec on a live engine
// (0 = all at once); the simulator's clock is virtual and ignores the rate.
func (r *logRun) run(ctx context.Context, ops [][]byte, rate float64) (*LogReport, error) {
	for i, op := range ops {
		if len(op) > maxLogOp {
			return nil, fmt.Errorf("resilient: log op %d is %d bytes (max %d)", i, len(op), maxLogOp)
		}
	}
	if r.engine == EngineSim {
		return r.runSim(ops)
	}
	return r.runLive(ctx, ops, rate)
}

// runSim executes the planned slots on the deterministic simulator, one
// after another through runtime.Run -- the call RunScenario makes. Slots
// never exchange a message, so how they interleave is invisible to every
// machine; the pipeline only decides when a slot is admitted, which
// windowEnd replays. Every operation has arrived before the first slot, so
// the batcher cuts the same batches a closed-loop live run launches.
func (r *logRun) runSim(ops [][]byte) (*LogReport, error) {
	start := time.Now()
	bat := newBatcher(r.batch, len(ops))
	for _, op := range ops {
		bat.add(op, 0)
	}
	rep := &LogReport{Engine: EngineSim}
	var durs []float64
	for _, d := range r.plan(bat) {
		sc := r.slot
		sc.Seed = r.slotSeed(d.slot)
		sc.Inputs = d.inputs(r.n)
		sc.Crashes = faults.InitiallyDead(d.dead()...)
		sp := r.spawner.Reseeded(sc.Seed)
		res, err := runtime.Run(sc.SimConfig(&sp))
		if err != nil {
			return nil, err
		}
		if !res.AllDecided || !res.Agreement {
			return nil, fmt.Errorf("resilient: log slot %d: decided=%v agreement=%v stalled=%v",
				d.slot, res.AllDecided, res.Agreement, res.Stalled)
		}
		r.recordSlot(rep, d, res.Value, time.Time{})
		durs = append(durs, res.SimTime)
	}
	rep.SimTime = windowEnd(durs, r.window)
	r.finishReport(rep, start, nil)
	return rep, nil
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

// slotRes is one finished slot on a live engine.
type slotRes struct {
	desc slotDesc
	out  livenet.InstanceOutcome
	err  error
}

// runLive commits ops, arriving at rate ops/sec (0 = all at once), over a
// live engine with up to window slots in flight. Slot transports: EngineTCP
// multiplexes every slot over ONE shared loopback mesh via per-slot netxport
// instance conns; EngineMem gives each slot a fresh in-memory system.
// Commits are delivered in slot order through a reorder buffer bounded by
// the window, and each operation's latency is measured from submission to
// that in-order delivery point.
func (r *logRun) runLive(ctx context.Context, ops [][]byte, rate float64) (*LogReport, error) {
	start := time.Now()
	var endpoints []*netxport.Endpoint
	if r.engine == EngineTCP {
		eps, err := tcpMeshEndpoints(r.n, r.reg)
		if err != nil {
			return nil, err
		}
		endpoints = eps
		defer closeEndpoints(endpoints)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	resCh := make(chan slotRes, r.window)
	sem := make(chan struct{}, r.window)
	var wg sync.WaitGroup

	// Collector: reorder finished slots into slot order and commit at the
	// frontier. Commit latency is stamped HERE -- a slot that finished early
	// but sits behind a straggler in the window has not committed yet.
	rep := &LogReport{Engine: r.engine, Committed: make([][]byte, 0, len(ops))}
	lats := make([]time.Duration, 0, len(ops))
	var runErr error
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		pendingRes := make(map[int]slotRes, r.window)
		frontier := 0
		for res := range resCh {
			pendingRes[res.desc.slot] = res
			for {
				next, ok := pendingRes[frontier]
				if !ok {
					break
				}
				delete(pendingRes, frontier)
				frontier++
				if next.err != nil {
					if runErr == nil {
						runErr = fmt.Errorf("resilient: log slot %d: %w", next.desc.slot, next.err)
						cancel()
					}
					continue
				}
				if !next.out.Agreement {
					if runErr == nil {
						runErr = fmt.Errorf("resilient: log slot %d: replicas disagreed", next.desc.slot)
						cancel()
					}
					continue
				}
				now := time.Now()
				r.recordSlot(rep, next.desc, next.out.Value, now)
				if b := next.desc.batch; b != nil && next.out.Value == msg.V1 {
					for _, at := range b.submitted {
						l := now.Sub(start) - at
						lats = append(lats, l)
						r.met.commitSecs.Observe(l.Seconds())
					}
				}
			}
		}
	}()

	// Dispatcher (DESIGN §12): fold every arrival that is due into the
	// backlog first, so admission never waits for the pipeline; only then
	// offer the head batch, which is cut and launched the moment a window
	// slot is free. A dead proposer's turn spends the free slot on a no-op
	// slot and leaves the backlog waiting. With every operation due at once
	// the batches are ops cut Batch at a time, whatever the engine's pace.
	bat := newBatcher(r.batch, len(ops))
	gap := arrivalGaps(r.seed, rate)
	next, due, s := 0, gap(), 0 // ops[next] arrives at start+due; s is the next slot
	timer := time.NewTimer(due)
	defer timer.Stop()
	for runCtx.Err() == nil {
		now := time.Since(start)
		for ; next < len(ops) && due <= now; next++ {
			bat.add(ops[next], now)
			due += gap()
		}
		backlog := float64(len(bat.ops))
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
				launched := time.Since(start)
				for _, at := range b.submitted {
					r.met.batchWait.Observe((launched - at).Seconds())
				}
			}
			d := r.desc(s, b)
			s++
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				out, err := r.runLiveSlot(runCtx, d, endpoints)
				resCh <- slotRes{desc: d, out: out, err: err}
			}()
		case <-arrival:
		case <-runCtx.Done():
		}
	}
	wg.Wait()
	close(resCh)
	<-collectorDone

	if runErr == nil && ctx.Err() != nil {
		runErr = ctx.Err()
	}
	r.finishReport(rep, start, lats)
	return rep, runErr
}

// runLiveSlot runs one consensus slot over the engine's transport. On TCP
// the slot claims instance id slot+1 on every live endpoint (id 0 is the
// endpoints' own base channel); dead replicas never claim theirs, so frames
// addressed to them are dropped by the demux exactly like traffic to a
// crashed host's dead process. The proposer ships the batch payload as
// length-prefixed Graph frames on the slot's own conns before consensus
// starts -- consensus machines ignore the payload kind, but the bytes cross
// the real wire, so throughput numbers include payload transfer.
func (r *logRun) runLiveSlot(ctx context.Context, d slotDesc, endpoints []*netxport.Endpoint) (livenet.InstanceOutcome, error) {
	sp := r.spawner.Reseeded(r.slotSeed(d.slot))
	machines, err := sp.Machines(r.n, r.k, d.inputs(r.n))
	if err != nil {
		return livenet.InstanceOutcome{}, fmt.Errorf("resilient: %w", err)
	}
	conns, err := liveConns(r.n, endpoints, uint32(d.slot)+1, d.run)
	if err != nil {
		return livenet.InstanceOutcome{}, err
	}
	if b := d.batch; b != nil {
		src := conns[d.proposer]
		for chunk, frame := range batchFrames(b.ops) {
			m := msg.Graph(d.proposer, Phase(chunk), frame)
			for p := 0; p < r.n; p++ {
				if p == int(d.proposer) || !d.run[p] {
					continue
				}
				if err := src.Send(ID(p), m); err != nil {
					livenet.CloseConns(conns)
					return livenet.InstanceOutcome{}, fmt.Errorf("slot %d payload to p%d: %w", d.slot, p, err)
				}
			}
		}
	}
	return livenet.RunInstance(ctx, machines, conns, d.run, r.reg)
}

// recordSlot folds one decided slot into the report (commitAt is zero on
// the simulator).
func (r *logRun) recordSlot(rep *LogReport, d slotDesc, v Value, commitAt time.Time) {
	rep.Slots++
	rep.SlotDecisions = append(rep.SlotDecisions, v)
	r.met.slots.Inc()
	if d.batch == nil {
		rep.NoopSlots++
		r.met.noops.Inc()
		return
	}
	if v != msg.V1 {
		// An alive proposer's batch slot decided no-op: the batch is lost,
		// which the committed sequence (and the parity test) will expose.
		return
	}
	rep.Batches++
	rep.Ops += len(d.batch.ops)
	rep.Committed = append(rep.Committed, d.batch.ops...)
	r.met.batches.Inc()
	r.met.ops.Add(int64(len(d.batch.ops)))
	r.met.batchOps.Observe(float64(len(d.batch.ops)))
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
