package resilient

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"resilient/internal/check"
	"resilient/internal/core"
	"resilient/internal/msg"
	"resilient/internal/netxport"
	"resilient/internal/policy"
)

func testLogOps(count, size int) [][]byte {
	ops := make([][]byte, count)
	for i := range ops {
		op := make([]byte, size)
		binary.BigEndian.PutUint64(op, uint64(i))
		for j := 8; j < size; j++ {
			op[j] = byte(i * 31)
		}
		ops[i] = op
	}
	return ops
}

func logCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// requireLog fails t unless rep passes check.Log against submitted and
// committed, and counted, exactly the submitted sequence.
func requireLog(t *testing.T, what string, submitted [][]byte, rep *LogReport) {
	t.Helper()
	for _, v := range check.Log(submitted, rep.Committed, rep.Replicas) {
		t.Errorf("%s: %v", what, v)
	}
	if !slices.EqualFunc(rep.Committed, submitted, bytes.Equal) || rep.Ops != len(rep.Committed) {
		t.Fatalf("%s: committed %d ops (%d counted), not the %d submitted in order",
			what, len(rep.Committed), rep.Ops, len(submitted))
	}
}

// TestRunLogSim pins the closed-loop log on the simulator: every op commits
// exactly once in submission order, slot accounting matches the batch math,
// and the whole run is deterministic.
func TestRunLogSim(t *testing.T) {
	ops := testLogOps(50, 16)
	opts := LogOptions{Engine: EngineSim, N: 7, Seed: 42, Batch: 8, Pipeline: 4}
	rep, err := RunLog(logCtx(t), opts, ops)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 50 || rep.Batches != 7 || rep.Slots != 7 || rep.NoopSlots != 0 {
		t.Fatalf("ops=%d batches=%d slots=%d noops=%d, want 50/7/7/0",
			rep.Ops, rep.Batches, rep.Slots, rep.NoopSlots)
	}
	requireLog(t, "sim", ops, rep)
	if rep.SimTime <= 0 {
		t.Fatal("sim run reported no virtual time")
	}
	again, err := RunLog(logCtx(t), opts, ops)
	if err != nil {
		t.Fatal(err)
	}
	if again.SimTime != rep.SimTime || again.Slots != rep.Slots {
		t.Fatalf("identical runs diverged: simtime %v vs %v", again.SimTime, rep.SimTime)
	}
}

// TestRunLogCrashes pins slot-boundary crashes on the simulator: slots whose
// rotating proposer is dead become no-op slots (decided V0 by the
// survivors), and every operation still commits in order.
func TestRunLogCrashes(t *testing.T) {
	ops := testLogOps(40, 16)
	opts := LogOptions{
		Engine: EngineSim, N: 7, Seed: 7, Batch: 4, Pipeline: 2,
		Crashes: []LogCrash{{Process: 2, Slot: 1}, {Process: 4, Slot: 3}},
	}
	rep, err := RunLog(logCtx(t), opts, ops)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NoopSlots == 0 {
		t.Fatal("crash plan produced no no-op slots")
	}
	if rep.Ops != 40 || rep.Batches != 10 {
		t.Fatalf("ops=%d batches=%d, want 40/10", rep.Ops, rep.Batches)
	}
	if rep.Slots != rep.Batches+rep.NoopSlots || len(rep.SlotDecisions) != rep.Slots {
		t.Fatalf("slots=%d batches=%d noops=%d decisions=%d",
			rep.Slots, rep.Batches, rep.NoopSlots, len(rep.SlotDecisions))
	}
	// Check the decision pattern against the plan: slot s is no-op exactly
	// when proposer s mod 7 is dead at s.
	dead := func(p ID, s int) bool {
		return (p == 2 && s >= 1) || (p == 4 && s >= 3)
	}
	for s, v := range rep.SlotDecisions {
		want := msg.V1
		if dead(ID(s%7), s) {
			want = msg.V0
		}
		if v != want {
			t.Fatalf("slot %d decided %v, want %v", s, v, want)
		}
	}
	requireLog(t, "sim", ops, rep)
}

// TestWindowEnd pins the log's virtual clock -- window admission over the
// slots' own durations -- on hand-made durations: a window of one is the sum,
// a window as wide as the run is the maximum, and in between each slot starts
// the moment the earliest of the window's slots ends.
func TestWindowEnd(t *testing.T) {
	durs := []float64{5, 1, 1, 1, 4}
	for _, tc := range []struct {
		window int
		want   float64
	}{
		{1, 12},
		{5, 5},
		{64, 5},
		// Three wide: 5, 1, 1 start at 0; the fourth takes the lane free at 1
		// and ends at 2, the fifth the other lane free at 1 and ends at 5.
		{3, 5},
		// Two wide: lanes 5 | 1+1+1+4 = 7.
		{2, 7},
	} {
		if got := windowEnd(durs, tc.window); got != tc.want {
			t.Errorf("windowEnd(%v, %d) = %v, want %v", durs, tc.window, got, tc.want)
		}
	}
	if got := windowEnd(nil, 4); got != 0 {
		t.Errorf("windowEnd of no slots = %v, want 0", got)
	}
}

// TestRunLogSimTimeIsSlotSum ties the log's clock to the simulator's: with
// one slot in flight, the run's virtual time is the sum of what each slot
// takes when the same wrapped instance -- slot seed, unanimous inputs, the
// slot's dead replicas dead from the start, the proposer's batch frames on
// the wire -- runs on its own through runtime.Run.
func TestRunLogSimTimeIsSlotSum(t *testing.T) {
	opts := LogOptions{
		Engine: EngineSim, N: 7, Seed: 13, Batch: 4, Pipeline: 1,
		Crashes: []LogCrash{{Process: 2, Slot: 3}},
	}
	ops := testLogOps(40, 16)
	rep, err := RunLog(logCtx(t), opts, ops)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newLogRun(opts)
	if err != nil {
		t.Fatal(err)
	}
	// The slot layout the dispatcher makes: each batch takes the next slot
	// whose proposer is alive, every dead proposer's turn a no-op slot.
	bat := newBatcher(r.batch, ops)
	for range ops {
		bat.add(0)
	}
	ctx, sum := logCtx(t), 0.0
	for s := 0; s < rep.Slots; s++ {
		var b *logBatch
		if r.aliveAt(ID(s%r.n), s) {
			b = bat.take()
		}
		d := r.desc(s, b)
		res := r.runSlot(ctx, d, nil)
		v, err := r.verdict(d, res)
		if err != nil {
			t.Fatal(err)
		}
		if v != rep.SlotDecisions[s] {
			t.Fatalf("slot %d decided %v in the log, %v on its own", s, rep.SlotDecisions[s], v)
		}
		sum += res.simTime
	}
	if b := bat.take(); b != nil || rep.NoopSlots == 0 {
		t.Fatalf("%d slots, %d no-op: want every batch run and a crash that bites", rep.Slots, rep.NoopSlots)
	}
	if rep.SimTime != sum {
		t.Fatalf("log SimTime %v, slots sum to %v", rep.SimTime, sum)
	}
}

// uniformExcept delivers every message as the default Uniform[0.1, 1] link
// does, except the Graph frames that carry a log batch, which graph decides.
type uniformExcept struct {
	graph func(to ID, m msg.Message) policy.Verdict
}

func (u uniformExcept) Link(from, to ID, m msg.Message, now float64, rng *rand.Rand) policy.Verdict {
	if m.Kind == msg.KindGraph {
		return u.graph(to, m)
	}
	return policy.Uniform{Min: 0.1, Max: 1}.Link(from, to, m, now, rng)
}

// TestLogReplicaNeverCommitsUnheldBatch drops batch frames addressed to one
// replica: its consensus machine still decides V1, but a replica commits
// only the bytes it holds, so the run must fail at the first slot whose
// frames were dropped, name that replica, and still report the slots
// committed before it.
func TestLogReplicaNeverCommitsUnheldBatch(t *testing.T) {
	const starved = 3
	ops := testLogOps(16, 16)
	for _, tc := range []struct {
		name string
		from ID // the proposer whose frames to starved are dropped; -1 = every one
		slot int
	}{
		{"every batch", -1, 0},
		{"slot 2 only", 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := newLogRun(LogOptions{Engine: EngineSim, N: 7, Seed: 5, Batch: 4})
			if err != nil {
				t.Fatal(err)
			}
			r.slot.Policy = uniformExcept{graph: func(to ID, m msg.Message) policy.Verdict {
				return policy.Verdict{Drop: to == starved && (tc.from < 0 || m.From == tc.from), Delay: 0.5}
			}}
			rep, err := r.run(logCtx(t), ops, 0)
			if err == nil {
				t.Fatalf("p%d committed without its batch: %+v", starved, rep.Replicas)
			}
			if got := err.Error(); !strings.Contains(got, fmt.Sprintf("slot %d:", tc.slot)) || !strings.Contains(got, "replicas [3] did not commit") {
				t.Fatalf("err = %v, want slot %d naming replica %d", err, tc.slot, starved)
			}
			if rep == nil {
				t.Fatal("failed run returned no report")
			}
			requireLog(t, "committed prefix", ops[:4*tc.slot], rep)
		})
	}
}

// TestRunLogMultiChunkBatch commits one batch too large for one frame: on
// the simulator with its chunks delivered last first, each chunk c-i units
// after the send, and over the in-memory engine.
func TestRunLogMultiChunkBatch(t *testing.T) {
	ops := testLogOps(5, maxLogOp/2)
	if c := len(batchFrames(ops)); c < 3 {
		t.Fatalf("batch packed into %d frames, want at least 3", c)
	}
	r, err := newLogRun(LogOptions{Engine: EngineSim, N: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r.slot.Policy = uniformExcept{graph: func(_ ID, m msg.Message) policy.Verdict {
		return policy.Verdict{Delay: float64(m.Cardinality) - float64(m.Phase)}
	}}
	rep, err := r.run(logCtx(t), ops, 0)
	if err != nil {
		t.Fatal(err)
	}
	requireLog(t, "sim", ops, rep)
	if rep, err = RunLog(logCtx(t), LogOptions{Engine: EngineMem, N: 4, Seed: 3}, ops); err != nil {
		t.Fatal(err)
	}
	requireLog(t, "mem", ops, rep)
}

// FuzzLog runs the closed-loop log on the simulator over fuzzed shapes --
// seed, op count and size, batch, pipeline and one slot-boundary crash --
// and requires a clean check.Log with exactly the submitted ops committed.
func FuzzLog(f *testing.F) {
	f.Add(uint64(1), uint8(20), uint16(16), uint8(4), uint8(2), uint8(7), uint8(0))
	f.Add(uint64(42), uint8(47), uint16(100), uint8(0), uint8(0), uint8(2), uint8(1))
	f.Add(uint64(7), uint8(9), uint16(8), uint8(15), uint8(7), uint8(0), uint8(0))
	f.Add(uint64(99), uint8(0), uint16(3), uint8(3), uint8(3), uint8(6), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, count uint8, size uint16, batch, pipeline, crashed, crashSlot uint8) {
		const n = 7
		ops := testLogOps(int(count)%48, 8+int(size)%512)
		opts := LogOptions{Engine: EngineSim, N: n, Seed: seed, Batch: 1 + int(batch)%16, Pipeline: 1 + int(pipeline)%8}
		if p := int(crashed) % (n + 1); p < n {
			opts.Crashes = []LogCrash{{Process: ID(p), Slot: int(crashSlot) % 16}}
		}
		rep, err := RunLog(context.Background(), opts, ops)
		if err != nil {
			t.Fatal(err)
		}
		requireLog(t, "sim", ops, rep)
	})
}

// TestRunLogAbsentReplicaIsAbsent checks that a replica dead at a slot
// boundary takes no part in the slot on the live engines -- no driver, so no
// decision counted, and no node, so no crash counted -- and that the
// run loop's accounting covers log slots: one decision per replica alive in
// each slot.
func TestRunLogAbsentReplicaIsAbsent(t *testing.T) {
	const n, crashSlot = 7, 3
	for _, engine := range []Engine{EngineMem, EngineTCP} {
		t.Run(engine.String(), func(t *testing.T) {
			reg := NewMetricsRegistry()
			ops := testLogOps(40, 16)
			rep, err := RunLog(logCtx(t), LogOptions{
				Engine: engine, N: n, Seed: 21, Batch: 4, Pipeline: 3, Metrics: reg,
				Crashes: []LogCrash{{Process: 2, Slot: crashSlot}},
			}, ops)
			if err != nil {
				t.Fatal(err)
			}
			requireLog(t, engine.String(), ops, rep)
			if rep.Ops != 40 || rep.NoopSlots == 0 || rep.Slots <= crashSlot {
				t.Fatalf("ops=%d slots=%d noops=%d: the crash plan did not bite", rep.Ops, rep.Slots, rep.NoopSlots)
			}
			snap := reg.Snapshot()
			for name, want := range map[string]int64{
				"livenet.crashes":   0,
				"livenet.runs":      int64(rep.Slots),
				"livenet.decisions": int64(crashSlot*n + (rep.Slots-crashSlot)*(n-1)),
			} {
				if got := snap.Counters[name]; got != want {
					t.Errorf("counter %s = %d, want %d", name, got, want)
				}
			}
		})
	}
}

// TestLogEngineParity is the cross-engine determinism check: the same
// (ops, seed, batch, crash plan) commits a byte-identical operation
// sequence with identical per-slot decisions on the simulator, the
// in-memory engine, and real TCP.
func TestLogEngineParity(t *testing.T) {
	ops := testLogOps(48, 24)
	base := LogOptions{
		N: 7, Seed: 99, Batch: 8, Pipeline: 3,
		Crashes: []LogCrash{{Process: 1, Slot: 2}, {Process: 6, Slot: 0}},
	}
	type run struct {
		engine Engine
		rep    *LogReport
	}
	var runs []run
	for _, engine := range []Engine{EngineSim, EngineMem, EngineTCP} {
		opts := base
		opts.Engine = engine
		rep, err := RunLog(logCtx(t), opts, ops)
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		runs = append(runs, run{engine, rep})
	}
	for _, r := range runs {
		requireLog(t, r.engine.String(), ops, r.rep)
	}
	want := runs[0].rep
	for _, r := range runs[1:] {
		if r.rep.Slots != want.Slots || r.rep.NoopSlots != want.NoopSlots {
			t.Fatalf("%v ran %d slots (%d noop), sim ran %d (%d)",
				r.engine, r.rep.Slots, r.rep.NoopSlots, want.Slots, want.NoopSlots)
		}
		if len(r.rep.SlotDecisions) != len(want.SlotDecisions) {
			t.Fatalf("%v decided %d slots, sim %d", r.engine, len(r.rep.SlotDecisions), len(want.SlotDecisions))
		}
		for s := range want.SlotDecisions {
			if r.rep.SlotDecisions[s] != want.SlotDecisions[s] {
				t.Fatalf("%v slot %d decided %v, sim decided %v",
					r.engine, s, r.rep.SlotDecisions[s], want.SlotDecisions[s])
			}
		}
		if !slices.Equal(r.rep.Replicas, want.Replicas) {
			t.Fatalf("%v replicas committed %+v, sim %+v", r.engine, r.rep.Replicas, want.Replicas)
		}
	}
}

// TestRunLogTCPMetrics runs a small log over real TCP with metrics on and
// checks the log instruments and commit-latency percentiles line up.
func TestRunLogTCPMetrics(t *testing.T) {
	reg := NewMetricsRegistry()
	ops := testLogOps(24, 16)
	rep, err := RunLog(logCtx(t), LogOptions{
		Engine: EngineTCP, N: 4, Seed: 5, Batch: 8, Pipeline: 2, Metrics: reg,
	}, ops)
	if err != nil {
		t.Fatal(err)
	}
	requireLog(t, "tcp", ops, rep)
	if rep.Ops != 24 || rep.NoopSlots != 0 {
		t.Fatalf("ops=%d noops=%d, want 24/0", rep.Ops, rep.NoopSlots)
	}
	if rep.P50 <= 0 || rep.P95 < rep.P50 || rep.P99 < rep.P95 {
		t.Fatalf("latency percentiles out of order: p50=%v p95=%v p99=%v", rep.P50, rep.P95, rep.P99)
	}
	if rep.OpsPerSec <= 0 {
		t.Fatal("no throughput reported")
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"log.slots":         int64(rep.Slots),
		"log.batches":       int64(rep.Batches),
		"log.ops_committed": int64(rep.Ops),
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	if h, ok := snap.Histograms["log.commit_latency_seconds"]; !ok || h.Count != uint64(rep.Ops) {
		t.Errorf("commit latency histogram count = %+v, want %d observations", h, rep.Ops)
	}
}

// TestRunLogWorkloadOpenLoop drives the paced open-loop workload over the
// in-memory engine: every generated operation commits, and latency
// percentiles are populated.
func TestRunLogWorkloadOpenLoop(t *testing.T) {
	rep, err := RunLogWorkload(logCtx(t), LogWorkloadOptions{
		Log:  LogOptions{Engine: EngineMem, N: 4, Seed: 11, Batch: 8, Pipeline: 4},
		Ops:  200,
		Rate: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireLog(t, "mem", genWorkloadOps(11, 200, DefaultWorkloadOpBytes), rep)
	if rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Fatalf("bad percentiles: p50=%v p99=%v", rep.P50, rep.P99)
	}
	if rep.Batches < 200/8 {
		t.Fatalf("only %d batches for 200 ops at batch 8", rep.Batches)
	}
}

// TestBatcher pins the dispatcher's batching seam without a clock: batches
// are cut from the front of the backlog, Batch at a time, in arrival order,
// and whatever arrives while a partial batch waits joins it.
func TestBatcher(t *testing.T) {
	ops := testLogOps(40, 16)
	stamp := func(i int) time.Duration { return time.Duration(i) * time.Microsecond }
	// want checks that b holds exactly ops[lo:hi] with their stamps.
	want := func(b *logBatch, lo, hi int) {
		t.Helper()
		if b == nil {
			t.Fatalf("no batch, want ops %d..%d", lo, hi)
		}
		if len(b.ops) != hi-lo || len(b.submitted) != hi-lo {
			t.Fatalf("batch of %d ops / %d stamps, want %d", len(b.ops), len(b.submitted), hi-lo)
		}
		for i := range b.ops {
			if !bytes.Equal(b.ops[i], ops[lo+i]) || b.submitted[i] != stamp(lo+i) {
				t.Fatalf("batch[%d] is not op %d with its stamp", i, lo+i)
			}
		}
	}
	fill := func(b *batcher, lo, hi int) {
		for i := lo; i < hi; i++ {
			b.add(stamp(i))
		}
	}

	b := newBatcher(16, ops)
	if got := b.take(); got != nil {
		t.Fatalf("empty batcher yielded %d ops", len(got.ops))
	}
	fill(b, 0, 3)
	want(b.take(), 0, 3)
	if got := b.take(); got != nil {
		t.Fatalf("drained batcher yielded %d ops", len(got.ops))
	}

	b = newBatcher(16, ops)
	fill(b, 0, 40)
	want(b.take(), 0, 16)
	want(b.take(), 16, 32)
	want(b.take(), 32, 40)
	if got := b.take(); got != nil {
		t.Fatalf("drained batcher yielded %d ops", len(got.ops))
	}

	// The open batch stays open: 4 ops left waiting behind a full batch take
	// the 3 that arrive before the pipeline asks again.
	b = newBatcher(16, ops)
	fill(b, 0, 20)
	want(b.take(), 0, 16)
	fill(b, 20, 23)
	want(b.take(), 16, 23)
}

// TestRunLogClosedLoopBatches pins that the dispatcher leaves closed-loop
// batch boundaries alone: every op is due at once, so a live engine cuts the
// same Batch-sized chunks -- and commits the same bytes -- as the simulator.
func TestRunLogClosedLoopBatches(t *testing.T) {
	ops := testLogOps(100, 16)
	opts := LogOptions{N: 7, Seed: 21, Batch: 16, Pipeline: 4}
	for _, engine := range []Engine{EngineSim, EngineMem} {
		opts.Engine = engine
		rep, err := RunLog(logCtx(t), opts, ops)
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if rep.Batches != 7 || rep.Slots-rep.NoopSlots != rep.Batches || rep.Ops != 100 {
			t.Fatalf("%v: ops=%d batches=%d slots=%d noops=%d, want 100 ops in 7 batches, one per non-no-op slot",
				engine, rep.Ops, rep.Batches, rep.Slots, rep.NoopSlots)
		}
		requireLog(t, engine.String(), ops, rep)
	}
}

// TestRunLogWorkloadOpenLoopCrash drives the open-loop dispatcher through a
// slot-boundary crash: arrivals, free window slots and the dead proposer's
// turns interleave however the scheduler likes, and still every operation
// commits exactly once in submission order, no batch exceeds Batch, and the
// no-op slots are exactly the dead proposer's turns.
func TestRunLogWorkloadOpenLoopCrash(t *testing.T) {
	const count, batch, n, crashed, crashSlot = 300, 4, 4, 2, 5
	reg := NewMetricsRegistry()
	rep, err := RunLogWorkload(logCtx(t), LogWorkloadOptions{
		Log: LogOptions{
			Engine: EngineMem, N: n, Seed: 13, Batch: batch, Pipeline: 3, Metrics: reg,
			Crashes: []LogCrash{{Process: crashed, Slot: crashSlot}},
		},
		Ops:  count,
		Rate: 50000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != count {
		t.Fatalf("committed %d ops, want %d", rep.Ops, count)
	}
	requireLog(t, "mem", genWorkloadOps(13, count, DefaultWorkloadOpBytes), rep)
	if rep.Slots-rep.NoopSlots != rep.Batches || len(rep.SlotDecisions) != rep.Slots {
		t.Fatalf("slots=%d noops=%d batches=%d decisions=%d",
			rep.Slots, rep.NoopSlots, rep.Batches, len(rep.SlotDecisions))
	}
	if rep.NoopSlots == 0 {
		t.Fatal("crash plan produced no no-op slots")
	}
	for s, v := range rep.SlotDecisions {
		want := msg.V1
		if s%n == crashed && s >= crashSlot {
			want = msg.V0
		}
		if v != want {
			t.Fatalf("slot %d (proposer %d) decided %v, want %v", s, s%n, v, want)
		}
	}
	snap := reg.Snapshot()
	if h := snap.Histograms["log.batch_ops"]; h.Count != uint64(rep.Batches) || h.Max > batch {
		t.Fatalf("batch sizes %+v: want %d batches of at most %d ops", h, rep.Batches, batch)
	}
	if h := snap.Histograms["log.batch_wait_seconds"]; h.Count != count || h.Min < 0 {
		t.Fatalf("batch wait %+v: want one non-negative observation per op", h)
	}
	if hi, now := snap.Gauges["log.backlog_ops_max"], snap.Gauges["log.backlog_ops"]; hi < 1 || now != 0 {
		t.Fatalf("backlog gauge %v (high-water %v): want an empty backlog that was once non-empty", now, hi)
	}
}

// TestGenWorkloadOpsPinned pins the open-loop generator's bytes per seed:
// the benchmark's paced log workloads commit exactly these operations, so a
// change here changes what every one of their runs measures.
func TestGenWorkloadOpsPinned(t *testing.T) {
	for seed, want := range map[uint64]string{
		0:          "3d397af579b3d3d9a250932474c4cf41a6b6085e866666462ef4bb8c7b8b7059",
		1:          "017c0e60944ea1360a9188685275ce76252e41a8639baa6814edc0b033ad552a",
		13:         "fd48cf8e1d29450986af6d0ed5c12c90ed5efe7008804383f899277632110552",
		0xdeadbeef: "c2429169441d89ad2228040b1e05fda6f9b7965683315d20076f0da2fbb00871",
	} {
		h := sha256.New()
		for _, op := range genWorkloadOps(seed, 1000, DefaultWorkloadOpBytes) {
			h.Write(op)
		}
		for _, op := range genWorkloadOps(seed, 77, 40) {
			h.Write(op)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("seed %#x: ops digest %s, want %s", seed, got, want)
		}
	}
}

// TestRunLogWorkloadCancelMidSchedule cancels an open-loop run whose arrival
// schedule has minutes left: the dispatcher must give up its wait for the
// next arrival and return what committed, not sleep the schedule out.
func TestRunLogWorkloadCancelMidSchedule(t *testing.T) {
	ctx, cancel := context.WithCancel(logCtx(t))
	defer cancel()
	time.AfterFunc(50*time.Millisecond, cancel)
	rep, err := RunLogWorkload(ctx, LogWorkloadOptions{
		Log:  LogOptions{Engine: EngineMem, N: 4, Seed: 17, Batch: 8, Pipeline: 2},
		Ops:  1000,
		Rate: 5,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || rep.Ops >= 1000 {
		t.Fatalf("canceled run reported %+v, want a partial report", rep)
	}
	requireLog(t, "mem", genWorkloadOps(17, 1000, DefaultWorkloadOpBytes)[:rep.Ops], rep)
}

// TestRunLogWorkloadSimDeterministic pins that the sim workload is a pure
// function of its options (the generator is seeded, the engine virtual).
func TestRunLogWorkloadSimDeterministic(t *testing.T) {
	opts := LogWorkloadOptions{
		Log: LogOptions{Engine: EngineSim, N: 7, Seed: 3, Batch: 16, Pipeline: 4},
		Ops: 128,
	}
	a, err := RunLogWorkload(logCtx(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLogWorkload(logCtx(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.SimTime != b.SimTime || !slices.Equal(a.Replicas, b.Replicas) {
		t.Fatalf("sim workload diverged: %v vs %v virtual time", a.SimTime, b.SimTime)
	}
	submitted := genWorkloadOps(3, 128, DefaultWorkloadOpBytes)
	requireLog(t, "sim", submitted, a)
	requireLog(t, "sim", submitted, b)
}

// TestBatchFrames pins the payload chunker: frames stay within the wire
// bound and concatenate back to the original operations.
func TestBatchFrames(t *testing.T) {
	big := testLogOps(5, maxLogOp/2)
	frames := batchFrames(big)
	if len(frames) < 2 {
		t.Fatalf("oversized batch packed into %d frame(s)", len(frames))
	}
	var joined []byte
	for _, f := range frames {
		if len(f) > msg.MaxPayload {
			t.Fatalf("frame of %d bytes exceeds MaxPayload", len(f))
		}
		joined = append(joined, f...)
	}
	i := 0
	for _, want := range big {
		l, n := binary.Uvarint(joined[i:])
		if n <= 0 || int(l) != len(want) {
			t.Fatalf("bad length prefix at %d", i)
		}
		i += n
		if !bytes.Equal(joined[i:i+int(l)], want) {
			t.Fatal("frame payload diverges from op")
		}
		i += int(l)
	}
	if i != len(joined) {
		t.Fatalf("%d trailing bytes after ops", len(joined)-i)
	}
	if got := batchFrames(nil); got != nil {
		t.Fatalf("empty batch produced %d frames", len(got))
	}
}

// TestLogOptionValidation covers the option error paths.
func TestLogOptionValidation(t *testing.T) {
	ctx := logCtx(t)
	ops := testLogOps(4, 16)
	cases := []LogOptions{
		{Engine: Engine(99)},
		{N: -1},
		{N: 7, K: 3},
		{N: 7, Batch: -1},
		{N: 7, Pipeline: -1},
		{N: 7, Crashes: []LogCrash{{Process: 9, Slot: 0}}},
		{N: 7, Crashes: []LogCrash{{Process: 1, Slot: -1}}},
		{N: 7, Crashes: []LogCrash{{Process: 1, Slot: 0}, {Process: 1, Slot: 2}}},
		{N: 7, Crashes: []LogCrash{{Process: 1, Slot: 0}, {Process: 2, Slot: 0}, {Process: 3, Slot: 0}}},
	}
	for i, opts := range cases {
		if _, err := RunLog(ctx, opts, ops); err == nil {
			t.Errorf("case %d (%+v): no error", i, opts)
		}
	}
	if _, err := RunLog(ctx, LogOptions{N: 4}, [][]byte{make([]byte, maxLogOp+1)}); err == nil {
		t.Error("oversized op accepted")
	}
	if _, err := RunLogWorkload(ctx, LogWorkloadOptions{Ops: -1}); err == nil {
		t.Error("negative op count accepted")
	}
	if _, err := RunLogWorkload(ctx, LogWorkloadOptions{OpBytes: 4}); err == nil {
		t.Error("op size below header accepted")
	}
	if _, err := RunLogWorkload(ctx, LogWorkloadOptions{Rate: -5}); err == nil {
		t.Error("negative rate accepted")
	}
}

// TestRunLogEmpty: an empty op list is a no-op run on every engine.
func TestRunLogEmpty(t *testing.T) {
	for _, engine := range []Engine{EngineSim, EngineMem} {
		rep, err := RunLog(logCtx(t), LogOptions{Engine: engine, N: 4}, nil)
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if rep.Ops != 0 || rep.Slots != 0 {
			t.Fatalf("%v: empty run committed %+v", engine, rep)
		}
		requireLog(t, engine.String(), nil, rep)
	}
}

// TestLogRecycledReplicas runs the log on every engine, at pipeline 1 and
// 4, over more than 3n slots with one slot-boundary crash, so replica sets
// and their machines pass from recorded slots to later ones: check.Log is
// clean and exactly the submitted ops commit. After the run a spare set,
// which still holds its last slot's frames, comes back from replicas for a
// new slot holding no frame, count or send of that slot -- only the
// proposer's new batch -- with the machines it held and no conn of its last
// slot, and the slot then resets those machines in place and commits the
// new batch with them on the same engine, on the set's own storage.
func TestLogRecycledReplicas(t *testing.T) {
	const n = 7
	ops := testLogOps(4*3*n+5, 16)
	for _, engine := range []Engine{EngineSim, EngineMem, EngineTCP} {
		for _, pipeline := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/pipeline=%d", engine, pipeline), func(t *testing.T) {
				r, err := newLogRun(LogOptions{
					Engine: engine, N: n, Seed: 13, Batch: 4, Pipeline: pipeline,
					Crashes: []LogCrash{{Process: 3, Slot: n + 2}},
				})
				if err != nil {
					t.Fatal(err)
				}
				rep, err := r.run(logCtx(t), ops, 0)
				if err != nil {
					t.Fatal(err)
				}
				requireLog(t, engine.String(), ops, rep)
				if rep.Slots <= 3*n || rep.NoopSlots == 0 {
					t.Fatalf("%d slots, %d no-op: want more than %d and a crash that bites", rep.Slots, rep.NoopSlots, 3*n)
				}
				if len(r.spare) == 0 {
					t.Fatal("no replica set came back for a later slot")
				}
				// The spare sets' last slots were the run's last; a no-op
				// slot's set holds no frame, so take one a batch slot's.
				var set *replicaSet
				for len(r.spare) > 0 {
					spare := <-r.spare
					for i := range spare.ws {
						if spare.ws[i].held > 0 {
							set = spare
						}
					}
				}
				if set == nil {
					t.Fatal("no spare set holds a frame of its last slot")
				}
				inner := make([]core.Machine, n)
				for i := range set.ws {
					inner[i] = set.ws[i].inner
				}

				s := rep.Slots
				if !r.aliveAt(ID(s%n), s) {
					s++
				}
				batch := testLogOps(3, 24)
				d := r.desc(s, &logBatch{ops: batch, submitted: make([]time.Duration, len(batch))})
				r.spare <- set
				got := r.replicas(d)
				if got != set {
					t.Fatal("replicas built a new set with one spare")
				}
				for i := range got.ws {
					w := &got.ws[i]
					if got.machines[i] != core.Machine(w) {
						t.Fatalf("machines[%d] is not the set's replica %d", i, i)
					}
					if got.conns[i] != nil {
						t.Fatalf("replica %d holds a conn of its last slot", i)
					}
					if w.inner != inner[i] {
						t.Fatalf("replica %d lost the machine it held", i)
					}
					if ID(i) == d.proposer {
						if w.held != 1 || !slices.EqualFunc(w.frames, batchFrames(batch), bytes.Equal) || len(w.send) != 1 {
							t.Fatalf("proposer %d holds %d frames and %d sends, want the new batch's 1 and 1", i, w.held, len(w.send))
						}
						continue
					}
					if w.frames != nil || w.held != 0 || w.send != nil {
						t.Fatalf("replica %d kept %d frames (%d held) and %d sends of its last slot", i, len(w.frames), w.held, len(w.send))
					}
				}

				r.spare <- got
				var endpoints []*netxport.Endpoint
				if engine == EngineTCP {
					if endpoints, err = tcpMeshEndpoints(n, nil); err != nil {
						t.Fatal(err)
					}
					defer closeEndpoints(endpoints)
				}
				res := r.runSlot(logCtx(t), d, endpoints)
				if v, err := r.verdict(d, res); err != nil || v != msg.V1 {
					t.Fatalf("recycled slot: err %v, value %v", err, v)
				}
				if res.set != set {
					t.Fatal("the slot ran on a new set with one spare")
				}
				ws2 := res.set.ws
				for i := range ws2 {
					if ws2[i].inner != inner[i] {
						t.Fatalf("replica %d's machine was rebuilt, not reset", i)
					}
					if _, ok := ws2[i].Decided(); d.run[i] && (!ok || !slices.EqualFunc(ws2[i].frames, batchFrames(batch), bytes.Equal)) {
						t.Fatalf("replica %d did not commit the new batch", i)
					}
				}
			})
		}
	}
}

// logSlotMallocCeiling bounds what a closed-loop TCP slot allocates at the
// margin (n = 7, batch 16, window 4). Measured: 34.9–37.8 mallocs per slot,
// race detector on or off, with a replica set carrying its slot's engine
// scaffolding; 54.3–61.1 when every slot built its drivers, note and error
// channels, machine and conn slices and send list new.
const logSlotMallocCeiling = 44

// TestLogSlotAllocations pins the per-slot allocations of a live log: the
// heap allocations of a 313-slot TCP run less those of a 63-slot run, over
// the 250 slots between them, so the mesh's set-up and the replica sets
// built before the free list fills cancel out. It counts allocations, not
// time, and takes the least of three readings, since anything else running
// in the process can only add to a reading.
func TestLogSlotAllocations(t *testing.T) {
	opts := LogOptions{Engine: EngineTCP, N: 7, Seed: 1, Batch: 16, Pipeline: 4}
	mallocs := func(ops [][]byte) (uint64, int) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := RunLog(logCtx(t), opts, ops)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		requireLog(t, "tcp", ops, rep)
		return after.Mallocs - before.Mallocs, rep.Slots
	}
	small, large := testLogOps(1000, 16), testLogOps(5000, 16)
	mallocs(small) // the first run in a process pays for the runtime's warm-up
	least := math.Inf(1)
	for range 3 {
		a, sa := mallocs(small)
		b, sb := mallocs(large)
		least = min(least, float64(b-a)/float64(sb-sa))
	}
	t.Logf("%.2f mallocs per slot", least)
	if least > logSlotMallocCeiling {
		t.Fatalf("a live slot allocates %.2f times, ceiling %d: is its engine scaffolding built per slot again?", least, logSlotMallocCeiling)
	}
}
