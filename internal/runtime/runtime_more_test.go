package runtime

import (
	"cmp"
	"slices"
	"testing"

	"resilient/internal/adversary"
	"resilient/internal/core"
	"resilient/internal/faults"
	"resilient/internal/msg"
	"resilient/internal/policy"
	"resilient/internal/trace"
)

func TestConfigValidation(t *testing.T) {
	good := Config{N: 3, K: 1, Inputs: mixedInputs(3), Spawn: failStopSpawner(t)}
	bad := []Config{
		{N: 0, K: 0, Inputs: nil, Spawn: good.Spawn},
		{N: 3, K: 3, Inputs: mixedInputs(3), Spawn: good.Spawn},
		{N: 3, K: -1, Inputs: mixedInputs(3), Spawn: good.Spawn},
		{N: 3, K: 1, Inputs: mixedInputs(2), Spawn: good.Spawn},
		{N: 3, K: 1, Inputs: []msg.Value{0, 1, 9}, Spawn: good.Spawn},
		{N: 3, K: 1, Inputs: mixedInputs(3), Spawn: nil},
		{N: 3, K: 1, Inputs: mixedInputs(3), Spawn: good.Spawn,
			Crashes: faults.Plan{5: {Process: 5}}},
		{N: 3, K: 1, Inputs: mixedInputs(3), Spawn: good.Spawn,
			Byzantine: map[msg.ID]bool{7: true}},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := Run(good); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

// TestConfigValidationNamesLowestID: a configuration with several
// out-of-range ids is refused in the same words on every run, naming the
// lowest id rather than whichever one the map walk met first.
func TestConfigValidationNamesLowestID(t *testing.T) {
	spawn := failStopSpawner(t)
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{N: 3, K: 1, Inputs: mixedInputs(3), Spawn: spawn, Byzantine: map[msg.ID]bool{7: true, 8: true, 9: true}},
			"runtime: byzantine id p7 outside 0..2"},
		{Config{N: 3, K: 1, Inputs: mixedInputs(3), Spawn: spawn, Crashes: faults.Plan{5: {Process: 5}, 6: {Process: 6}}},
			"faults: crash process p5 outside 0..2"},
	} {
		for i := 0; i < 64; i++ {
			if _, err := Run(tc.cfg); err == nil || err.Error() != tc.want {
				t.Fatalf("run %d: %v, want %q", i, err, tc.want)
			}
		}
	}
}

func TestSpawnErrorPropagates(t *testing.T) {
	_, err := Run(Config{
		N: 3, K: 1, Inputs: mixedInputs(3),
		Spawn: func(ctx SpawnContext) (core.Machine, error) {
			if ctx.Config.Self == 2 {
				return nil, errTest
			}
			return failStopSpawner(t)(ctx)
		},
	})
	if err == nil {
		t.Fatal("spawn error swallowed")
	}
}

var errTest = errTestType{}

type errTestType struct{}

func (errTestType) Error() string { return "test error" }

func TestNilMachineRejected(t *testing.T) {
	_, err := Run(Config{
		N: 2, K: 0, Inputs: mixedInputs(2),
		Spawn: func(ctx SpawnContext) (core.Machine, error) { return nil, nil },
	})
	if err == nil {
		t.Fatal("nil machine accepted")
	}
}

func TestEventBudgetStops(t *testing.T) {
	res, err := Run(Config{
		N: 7, K: 3, Inputs: mixedInputs(7),
		Spawn:     failStopSpawner(t),
		MaxEvents: 5,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalled != EventBudget {
		t.Fatalf("stall reason %v, want EventBudget", res.Stalled)
	}
}

func TestTimeHorizonStops(t *testing.T) {
	res, err := Run(Config{
		N: 7, K: 3, Inputs: mixedInputs(7),
		Spawn:      failStopSpawner(t),
		Policy:     policy.Constant{D: 100},
		MaxSimTime: 50, // first deliveries land at t=100
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalled != TimeHorizon {
		t.Fatalf("stall reason %v, want TimeHorizon", res.Stalled)
	}
	if res.DecidedCount() != 0 {
		t.Fatal("decisions before any delivery")
	}
}

func TestQueueDrainedDetection(t *testing.T) {
	// Kill n-1 processes immediately: the survivor waits for n-k messages
	// that never come once the queue drains.
	plan := faults.InitiallyDead(1, 2)
	res, err := Run(Config{
		N: 3, K: 1, Inputs: mixedInputs(3),
		Spawn:   failStopSpawner(t),
		Crashes: plan,
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalled != QueueDrained {
		t.Fatalf("stall reason %v, want QueueDrained", res.Stalled)
	}
}

func TestCrashedProcessesReported(t *testing.T) {
	plan := faults.Plan{
		0: {Process: 0, Phase: 0, AfterSends: 2},
	}
	res, err := Run(Config{
		N: 5, K: 2, Inputs: mixedInputs(5),
		Spawn:   failStopSpawner(t),
		Crashes: plan,
		Seed:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Crashed) != 1 || res.Crashed[0] != 0 {
		t.Fatalf("crashed %v, want [0]", res.Crashed)
	}
	requireConsensus(t, res, "crash reporting")
}

func TestMidBroadcastCrashDeliversPrefixOnly(t *testing.T) {
	// A process dying after 2 sends of its phase-0 broadcast reaches at
	// most 2 mailboxes.
	buf := trace.NewBuffer(0)
	plan := faults.Plan{0: {Process: 0, Phase: 0, AfterSends: 2}}
	_, err := Run(Config{
		N: 5, K: 2, Inputs: mixedInputs(5),
		Spawn:   failStopSpawner(t),
		Crashes: plan,
		Seed:    5,
		Sink:    buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	for _, e := range buf.Events() {
		if e.Kind == trace.EventSend && e.Process == 0 {
			sent++
		}
	}
	if sent != 2 {
		t.Fatalf("p0 sent %d messages, want exactly 2", sent)
	}
}

// TestMidBroadcastCrashLeaksNoSlot kills p0 after j of the sends of one
// fan-out outbound, for every j and for both fan-out forms: exactly j keys
// are queued, all referencing one slot, every copy addressed to a live
// process is delivered, and once the queue has drained every slot is back on
// the free list -- including the j = 0 slot that was held but never
// referenced by a queued key. A multicast reaches the first j in-range
// entries of its list in list order; the out-of-range entries between them
// cost no crash budget.
func TestMidBroadcastCrashLeaksNoSlot(t *testing.T) {
	const n = 5
	for _, form := range []struct {
		name    string
		targets []int32  // nil: broadcast
		order   []msg.ID // the multicast's in-range targets
	}{
		{name: "broadcast"},
		{name: "multicast", targets: []int32{-1, 3, n, 1, 4, -7, 2, 0, n + 7}, order: []msg.ID{3, 1, 4, 2, 0}},
	} {
		for j := 0; j <= n; j++ {
			machines := make([]*forgingMachine, n)
			r, err := newRunner(Config{
				N: n, K: 2, Inputs: mixedInputs(n),
				Spawn: func(ctx SpawnContext) (core.Machine, error) {
					m := &forgingMachine{id: ctx.Config.Self, n: n}
					if m.id == 0 {
						m.targets = form.targets
					}
					machines[m.id] = m
					return m, nil
				},
				Crashes: faults.Plan{0: {Process: 0, Phase: 0, AfterSends: j}},
				Seed:    uint64(10 + j),
			})
			if err != nil {
				t.Fatal(err)
			}
			r.start()
			var copies []eventKey
			toOthers, shared := 0, int32(-1)
			r.queue.each(func(k eventKey) {
				if r.queue.slot(k.ref).m.From != 0 {
					return
				}
				copies = append(copies, k)
				if k.to != 0 { // p0 may be dead before its own copy arrives
					toOthers++
				}
				if shared >= 0 && k.ref != shared {
					t.Errorf("%s j=%d: copies of one message in slots %d and %d", form.name, j, shared, k.ref)
				}
				shared = k.ref
			})
			if len(copies) != j || (j > 0 && r.queue.slot(shared).refs != int32(j)) {
				t.Errorf("%s j=%d: %d copies of p0's message queued", form.name, j, len(copies))
			}
			if form.targets != nil {
				slices.SortFunc(copies, func(a, b eventKey) int { return cmp.Compare(a.seq, b.seq) })
				for i, k := range copies {
					if k.to != form.order[i] {
						t.Errorf("%s j=%d: send %d went to p%d, want p%d", form.name, j, i, k.to, form.order[i])
					}
				}
			}
			r.loop()
			delivered := 0
			for _, m := range machines[1:] {
				for _, in := range m.seen {
					if in.From == 0 {
						delivered++
					}
				}
			}
			if delivered != toOthers {
				t.Errorf("%s j=%d: %d of %d copies to live processes delivered", form.name, j, delivered, toOthers)
			}
			allocated, live, free := r.queue.slotCounts()
			if r.queue.len() != 0 || live != 0 || free != allocated {
				t.Errorf("%s j=%d: drained queue holds %d keys, %d of %d slots live, %d free",
					form.name, j, r.queue.len(), live, allocated, free)
			}
		}
	}
}

func TestAuthenticationStampsSender(t *testing.T) {
	// A machine that forges From on its messages: the runtime must
	// overwrite it.
	forger := &forgingMachine{id: 0, n: 3}
	res, err := Run(Config{
		N: 3, K: 0, Inputs: mixedInputs(3),
		Spawn: func(ctx SpawnContext) (core.Machine, error) {
			if ctx.Config.Self == 0 {
				return forger, nil
			}
			return majoritySpawner(t)(ctx)
		},
		Byzantine: map[msg.ID]bool{0: true},
		Seed:      6,
		MaxEvents: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	for _, m := range forger.seen {
		if m.From == 99 {
			t.Fatal("forged sender id survived the transport")
		}
	}
}

type forgingMachine struct {
	id      msg.ID
	n       int
	targets []int32 // non-nil: Start multicasts to these instead of broadcasting
	seen    []msg.Message
}

func (f *forgingMachine) ID() msg.ID { return f.id }
func (f *forgingMachine) Start() []core.Outbound {
	m := msg.Val(99, 0, msg.V1) // claims to be p99
	if f.targets != nil {
		return []core.Outbound{core.ToMany(f.targets, m)}
	}
	return []core.Outbound{core.ToAll(m)}
}
func (f *forgingMachine) OnMessage(in msg.Message) []core.Outbound {
	f.seen = append(f.seen, in)
	return nil
}
func (f *forgingMachine) Decided() (msg.Value, bool) { return 0, false }
func (f *forgingMachine) Halted() bool               { return false }
func (f *forgingMachine) Phase() msg.Phase           { return 0 }

func TestPartitionSchedulerStallsMinority(t *testing.T) {
	res, err := Run(Config{
		N: 7, K: 3, Inputs: mixedInputs(7),
		Spawn:      failStopSpawner(t),
		Policy:     adversary.Partition{GroupOf: adversary.Halves(4)},
		Seed:       8,
		MaxSimTime: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The majority side (4 >= n-k) can decide; the 3-process side cannot.
	if !res.Agreement {
		t.Fatal("partition broke agreement within the bound")
	}
	if res.AllDecided {
		t.Fatal("minority partition decided without n-k reachable processes")
	}
}

func TestRunToCompletionCountsTrailingTraffic(t *testing.T) {
	a, err := Run(Config{
		N: 5, K: 2, Inputs: mixedInputs(5),
		Spawn: failStopSpawner(t), Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{
		N: 5, K: 2, Inputs: mixedInputs(5),
		Spawn: failStopSpawner(t), Seed: 9,
		RunToCompletion: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Events < a.Events {
		t.Fatalf("run-to-completion processed fewer events (%d < %d)", b.Events, a.Events)
	}
}

func TestWorldViewCounts(t *testing.T) {
	// Exercise the world view through a balancer-style probe machine.
	var observed [2]int
	probe := func(ctx SpawnContext) (core.Machine, error) {
		if ctx.Config.Self == 3 {
			w := ctx.World
			return &probeMachine{id: 3, probe: func() {
				observed[0], observed[1] = w.CorrectValueCounts()
			}}, nil
		}
		return majoritySpawner(t)(ctx)
	}
	_, err := Run(Config{
		N: 4, K: 1, Inputs: []msg.Value{0, 0, 1, 1},
		Spawn:     probe,
		Byzantine: map[msg.ID]bool{3: true},
		Seed:      10,
		MaxEvents: 100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if observed[0]+observed[1] != 3 {
		t.Fatalf("world view saw %v correct processes, want 3", observed)
	}
}

type probeMachine struct {
	id    msg.ID
	probe func()
	done  bool
}

func (p *probeMachine) ID() msg.ID { return p.id }
func (p *probeMachine) Start() []core.Outbound {
	p.probe()
	return nil
}
func (p *probeMachine) OnMessage(msg.Message) []core.Outbound {
	if !p.done {
		p.probe()
		p.done = true
	}
	return nil
}
func (p *probeMachine) Decided() (msg.Value, bool) { return 0, false }
func (p *probeMachine) Halted() bool               { return false }
func (p *probeMachine) Phase() msg.Phase           { return 0 }

func TestStragglerFinishesViaWildcards(t *testing.T) {
	// One process is served 40x slower than the rest: the others decide and
	// halt long before it completes a phase; it must still decide, driven
	// purely by the Section 3.3 post-decision wildcard messages.
	n, k := 7, 2
	res, err := Run(Config{
		N: n, K: k, Inputs: mixedInputs(n),
		Spawn: maliciousSpawner(t),
		Policy: policy.Skewed{
			Base:       policy.Uniform{Min: 0.1, Max: 1},
			SlowSet:    map[msg.ID]bool{6: true},
			SlowFactor: 40,
		},
		Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireConsensus(t, res, "wildcard straggler")
	// The straggler must actually be the last decider by simulated time.
	var lastID msg.ID
	lastT := -1.0
	for id, at := range res.DecisionTime {
		if at > lastT {
			lastT, lastID = at, id
		}
	}
	if lastID != 6 {
		t.Logf("note: straggler p6 was not last (p%d was); policy skew too weak for seed", lastID)
	}
}

func TestFigure1StragglersAfterDecidersHalt(t *testing.T) {
	// Figure 1 deciders halt after two final witness batches. With maximal
	// crash budget spent and one heavily delayed process, the two final
	// batches must carry the straggler to its own decision.
	n, k := 7, 3
	res, err := Run(Config{
		N: n, K: k, Inputs: mixedInputs(n),
		Spawn: failStopSpawner(t),
		Crashes: faults.Plan{
			0: {Process: 0, Phase: 1, AfterSends: 3},
		},
		Policy: policy.Skewed{
			Base:       policy.Uniform{Min: 0.1, Max: 1},
			SlowSet:    map[msg.ID]bool{6: true},
			SlowFactor: 40,
		},
		Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireConsensus(t, res, "fig1 straggler")
}
