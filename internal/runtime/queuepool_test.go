package runtime

import (
	"math"
	"math/rand/v2"
	"reflect"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"

	"resilient/internal/core"
	"resilient/internal/metrics"
	"resilient/internal/msg"
	"resilient/internal/policy"
)

// runOn executes cfg as Run does, but on q instead of an idle queue, and
// leaves q as the run left it: not reset, not kept. WallClock stays
// zero, so two runs of one Config have equal Results, snapshots included.
func runOn(t *testing.T, cfg Config, q *eventQueue) *Result {
	t.Helper()
	r, err := newRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	putQueue(r.queue)
	r.queue = q
	r.start()
	r.loop()
	r.finish()
	return r.result
}

// heavyTail delays one message in twenty by 1e9..1e12 and the rest by
// Uniform[0.1, 1): keys in the overflow store and more than one calibration.
// It keeps no state of its own, so a Config holding it can run again.
type heavyTail struct{}

func (heavyTail) Link(_, _ msg.ID, _ msg.Message, _ float64, rng *rand.Rand) policy.Verdict {
	return policy.Verdict{Delay: tailDelay(rng, 20)}
}

// TestRecycledQueueEqualsFresh is the reason a recycled queue cannot change a
// number: one Config on new(eventQueue), and on a queue that a larger,
// heavy-tailed run has just been through, must give the same Result down to
// the queue's own metrics and the bits of SimTime. The same holds through
// Run itself, whichever idle queue it takes.
func TestRecycledQueueEqualsFresh(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		small := func() Config {
			return Config{
				N: 7, K: 3, Inputs: mixedInputs(7), Spawn: failStopSpawner(t),
				Policy: heavyTail{}, Seed: seed, Metrics: metrics.NewRegistry(),
			}
		}
		large := Config{
			N: 13, K: 4, Inputs: mixedInputs(13), Spawn: maliciousSpawner(t),
			Policy: heavyTail{}, Seed: seed + 100,
		}
		fresh := runOn(t, small(), new(eventQueue))
		c := fresh.Metrics.Counters
		if !fresh.AllDecided || c["runtime.queue_recalibrations"] == 0 || c["runtime.queue_overflow_keys"] == 0 {
			t.Fatalf("seed %d: the reference run decided %v with %d calibrations and %d overflow keys; want all three",
				seed, fresh.AllDecided, c["runtime.queue_recalibrations"], c["runtime.queue_overflow_keys"])
		}

		q := new(eventQueue)
		if res := runOn(t, large, q); res.MessagesSent <= 4*fresh.MessagesSent || q.farKeys == 0 {
			t.Fatalf("seed %d: the earlier run sent %d messages (%d overflow keys), the later one %d",
				seed, res.MessagesSent, q.farKeys, fresh.MessagesSent)
		}
		q.reset()
		recycled := runOn(t, small(), q)
		if !reflect.DeepEqual(recycled, fresh) || math.Float64bits(recycled.SimTime) != math.Float64bits(fresh.SimTime) {
			t.Errorf("seed %d: on a recycled queue\n%+v\n%+v\non a fresh one\n%+v\n%+v",
				seed, recycled, recycled.Metrics, fresh, fresh.Metrics)
		}

		if _, err := Run(large); err != nil {
			t.Fatal(err)
		}
		pooled, err := Run(small())
		if err != nil {
			t.Fatal(err)
		}
		// Only the clock differs: drop it and the histogram it feeds.
		pm, fm := pooled.Metrics, fresh.Metrics
		pooled.WallClock, pooled.Metrics, fresh.Metrics = 0, nil, nil
		if !reflect.DeepEqual(pooled, fresh) || !reflect.DeepEqual(pm.Counters, fm.Counters) || !reflect.DeepEqual(pm.Gauges, fm.Gauges) {
			t.Errorf("seed %d: through Run\n%+v\n%+v\non a fresh queue\n%+v\n%+v", seed, pooled, pm, fresh, fm)
		}
	}
}

// payloadMachine broadcasts a message with a Payload at the start and again
// on every delivery, and decides on its first delivery: the run ends on the
// last first delivery with most of what was sent still queued.
type payloadMachine struct {
	id      msg.ID
	decided bool
}

func (p *payloadMachine) out() []core.Outbound {
	m := msg.Val(p.id, 0, msg.V1)
	m.Payload = []byte("pinned by the queue")
	return []core.Outbound{core.ToAll(m)}
}

func (p *payloadMachine) ID() msg.ID             { return p.id }
func (p *payloadMachine) Start() []core.Outbound { return p.out() }
func (p *payloadMachine) OnMessage(msg.Message) []core.Outbound {
	p.decided = true
	return p.out()
}
func (p *payloadMachine) Decided() (msg.Value, bool) { return msg.V1, p.decided }
func (p *payloadMachine) Halted() bool               { return false }
func (p *payloadMachine) Phase() msg.Phase           { return 0 }

// TestReturnedQueuePinsNothing checks release's promise across runs: the
// queue Run puts back holds no message, whatever the run left queued, and
// neither free list survives into the next run.
func TestReturnedQueuePinsNothing(t *testing.T) {
	const n = 40 // 40 keys per broadcast: the slab is past its first chunk
	cfg := Config{
		N: n, K: 0, Inputs: mixedInputs(n), Seed: 2,
		Spawn: func(ctx SpawnContext) (core.Machine, error) {
			return &payloadMachine{id: ctx.Config.Self}, nil
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if left := res.MessagesSent - res.Events; !res.AllDecided || left < n {
		t.Fatalf("run decided %v with %d keys left queued, want all decided and at least %d", res.AllDecided, left, n)
	}
	q := takeQueue() // the queue Run just put back: the list is a LIFO
	defer putQueue(q)
	if len(q.chunks) < 2 {
		t.Fatalf("the first queue taken after the run has %d slot chunks, want the run's 2 or more", len(q.chunks))
	}
	for i, c := range q.chunks {
		for j := range c {
			if !reflect.DeepEqual(c[j], slot{}) {
				t.Fatalf("returned queue: slot %d of chunk %d holds %+v", j, i, c[j])
			}
		}
	}
	if q.free != 0 || q.blockFree != 0 || q.live != 0 || q.blocks.live != 0 || q.len() != 0 {
		t.Fatalf("returned queue: free lists %d/%d, %d+%d chunks in use, %d keys; want none",
			q.free, q.blockFree, q.live, q.blocks.live, q.len())
	}
}

// TestRunsReuseQueueOnAnyP runs one Config again and again on one goroutine
// at GOMAXPROCS=2, parking it between two runs and waking it from a helper
// goroutine that runs on the other P, so that consecutive runs start on
// different Ps. Every run after the first must find the queue the run
// before it left, wherever it runs: it may allocate at most 1.5x what the
// second run, the first on a recycled queue, did. A run on a new queue at
// this size allocates about ten times that.
func TestRunsReuseQueueOnAnyP(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(2))
	cfg := Config{N: 31, K: 10, Inputs: mixedInputs(31), Spawn: maliciousSpawner(t), Seed: 4}
	run := func() uint64 {
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		if res, err := Run(cfg); err != nil || !res.AllDecided {
			t.Fatalf("run: %v, decided %v", err, res != nil && res.AllDecided)
		}
		goruntime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	// The helper spins on its P until this goroutine is parked on wake, then
	// hands it over: the woken goroutine joins the helper's P, and the
	// helper yields that P to it and takes up the idle one.
	wake := make(chan struct{})
	var hops, stop atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		for stop.Load() == 0 {
			if hops.Load() == 0 {
				continue
			}
			select {
			case wake <- struct{}{}:
				hops.Add(-1)
				goruntime.Gosched()
			default:
			}
		}
	}()
	defer func() { stop.Store(1); <-done }()
	hop := func() {
		hops.Add(1)
		<-wake
	}

	run() // may build the queue
	reused := run()
	for i := 0; i < 6; i++ {
		hop()
		if got := run(); float64(got) > 1.5*float64(reused) {
			t.Fatalf("run %d after a hop allocated %d B, the first recycled run %d B: it built a new queue", i+3, got, reused)
		}
	}
}

// TestConcurrentRunsMatchSequential runs one Config from 8 goroutines at
// once, 20 times each; every Result must equal the sequential one. Run under
// -race this is also the check that an idle queue is never shared.
func TestConcurrentRunsMatchSequential(t *testing.T) {
	cfg := Config{
		N: 7, K: 2, Inputs: mixedInputs(7), Spawn: maliciousSpawner(t),
		Policy: heavyTail{}, Seed: 9,
	}
	want, err := Run(cfg)
	if err != nil || !want.AllDecided {
		t.Fatalf("sequential run: %v, decided %v", err, want.AllDecided)
	}
	want.WallClock = 0
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := Run(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				got.WallClock = 0
				if !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d run %d: %+v, sequential %+v", g, i, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// forward hides a policy's type from newRunner.
type forward struct{ policy.LinkPolicy }

// TestUniformDrawnInPlace pins which policies enqueue draws in place: the
// default, spelled either way, and any Uniform whose bounds Uniform.Link
// would use as they are. Everything else goes through Link.
func TestUniformDrawnInPlace(t *testing.T) {
	for _, tc := range []struct {
		name    string
		pol     policy.LinkPolicy
		inPlace bool
	}{
		{"nil", nil, true},
		{"Default", policy.Default(), true},
		{"Uniform[2,2]", policy.Uniform{Min: 2, Max: 2}, true},
		{"Uniform[0,1]", policy.Uniform{Min: 0, Max: 1}, false},
		{"Uniform[1,0.5]", policy.Uniform{Min: 1, Max: 0.5}, false},
		{"Exponential", policy.Exponential{Mean: 1}, false},
		{"forwarded Default", forward{policy.Default()}, false},
		{"Drop", policy.Drop{P: 0.1}, false},
	} {
		r, err := newRunner(Config{N: 3, K: 1, Inputs: mixedInputs(3), Spawn: failStopSpawner(t), Policy: tc.pol})
		if err != nil {
			t.Fatal(err)
		}
		putQueue(r.queue)
		if r.uniform != tc.inPlace {
			t.Errorf("%s: drawn in place %v, want %v", tc.name, r.uniform, tc.inPlace)
		}
	}
}
