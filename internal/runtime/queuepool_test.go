package runtime

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"resilient/internal/core"
	"resilient/internal/metrics"
	"resilient/internal/msg"
	"resilient/internal/policy"
	"resilient/internal/sched"
)

// runOn executes cfg as Run does, but on q instead of a queue from the pool,
// and leaves q as the run left it: not reset, not pooled. WallClock stays
// zero, so two runs of one Config have equal Results, snapshots included.
func runOn(t *testing.T, cfg Config, q *eventQueue) *Result {
	t.Helper()
	r, err := newRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	queuePool.Put(r.queue)
	r.queue = q
	r.start()
	r.loop()
	r.finish()
	return r.result
}

// heavyTail delays one message in twenty by 1e9..1e12 and the rest by
// Uniform[0.1, 1): keys in the overflow store and more than one calibration.
// It keeps no state of its own, so a Config holding it can run again.
func heavyTail() policy.LinkPolicy {
	return policy.FromScheduler(sched.Func(func(_, _ msg.ID, _ msg.Message, _ float64, rng *rand.Rand) float64 {
		return tailDelay(rng, 20)
	}))
}

// TestRecycledQueueEqualsFresh is the reason a pooled queue cannot change a
// number: one Config on new(eventQueue), and on a queue that a larger,
// heavy-tailed run has just been through, must give the same Result down to
// the queue's own metrics and the bits of SimTime. The same holds through
// Run itself, whichever queue the pool hands it.
func TestRecycledQueueEqualsFresh(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		small := func() Config {
			return Config{
				N: 7, K: 3, Inputs: mixedInputs(7), Spawn: failStopSpawner(t),
				Policy: heavyTail(), Seed: seed, Metrics: metrics.NewRegistry(),
			}
		}
		large := Config{
			N: 13, K: 4, Inputs: mixedInputs(13), Spawn: maliciousSpawner(t),
			Policy: heavyTail(), Seed: seed + 100,
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
	// The pool may drop a put or hand the queue to another P; a fresh queue
	// proves nothing, so ask again.
	for attempt := 0; attempt < 20; attempt++ {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if left := res.MessagesSent - res.Events; !res.AllDecided || left < n {
			t.Fatalf("run decided %v with %d keys left queued, want all decided and at least %d", res.AllDecided, left, n)
		}
		q := queuePool.Get().(*eventQueue)
		if len(q.chunks) < 2 {
			continue
		}
		for i, c := range q.chunks {
			for j := range c {
				if !reflect.DeepEqual(c[j], slot{}) {
					t.Fatalf("returned queue: slot %d of chunk %d holds %+v", j, i, c[j])
				}
			}
		}
		if q.free != 0 || q.nodeFree != 0 || q.live != 0 || q.nodes.live != 0 || q.len() != 0 {
			t.Fatalf("returned queue: free lists %d/%d, %d+%d chunks in use, %d keys; want none",
				q.free, q.nodeFree, q.live, q.nodes.live, q.len())
		}
		return
	}
	t.Fatal("the pool never returned a queue that had been used")
}

// TestConcurrentRunsMatchSequential runs one Config from 8 goroutines at
// once, 20 times each; every Result must equal the sequential one. Run under
// -race this is also the check that a pooled queue is never shared.
func TestConcurrentRunsMatchSequential(t *testing.T) {
	cfg := Config{
		N: 7, K: 2, Inputs: mixedInputs(7), Spawn: maliciousSpawner(t),
		Policy: heavyTail(), Seed: 9,
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
