package runtime_test

import (
	"math/rand/v2"
	"sync"
	"testing"

	"resilient/internal/core"
	"resilient/internal/failstop"
	"resilient/internal/faults"
	"resilient/internal/metrics"
	"resilient/internal/msg"
	"resilient/internal/policy"
	"resilient/internal/runtime"
)

func failstopConfig(n, k int, seed uint64, reg *metrics.Registry) runtime.Config {
	inputs := make([]msg.Value, n)
	for i := range inputs {
		inputs[i] = msg.Value(i % 2)
	}
	return runtime.Config{
		N: n, K: k, Inputs: inputs,
		Spawn: func(ctx runtime.SpawnContext) (core.Machine, error) {
			return failstop.New(ctx.Config, ctx.Sink)
		},
		Seed:    seed,
		Metrics: reg,
	}
}

// TestRunMetricsMatchResult checks that the registry's counters agree with
// the per-run Result fields, and that the result carries a snapshot.
func TestRunMetricsMatchResult(t *testing.T) {
	reg := metrics.NewRegistry()
	res, err := runtime.Run(failstopConfig(7, 3, 1, reg))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("Result.Metrics missing despite attached registry")
	}
	c := res.Metrics.Counters
	if got := c["runtime.messages_sent"]; got != int64(res.MessagesSent) {
		t.Errorf("messages_sent counter = %d, Result = %d", got, res.MessagesSent)
	}
	if got := c["runtime.messages_delivered"]; got != int64(res.MessagesDelivered) {
		t.Errorf("messages_delivered counter = %d, Result = %d", got, res.MessagesDelivered)
	}
	if got := c["runtime.events"]; got != int64(res.Events) {
		t.Errorf("events counter = %d, Result = %d", got, res.Events)
	}
	if got := c["runtime.decisions"]; got != int64(len(res.Decisions)) {
		t.Errorf("decisions counter = %d, Result = %d", got, len(res.Decisions))
	}
	if c["runtime.runs"] != 1 || c["runtime.stalls"] != 0 {
		t.Errorf("runs/stalls = %d/%d, want 1/0", c["runtime.runs"], c["runtime.stalls"])
	}
	if res.WallClock <= 0 {
		t.Error("WallClock not recorded")
	}
	h := res.Metrics.Histograms["runtime.decision_phase"]
	if h.Count != uint64(len(res.DecisionPhase)) {
		t.Errorf("decision_phase histogram count = %d, want %d", h.Count, len(res.DecisionPhase))
	}
}

// TestRunMetricsQueue checks the event queue's own figures: the high-water
// mark is between one broadcast and everything sent, the first pop
// calibrated the calendar, and under the default Uniform[0.1, 1] delays no
// key ever lay past its horizon; a link policy with a 1e12 tail must show up
// in queue_overflow_keys.
func TestRunMetricsQueue(t *testing.T) {
	reg := metrics.NewRegistry()
	res, err := runtime.Run(failstopConfig(7, 3, 1, reg))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Metrics.Counters
	if peak := res.Metrics.Gauges["runtime.queue_len_max"]; peak < 7 || peak > float64(res.MessagesSent) {
		t.Errorf("queue_len_max = %v with %d messages sent", peak, res.MessagesSent)
	}
	if c["runtime.queue_recalibrations"] < 1 || c["runtime.queue_overflow_keys"] != 0 {
		t.Errorf("recalibrations/overflow keys = %d/%d, want >= 1 and 0",
			c["runtime.queue_recalibrations"], c["runtime.queue_overflow_keys"])
	}

	reg = metrics.NewRegistry()
	cfg := failstopConfig(7, 3, 1, reg)
	sent := 0
	cfg.Policy = linkFunc(func(rng *rand.Rand) float64 {
		if sent++; sent%50 == 0 {
			return 1e12
		}
		return 0.1 + 0.9*rng.Float64()
	})
	if res, err = runtime.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided || res.Metrics.Counters["runtime.queue_overflow_keys"] == 0 {
		t.Errorf("heavy tail: decided %v, %d overflow keys", res.AllDecided, res.Metrics.Counters["runtime.queue_overflow_keys"])
	}
}

// TestRunMetricsCrashesAndStalls checks fault accounting: a run whose
// quorum is destroyed must record the stall and the crashes.
func TestRunMetricsCrashesAndStalls(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := failstopConfig(5, 2, 3, reg)
	// Kill 3 of 5 at phase 0: only 2 survive, below the n-k=3 quorum.
	cfg.Crashes = faults.InitiallyDead(2, 3, 4)
	res, err := runtime.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AllDecided {
		t.Fatal("run with a destroyed quorum decided")
	}
	c := res.Metrics.Counters
	if c["runtime.stalls"] != 1 {
		t.Errorf("stalls = %d, want 1", c["runtime.stalls"])
	}
	if c["runtime.crashes"] != 3 {
		t.Errorf("crashes = %d, want 3", c["runtime.crashes"])
	}
}

// TestRunMetricsMessageConservation checks that every sent message is
// accounted for exactly once: delivered to a machine, lost by the link
// policy (the counter must agree with Result.MessagesDropped, which is
// documented as link losses only), arrived at a dead or halted process, or
// still queued when the run stopped.
func TestRunMetricsMessageConservation(t *testing.T) {
	crash := failstopConfig(7, 3, 4, nil)
	crash.Crashes = faults.Plan{5: {Process: 5, Phase: 1, AfterSends: 3}, 6: {Process: 6}}
	lossy := failstopConfig(7, 3, 5, nil)
	lossy.Policy = policy.Drop{P: 0.05}
	complete := failstopConfig(7, 3, 6, nil)
	complete.RunToCompletion = true
	for _, tc := range []struct {
		name string
		cfg  runtime.Config
	}{{"crash", crash}, {"drop", lossy}, {"complete", complete}} {
		name, cfg := tc.name, tc.cfg
		cfg.Metrics = metrics.NewRegistry()
		res, err := runtime.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c := res.Metrics.Counters
		sent, delivered := c["runtime.messages_sent"], c["runtime.messages_delivered"]
		dropped, undelivered := c["runtime.messages_dropped"], c["runtime.messages_undelivered"]
		queued := int64(res.MessagesSent - res.MessagesDropped - res.Events)
		if dropped != int64(res.MessagesDropped) {
			t.Errorf("%s: messages_dropped counter = %d, Result = %d", name, dropped, res.MessagesDropped)
		}
		if queued < 0 || sent != delivered+dropped+undelivered+queued {
			t.Errorf("%s: sent %d != delivered %d + dropped %d + undelivered %d + queued %d",
				name, sent, delivered, dropped, undelivered, queued)
		}
		switch name {
		case "crash":
			if undelivered == 0 {
				t.Error("crash: no delivery reached a dead process; the case tests nothing")
			}
		case "drop":
			if dropped == 0 {
				t.Error("drop: the link lost nothing; the case tests nothing")
			}
		case "complete":
			if queued != 0 {
				t.Errorf("complete: %d messages left queued", queued)
			}
		}
	}
}

// TestRunMetricsNilRegistryUnchanged checks the zero-config path: no
// registry, identical Result (metrics must not perturb the execution).
func TestRunMetricsNilRegistryUnchanged(t *testing.T) {
	withReg, err := runtime.Run(failstopConfig(7, 3, 9, metrics.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	without, err := runtime.Run(failstopConfig(7, 3, 9, nil))
	if err != nil {
		t.Fatal(err)
	}
	if without.Metrics != nil {
		t.Error("Result.Metrics set without a registry")
	}
	if withReg.MessagesSent != without.MessagesSent || withReg.Value != without.Value ||
		withReg.MaxPhase != without.MaxPhase || withReg.Events != without.Events {
		t.Errorf("metrics perturbed the execution: %+v vs %+v", withReg, without)
	}
}

// TestSharedRegistryAcrossConcurrentRuns drives many runs in parallel into
// one registry; meaningful under -race, and the totals must add up.
func TestSharedRegistryAcrossConcurrentRuns(t *testing.T) {
	t.Parallel()
	reg := metrics.NewRegistry()
	const runs = 16
	sent := make([]int, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := runtime.Run(failstopConfig(5, 2, uint64(i), reg))
			if err != nil {
				t.Error(err)
				return
			}
			sent[i] = res.MessagesSent
		}(i)
	}
	wg.Wait()
	var total int64
	for _, s := range sent {
		total += int64(s)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["runtime.messages_sent"]; got != total {
		t.Errorf("aggregated messages_sent = %d, sum of runs = %d", got, total)
	}
	if got := snap.Counters["runtime.runs"]; got != runs {
		t.Errorf("runs counter = %d, want %d", got, runs)
	}
}

// linkFunc is a delay-only link policy drawn by a function of the run's rng.
type linkFunc func(rng *rand.Rand) float64

func (f linkFunc) Link(_, _ msg.ID, _ msg.Message, _ float64, rng *rand.Rand) policy.Verdict {
	return policy.Verdict{Delay: f(rng)}
}
