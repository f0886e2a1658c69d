package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"resilient"
)

// observer is all a traced run adds to a rep: a registry for the public
// options and a span around each call into a public function. The
// end-to-end run passes the zero value, which does nothing, so nothing the
// traced path needs can fail an end-to-end run.
type observer struct {
	reg  *resilient.MetricsRegistry
	span func(name string) (end func())
}

func (o observer) begin(name string) func() {
	if o.span == nil {
		return func() {}
	}
	return o.span(name)
}

// inputs is everything a rep feeds the program, derived from the bench seed
// alone: the same seed gives the same inputs on every rep.
type inputs struct {
	ops      [][]byte // closed-loop ops; the open-loop driver generates its own from logSeed
	logSeed  uint64
	simSeeds []uint64
	simIn    []resilient.Value
}

func makeInputs(w workload, seed uint64) inputs {
	if w.sim {
		return inputs{simSeeds: simSeeds(seed, w.runs), simIn: w.simInputs()}
	}
	in := inputs{logSeed: seed}
	if w.rate == 0 {
		in.ops = genOps(seed, w.ops)
	}
	return in
}

// repResult is one rep's measurements. It holds numbers only: keeping a
// rep's outputs alive would grow the live heap from rep to rep, the collector
// would run less often, and later reps would measure faster than earlier ones.
type repResult struct {
	metrics   map[string]float64 // end-to-end metric -> this rep's value
	attempted int                // ops submitted, or Simulate calls
	failed    int                // ops not committed exactly once in order, or runs without agreement
	counts    map[string]int64   // quantities that must repeat exactly for a given seed
	facts     reportFacts
	steal     float64 // share of the machine's CPU time the hypervisor withheld during the timed section
}

// reportFacts are plain numbers copied from the reports the rep's public
// calls returned; the traced run derives per-layer ratios from them.
type reportFacts struct {
	ops, slots, noops               int           // log
	elapsed, p99                    time.Duration // log
	runs                            int           // sim
	events, delivered, sent, phases int           // sim
	wall                            time.Duration // sim
}

func (f *reportFacts) add(g reportFacts) {
	f.ops += g.ops
	f.slots += g.slots
	f.noops += g.noops
	f.elapsed += g.elapsed
	f.p99 += g.p99
	f.runs += g.runs
	f.events += g.events
	f.delivered += g.delivered
	f.sent += g.sent
	f.phases += g.phases
	f.wall += g.wall
}

// outputs is what the rep's public calls returned, for the checks.
type outputs struct {
	log  *resilient.LogReport
	sims []*resilient.Result
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// machineTicks reads the machine-wide CPU accounting of /proc/stat: ticks the
// hypervisor ran something else while this VM wanted the CPU ("steal"), and
// all ticks. Where there is no such file both are 0 and no rep counts as
// stolen.
func machineTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal guest guest_nice
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// usage brackets a timed section with the CPU, allocation and steal counters.
type usage struct {
	cpu   time.Duration
	alloc uint64
	steal float64
}

func measure(f func() error) (usage, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	steal0, ticks0 := machineTicks()
	cpu0, err := cpuTime()
	if err != nil {
		return usage{}, err
	}
	if err := f(); err != nil {
		return usage{}, err
	}
	cpu1, err := cpuTime()
	if err != nil {
		return usage{}, err
	}
	runtime.ReadMemStats(&after)
	u := usage{cpu: cpu1 - cpu0, alloc: after.TotalAlloc - before.TotalAlloc}
	// Ticks are 10 ms: below half a second of machine time a single stolen
	// tick would read as a large share, so such a section is not judged.
	if steal1, ticks1 := machineTicks(); ticks1-ticks0 >= 50 {
		u.steal = (steal1 - steal0) / (ticks1 - ticks0)
	}
	return u, nil
}

// runRep is one rep: set-up (input generation plus a warm-up of one tenth of
// the rep), then the timed section, then the output checks.
func runRep(ctx context.Context, w workload, seed uint64, verified *simReference, obs observer) (*repResult, error) {
	defer obs.begin("rep")()
	start := time.Now()
	endSetup := obs.begin("setup")
	in := makeInputs(w, seed)
	warm := w.scaled(0.1)
	if _, _, err := execute(ctx, warm, makeInputs(warm, seed), observer{}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()
	endSetup()
	setup := time.Since(start)

	r, out, err := execute(ctx, w, in, obs)
	if err != nil {
		return nil, err
	}
	r.metrics[mSetup] = setup.Seconds()
	if w.sim {
		r.failed, err = checkSim(out.sims, verified)
	} else {
		r.failed, err = checkLog(w, in.ops, out.log)
	}
	return r, err
}

// execute runs the timed section of w on in and derives the rep's metrics.
func execute(ctx context.Context, w workload, in inputs, obs observer) (*repResult, outputs, error) {
	if w.sim {
		return executeSim(w, in, obs)
	}
	return executeLog(ctx, w, in, obs)
}

func executeLog(ctx context.Context, w workload, in inputs, obs observer) (*repResult, outputs, error) {
	opts := w.logOptions(in.logSeed, obs.reg)
	var rep *resilient.LogReport
	u, err := measure(func() (err error) {
		if w.rate == 0 {
			defer obs.begin("RunLog")()
			rep, err = resilient.RunLog(ctx, opts, in.ops)
			return err
		}
		defer obs.begin("RunLogWorkload")()
		rep, err = resilient.RunLogWorkload(ctx, resilient.LogWorkloadOptions{
			Log: opts, Ops: w.ops, Rate: w.rate, OpBytes: opBytes,
		})
		return err
	})
	if err != nil {
		return nil, outputs{}, fmt.Errorf("%s: %w", w.name, err)
	}
	if rep.Ops == 0 {
		return nil, outputs{}, fmt.Errorf("%s: no op committed", w.name)
	}
	ops := float64(rep.Ops)
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	return &repResult{
		metrics: map[string]float64{
			mThroughput: ops / rep.Elapsed.Seconds(),
			mP50:        ms(rep.P50),
			mP95:        ms(rep.P95),
			mCPU:        u.cpu.Seconds() * 1e6 / ops,
			mAlloc:      float64(u.alloc) / 1024 / float64(rep.Slots),
		},
		attempted: w.ops,
		counts:    map[string]int64{"committed_ops": int64(rep.Ops)},
		facts:     reportFacts{ops: rep.Ops, slots: rep.Slots, noops: rep.NoopSlots, elapsed: rep.Elapsed, p99: rep.P99},
		steal:     u.steal,
	}, outputs{log: rep}, nil
}

func executeSim(w workload, in inputs, obs observer) (*repResult, outputs, error) {
	var sims []*resilient.Result
	var walls []time.Duration
	u, err := measure(func() error {
		for i, seed := range in.simSeeds {
			end := obs.begin(fmt.Sprintf("Simulate#%d", i))
			t0 := time.Now()
			res, err := resilient.Simulate(w.protocol, w.n, w.k, in.simIn, w.simOptions(seed, obs.reg))
			wall := time.Since(t0)
			end()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			if res.MessagesSent == 0 {
				return fmt.Errorf("%s seed %d: no message sent", w.name, seed)
			}
			sims = append(sims, res)
			walls = append(walls, wall)
		}
		return nil
	})
	if err != nil {
		return nil, outputs{}, err
	}
	f := reportFacts{runs: len(sims)}
	per100k := make([]float64, len(sims)) // run wall per 100,000 messages: comparable across seeds
	for i, res := range sims {
		f.sent += res.MessagesSent
		f.delivered += res.MessagesDelivered
		f.events += res.Events
		f.phases += int(res.MaxPhase)
		f.wall += walls[i]
		per100k[i] = walls[i].Seconds() * 1e3 / (float64(res.MessagesSent) / 1e5)
	}
	msgs := float64(f.sent)
	return &repResult{
		metrics: map[string]float64{
			mThroughput: msgs / f.wall.Seconds(),
			mP50:        percentile(per100k, 0.50),
			mP95:        percentile(per100k, 0.95),
			mCPU:        u.cpu.Seconds() * 1e6 / msgs,
			mAlloc:      float64(u.alloc) / 1024 / float64(len(sims)),
		},
		attempted: len(sims),
		counts: map[string]int64{
			"sim_messages": int64(f.sent), "sim_events": int64(f.events), "sim_phases": int64(f.phases),
		},
		facts: f,
		steal: u.steal,
	}, outputs{sims: sims}, nil
}
