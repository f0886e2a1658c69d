package main

import (
	"math/rand/v2"

	"resilient"
)

// Metric names. The end-to-end set is the same on every workload: "unit" is
// the workload's unit of work, a committed client operation on the log
// workloads and a simulated message on the simulator workloads; "instance"
// is one consensus or broadcast instance, a log slot or one Simulate call.
const (
	mSetup      = "setup_s"
	mThroughput = "throughput_per_s"
	mP50        = "latency_p50_ms"
	mP95        = "latency_p95_ms"
	mCPU        = "cpu_us_per_unit"
	mAlloc      = "alloc_kb_per_instance"
)

// units gives every metric's unit; BENCHMARK.json must agree (bench_test.go).
var units = map[string]string{
	mSetup: "s", mThroughput: "1/s", mP50: "ms", mP95: "ms", mCPU: "us", mAlloc: "KiB",
}

// endToEnd lists the end-to-end metrics in the order they are printed.
var endToEnd = []string{mSetup, mThroughput, mP50, mP95, mCPU, mAlloc}

// Log shape shared by the three log workloads (and the log probes).
const (
	logN        = 7
	logBatch    = 16
	logPipeline = 4
	opBytes     = 16
)

// workload is one fixed-work repetition ("rep") of one benchmark shape. A
// rep's size never depends on time; -seconds only decides how many reps run.
type workload struct {
	name string
	sim  bool

	// Log workloads: ops per rep, open-loop arrival rate (0 = closed loop
	// over harness-generated ops), and the slot at which process 6
	// fail-stops (0 = no fault).
	ops       int
	rate      float64
	crashSlot int

	// Simulator workloads.
	protocol   resilient.Protocol
	n, k       int
	runs       int // Simulate calls per rep, one seed each
	balancers  int // highest ids running StrategyBalancer
	sampled    bool
	unanimous  bool // all-V1 inputs instead of alternating
	completion bool
}

const crashedProcess = 6

var workloads = []workload{
	{name: "log_tcp_sat", ops: 60000},
	{name: "log_tcp_paced", ops: 24000, rate: 8000, crashSlot: 1500},
	{name: "log_tcp_idle", ops: 2000, rate: 500},
	{name: "sim_malicious_byz", sim: true, protocol: resilient.ProtocolMalicious, n: 31, k: 10, runs: 24, balancers: 3},
	{name: "sim_bcast_10k", sim: true, protocol: resilient.ProtocolBroadcast, n: 10000, k: 1000, runs: 2,
		sampled: true, unanimous: true, completion: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled shrinks a rep by factor f (the warm-up is the rep at f = 0.1, the
// smoke test the whole suite at 0.02). The broadcast workload scales its
// process count, because two runs cannot be cut in ten; everything else
// scales its op or run count. Rates and the log shape never change.
func (w workload) scaled(f float64) workload {
	if f == 1 {
		return w
	}
	atLeast := func(min int, v float64) int {
		if int(v) < min {
			return min
		}
		return int(v)
	}
	if !w.sim {
		w.ops = atLeast(4*logBatch, float64(w.ops)*f)
		if w.crashSlot > 0 {
			w.crashSlot = atLeast(logN, float64(w.crashSlot)*f)
		}
		return w
	}
	if w.sampled {
		w.n = atLeast(200, float64(w.n)*f)
		w.k = w.n / 10
		if f < 0.5 {
			w.runs = 1
		}
		return w
	}
	w.runs = atLeast(1, float64(w.runs)*f)
	return w
}

// logOptions is the log shape of every log workload; only the seed, the
// crash plan and (probes) the engine vary.
func (w workload) logOptions(seed uint64, reg *resilient.MetricsRegistry) resilient.LogOptions {
	o := resilient.LogOptions{
		Engine:   resilient.EngineTCP,
		Protocol: resilient.ProtocolMalicious,
		N:        logN,
		Batch:    logBatch,
		Pipeline: logPipeline,
		Seed:     seed,
		Metrics:  reg,
	}
	if w.crashSlot > 0 {
		o.Crashes = []resilient.LogCrash{{Process: crashedProcess, Slot: w.crashSlot}}
	}
	return o
}

// genOps makes the closed-loop workload's operations: an 8-byte sequence
// number (what the checker keys on) followed by 8 seed-derived bytes.
func genOps(seed uint64, count int) [][]byte {
	rng := rand.New(rand.NewPCG(seed, 0x6c6f676f7073))
	buf := make([]byte, count*opBytes)
	ops := make([][]byte, count)
	for i := range ops {
		op := buf[i*opBytes : (i+1)*opBytes]
		putSeq(op, uint64(i))
		putSeq(op[8:], rng.Uint64())
		ops[i] = op
	}
	return ops
}

// simSeeds derives the rep's per-run simulator seeds from the bench seed.
func simSeeds(seed uint64, runs int) []uint64 {
	rng := rand.New(rand.NewPCG(seed, 0x73696d73656564))
	seeds := make([]uint64, runs)
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	return seeds
}

func (w workload) simInputs() []resilient.Value {
	in := make([]resilient.Value, w.n)
	for i := range in {
		if w.unanimous || i%2 == 1 {
			in[i] = resilient.V1
		}
	}
	return in
}

func (w workload) adversaries() map[resilient.ID]resilient.Strategy {
	if w.balancers == 0 {
		return nil
	}
	adv := make(map[resilient.ID]resilient.Strategy, w.balancers)
	for i := w.n - w.balancers; i < w.n; i++ {
		adv[resilient.ID(i)] = resilient.StrategyBalancer
	}
	return adv
}

func (w workload) simOptions(seed uint64, reg *resilient.MetricsRegistry) resilient.SimOptions {
	o := resilient.SimOptions{
		Seed:            seed,
		Adversaries:     w.adversaries(),
		RunToCompletion: w.completion,
		Metrics:         reg,
	}
	if w.sampled {
		o.Broadcast = resilient.SchemeSample
	}
	return o
}
