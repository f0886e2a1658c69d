package resilient

import (
	"resilient/internal/faults"
	"resilient/internal/policy"
	"resilient/internal/runtime"
	"resilient/internal/spawn"
	"resilient/internal/trace"
)

// Result is the outcome of one simulated execution; see the runtime package
// for field documentation.
type Result = runtime.Result

// StallReason explains an incomplete run.
type StallReason = runtime.StallReason

// Stall reasons.
const (
	NotStalled   = runtime.NotStalled
	QueueDrained = runtime.QueueDrained
	EventBudget  = runtime.EventBudget
	TimeHorizon  = runtime.TimeHorizon
)

// Crash schedules a fail-stop death; see the faults package.
type Crash = faults.Crash

// Built-in delay laws, each a LinkPolicy that never drops.
type (
	// UniformDelay delivers after a uniform delay in [Min, Max].
	UniformDelay = policy.Uniform
	// ExponentialDelay delivers after an exponential delay.
	ExponentialDelay = policy.Exponential
	// ConstantDelay yields an effectively synchronous execution.
	ConstantDelay = policy.Constant
)

// TraceSink receives execution events; see the trace package.
type TraceSink = trace.Sink

// TraceBuffer is an in-memory trace sink.
type TraceBuffer = trace.Buffer

// NewTraceBuffer returns a trace buffer retaining at most limit events
// (0 = unlimited).
func NewTraceBuffer(limit int) *TraceBuffer { return trace.NewBuffer(limit) }

// Strategy names a Byzantine behaviour for simulated adversaries; see the
// spawn package.
type Strategy = spawn.Strategy

// Byzantine strategies.
const (
	// StrategySilent never sends anything (equivalent to being dead).
	StrategySilent = spawn.Silent
	// StrategyBalancer always claims the current minority value among
	// correct processes -- the Section 4 worst case.
	StrategyBalancer = spawn.Balancer
	// StrategyFlipper claims an independent random value each time.
	StrategyFlipper = spawn.Flipper
	// StrategyLiar0 always claims 0.
	StrategyLiar0 = spawn.Liar0
	// StrategyLiar1 always claims 1.
	StrategyLiar1 = spawn.Liar1
	// StrategyEquivocator claims 0 toward the first half of the processes
	// and 1 toward the rest.
	StrategyEquivocator = spawn.Equivocator
	// StrategyDoubleEcho sends conflicting duplicate echoes (Figure 2
	// runs only).
	StrategyDoubleEcho = spawn.DoubleEcho
	// StrategyMute behaves correctly for two phases, then stops sending.
	StrategyMute = spawn.Mute
)

// BroadcastScheme selects the reliable-broadcast primitive behind the echo
// stage of the Figure-2 protocols (ProtocolMalicious, ProtocolBroadcast);
// see the spawn package.
type BroadcastScheme = spawn.BroadcastScheme

// Broadcast schemes.
const (
	// SchemeEcho is the paper's full-quorum primitive (the default).
	SchemeEcho = spawn.SchemeEcho
	// SchemeSample counts echoes against per-process random samples, each
	// acceptance failing with probability at most SimOptions.Eps; see
	// DESIGN §13.
	SchemeSample = spawn.SchemeSample
)

// SimOptions configures Simulate beyond the required arguments. The zero
// value is a sensible default: uniform random delays, seed 0, no faults.
type SimOptions struct {
	// Seed selects the execution; same options, same execution.
	Seed uint64
	// Policy, when non-nil, decides per-link delivery (delay, loss,
	// partition); the same policy value drives the live engines. Nil is
	// Uniform[0.1, 1] delays and no loss.
	Policy LinkPolicy
	// Crashes schedules fail-stop deaths, keyed by process.
	Crashes map[ID]Crash
	// Adversaries assigns Byzantine strategies to processes; those
	// processes stop counting toward agreement and termination.
	Adversaries map[ID]Strategy
	// Trace receives execution events.
	Trace TraceSink
	// MaxEvents bounds the run length (0 = default).
	MaxEvents int
	// MaxSimTime bounds simulated time (0 = unlimited).
	MaxSimTime float64
	// RunToCompletion processes all traffic even after every correct
	// process has decided (for message-count measurements).
	RunToCompletion bool
	// Broadcast and Eps select the echo-broadcast primitive and its error
	// bound, as Scenario's fields of the same names do.
	Broadcast BroadcastScheme
	Eps       float64
	// Coin overrides the coin scheme of randomized protocols (CoinAuto
	// keeps the protocol's registered default). CoinLocal gives every
	// process an independent coin seeded from the run seed; CoinShared
	// derives one common coin from the run seed. Overrides that contradict
	// the protocol -- any scheme for a deterministic protocol, CoinNone for
	// a randomized one -- are rejected.
	Coin CoinScheme
	// Unsafe skips the resilience-bound validation of (n, k), for
	// deliberately misconfigured lower-bound experiments.
	Unsafe bool
	// Metrics, when non-nil, receives run accounting (messages, events,
	// decisions, phase and latency histograms) under the "runtime." prefix;
	// the run's final Result.Metrics carries a snapshot. Sharing one
	// registry across runs aggregates them.
	Metrics *MetricsRegistry
}

// Simulate runs one execution of the protocol with n processes, fault
// parameter k, and the given initial values, under the discrete-event
// engine. It validates (n, k) against the protocol's resilience bound
// unless opts.Unsafe is set.
func Simulate(p Protocol, n, k int, inputs []Value, opts SimOptions) (*Result, error) {
	cfg, err := simConfig(p, n, k, inputs, opts)
	if err != nil {
		return nil, err
	}
	return runtime.Run(cfg)
}

// simConfig converts Simulate's arguments into a Scenario -- the one place
// the two option shapes meet -- validates it, and adds the simulator-only
// knobs (trace, time horizon) to its engine configuration.
func simConfig(p Protocol, n, k int, inputs []Value, opts SimOptions) (cfg runtime.Config, err error) {
	sc := Scenario{
		Protocol:    p,
		N:           n,
		K:           k,
		Inputs:      inputs,
		Seed:        opts.Seed,
		Crashes:     opts.Crashes,
		Adversaries: opts.Adversaries,
		Policy:      opts.Policy,
		Broadcast:   opts.Broadcast,
		Eps:         opts.Eps,
		Coin:        opts.Coin,
		Unsafe:      opts.Unsafe,
		MaxEvents:   opts.MaxEvents,
		Metrics:     opts.Metrics,
	}
	sp, err := validate(&sc, EngineSim)
	if err != nil {
		return cfg, err
	}
	cfg = sc.SimConfig(sp)
	cfg.Sink = opts.Trace
	cfg.MaxSimTime = opts.MaxSimTime
	cfg.RunToCompletion = opts.RunToCompletion
	return cfg, nil
}
