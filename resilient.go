// Package resilient is a from-scratch Go implementation of the consensus
// protocols of Gabriel Bracha and Sam Toueg, "Resilient Consensus
// Protocols" (PODC 1983): probabilistically terminating binary consensus
// for fully asynchronous systems, tolerating up to floor((n-1)/2) fail-stop
// processes (Figure 1) or floor((n-1)/3) malicious processes (Figure 2) --
// both bounds tight (Theorems 1-4).
//
// The package runs a protocol four ways:
//
//   - RunScenario: one consensus instance, described once as a Scenario, on
//     any engine -- the deterministic simulator, goroutines over an
//     in-memory message system, or goroutines over loopback TCP sockets --
//     returning one Outcome on every engine. It wraps spawn.Run, the one
//     run function, which Monte-Carlo ensembles and experiments call too.
//   - Simulate: the simulator alone, with its event and time budgets and
//     traces; every delay law and scripted adversary is a LinkPolicy, the
//     same value the live engines take.
//   - RunLog / RunLogWorkload: the replicated log, one instance per slot,
//     on the same three engines; a slot is a Scenario and runs through the
//     two run loops spawn.Run uses, one per engine kind.
//   - NewMachine: raw protocol state machines, for embedding in a custom
//     engine.
//
// Protocols live in a registry (internal/proto): each protocol package
// registers a descriptor -- name, fault model, resilience bound, coin
// scheme, machine constructor -- and every layer here resolves protocols
// through it, so adding a protocol is a one-package change. Randomized
// protocols draw their free choices through the coin seam (internal/coin):
// per-process local coins reproduce [BenO83], the deterministic shared
// coin gives the constant-expected-phase common-coin variant.
//
// The analysis side of the paper (Section 4) is exposed through the
// Analyze* and Estimate* functions: exact Markov-chain absorption times,
// the paper's closed-form bounds, and fast Monte-Carlo estimation.
package resilient

import (
	"fmt"

	"resilient/internal/coin"
	"resilient/internal/core"
	"resilient/internal/msg"
	"resilient/internal/proto"
	"resilient/internal/quorum"
	"resilient/internal/runtime"
	"resilient/internal/spawn" // registers the whole protocol zoo
)

// Value is a binary consensus value (0 or 1).
type Value = msg.Value

// Convenience values.
const (
	V0 = msg.V0
	V1 = msg.V1
)

// ID identifies a process (0..n-1).
type ID = msg.ID

// Phase is a protocol phase number.
type Phase = msg.Phase

// Machine is a protocol instance at a single process; see the core package
// contract: Start once, then OnMessage per delivery, never concurrently.
type Machine = core.Machine

// FaultModel selects the failure assumptions.
type FaultModel = quorum.FaultModel

// Fault models.
const (
	// FailStop processes may only die, without warning.
	FailStop = quorum.FailStop
	// Malicious processes may lie, equivocate, and coordinate.
	Malicious = quorum.Malicious
)

// Protocol selects a consensus protocol implementation. It is the registry
// id of internal/proto: String, Valid, Model, MaxFaults, Aliases, Bound,
// NeedsCoin, and DefaultCoin are all registry lookups.
type Protocol = proto.ID

const (
	// ProtocolFailStop is the Figure 1 protocol: witness messages,
	// k <= floor((n-1)/2) fail-stop faults.
	ProtocolFailStop = proto.FailStop
	// ProtocolMalicious is the Figure 2 protocol: authenticated echo
	// broadcast, k <= floor((n-1)/3) malicious faults.
	ProtocolMalicious = proto.Malicious
	// ProtocolMajority is the Section 4.1 analysis variant: plain value
	// exchange, majority adoption, supermajority decision (fail-stop).
	ProtocolMajority = proto.Majority
	// ProtocolBenOrCrash is the [BenO83] baseline for fail-stop faults.
	ProtocolBenOrCrash = proto.BenOrCrash
	// ProtocolBenOrByzantine is the [BenO83] baseline for malicious
	// faults (requires 5k < n).
	ProtocolBenOrByzantine = proto.BenOrByzantine
	// ProtocolBivalence is the Section 5 weak-bivalence protocol for
	// initially-dead faults (tolerates any k < n).
	ProtocolBivalence = proto.Bivalence
	// ProtocolBroadcast is a single reliable broadcast: process 0
	// disseminates its input and every correct process delivers it. It is
	// the echo-stage primitive of Figure 2 isolated as its own protocol,
	// runnable over either broadcast scheme (full-quorum echo or the
	// sample-based scheme of internal/sample) for the scalability
	// benchmarks; see SimOptions.Broadcast.
	ProtocolBroadcast = proto.Broadcast
	// ProtocolBenOrShared is Ben-Or's structure driven by the
	// deterministic shared coin: all correct processes flip the same value
	// each round, so the expected phase count is constant instead of
	// growing with n. See internal/coin.
	ProtocolBenOrShared = proto.BenOrShared
)

// ParseProtocol resolves a protocol name or alias (e.g. "failstop",
// "fig2", "benor-shared"), case-insensitively, against the registry.
func ParseProtocol(name string) (Protocol, error) {
	return proto.Parse(name)
}

// Protocols returns every registered protocol in id order.
func Protocols() []Protocol {
	ds := proto.All()
	ps := make([]Protocol, len(ds))
	for i, d := range ds {
		ps[i] = d.ID
	}
	return ps
}

// CoinScheme selects how a run sources the coin randomness of randomized
// protocols; see the internal coin package.
type CoinScheme = coin.Scheme

// Coin schemes.
const (
	// CoinAuto uses the protocol's registered default scheme.
	CoinAuto = coin.SchemeAuto
	// CoinNone marks the deterministic protocols (not an override).
	CoinNone = coin.SchemeNone
	// CoinLocal gives every process an independent local coin ([BenO83]).
	CoinLocal = coin.SchemeLocal
	// CoinShared gives every process the same deterministic common coin
	// derived from the run seed.
	CoinShared = coin.SchemeShared
)

// ParseCoinScheme resolves a coin scheme name: auto | none | local | shared.
func ParseCoinScheme(name string) (CoinScheme, error) {
	return coin.ParseScheme(name)
}

// MachineConfig configures a single protocol machine.
type MachineConfig struct {
	// N is the system size; K the tolerated fault count; Self this
	// process's id; Input its initial value.
	N, K  int
	Self  ID
	Input Value
	// CoinSeed seeds the machine's coin for protocols that draw one: give
	// every process a distinct value under the local scheme and the same
	// run-wide value under the shared scheme. Deterministic protocols
	// ignore it.
	CoinSeed uint64
	// Coin overrides the protocol's default coin scheme (CoinAuto keeps
	// the default); overrides that contradict the protocol are rejected.
	Coin CoinScheme
}

// NewMachine builds a raw protocol state machine for one process, for use
// with a custom execution engine. Machines returned here are honest; see
// Simulate's Adversary option for Byzantine behaviours. Protocols with a
// sampled broadcast stage get their full-quorum variant (the sampled one
// needs a run-wide sample directory, built through Simulate).
func NewMachine(p Protocol, cfg MachineConfig) (Machine, error) {
	s, err := spawn.New(p, cfg.Coin, cfg.CoinSeed)
	if err != nil {
		return nil, fmt.Errorf("resilient: %w", err)
	}
	ctx := runtime.SpawnContext{Config: core.Config{N: cfg.N, K: cfg.K, Self: cfg.Self, Input: cfg.Input}}
	if s.Scheme() == CoinLocal {
		ctx.RNG = spawn.Rand(cfg.CoinSeed) // CoinSeed is this process's own seed
	}
	return s.Spawn(ctx)
}
