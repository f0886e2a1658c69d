// Package core defines the protocol-machine abstraction shared by every
// consensus protocol in this repository.
//
// A protocol is written as a pure, single-threaded state machine (Machine):
// it is started once, then fed one message at a time, and each step returns
// the messages it wants sent. Machines contain no goroutines, no channels,
// and no clocks -- all asynchrony lives in the execution engines
// (internal/runtime for the deterministic discrete-event simulator,
// internal/livenet for the goroutine/TCP engine). This mirrors the paper's
// model, where an atomic step is "receive a message, perform a local
// computation, send a finite set of messages" (Section 2.1).
package core

import (
	"fmt"

	"resilient/internal/msg"
	"resilient/internal/quorum"
)

// Outbound is one send request produced by a machine step, addressed in one
// of three forms: To is a process id (unicast), msg.Broadcast for all n
// processes including the sender, or msg.Multicast for the processes listed
// in Targets. The struct is 88 bytes; a machine that emits outbounds on its
// hot path appends into a per-machine step buffer instead of allocating a
// slice per step, so the slice a step returns is valid until the machine's
// next step or reset, and an engine consumes it before either.
type Outbound struct {
	To  msg.ID
	Msg msg.Message
	// Targets is the recipient list of a msg.Multicast outbound, sent to in
	// list order; nil otherwise. It is shared, never copied -- typically one
	// of a sample.Directory's per-process target lists, aliased by every
	// outbound that uses it -- and read-only for machines, wrappers and
	// engines alike.
	Targets []int32
}

// ToAll returns a broadcast outbound for m.
func ToAll(m msg.Message) Outbound {
	return Outbound{To: msg.Broadcast, Msg: m}
}

// To returns a unicast outbound for m.
func To(dst msg.ID, m msg.Message) Outbound {
	return Outbound{To: dst, Msg: m}
}

// ToMany returns a multicast outbound for m: one send per entry of targets,
// in list order. targets is kept by reference (see Outbound.Targets).
func ToMany(targets []int32, m msg.Message) Outbound {
	return Outbound{To: msg.Multicast, Msg: m, Targets: targets}
}

// Expand calls send once per point-to-point send outs stands for in an
// n-process system, in order: a unicast once, a broadcast for ids 0..n-1 in
// id order, a multicast for its targets in list order. Destinations outside
// 0..n-1 are skipped, so one malformed outbound from a Byzantine machine
// costs nobody else anything. It is the expansion every engine but the
// simulator's dispatch loop uses (that one shuffles broadcasts and charges a
// crash budget per send).
func Expand(outs []Outbound, n int, send func(to msg.ID, m msg.Message)) {
	for i := range outs {
		o := &outs[i]
		switch o.To {
		case msg.Broadcast:
			for q := 0; q < n; q++ {
				send(msg.ID(q), o.Msg)
			}
		case msg.Multicast:
			for _, t := range o.Targets {
				if t >= 0 && int(t) < n {
					send(msg.ID(t), o.Msg)
				}
			}
		default:
			if o.To >= 0 && int(o.To) < n {
				send(o.To, o.Msg)
			}
		}
	}
}

// Machine is a consensus protocol instance at one process.
//
// The engine contract:
//   - Start is called exactly once, before any OnMessage.
//   - OnMessage is called once per delivered message, never concurrently.
//   - After Halted returns true the engine stops delivering messages.
//   - Decided may flip to true at most once and the value never changes
//     afterwards (the paper's write-once decision variable d_p).
type Machine interface {
	// ID returns the process identifier.
	ID() msg.ID
	// Start performs the first protocol step and returns its sends.
	Start() []Outbound
	// OnMessage consumes one delivered message and returns resulting sends.
	OnMessage(m msg.Message) []Outbound
	// Decided reports the decision value, if the process has decided.
	Decided() (msg.Value, bool)
	// Halted reports whether the process has completed its protocol and
	// will never send again.
	Halted() bool
	// Phase returns the current phase number, for metrics and tracing.
	Phase() msg.Phase
}

// ValueReporter is implemented by machines whose current estimate is
// observable. The omniscient Byzantine strategies of Section 4 (the
// "balancing" adversary) and the experiment harness use it.
type ValueReporter interface {
	CurrentValue() msg.Value
}

// Config carries the common protocol parameters.
type Config struct {
	// N is the total number of processes.
	N int
	// K is the number of faults the protocol must tolerate (the paper's k).
	K int
	// Self is this process's identifier in 0..N-1.
	Self msg.ID
	// Input is the process's initial value i_p.
	Input msg.Value
}

// Validate checks the configuration against the given fault model's
// resilience bound.
func (c Config) Validate(model quorum.FaultModel) error {
	if err := quorum.Check(c.N, c.K, model); err != nil {
		return err
	}
	if c.Self < 0 || int(c.Self) >= c.N {
		return fmt.Errorf("core: self id %d outside 0..%d", c.Self, c.N-1)
	}
	if !c.Input.Valid() {
		return fmt.Errorf("core: invalid input value %d", c.Input)
	}
	return nil
}

// WorldView gives omniscient read access to the global simulation state.
// Only adversary strategies receive one; correct protocol machines never see
// it. It corresponds to the paper's worst-case assumption that malicious
// processes may coordinate "according to some malevolent plan" with full
// knowledge of the system (Section 4: "they will try to balance the number
// of 1 and 0 messages in the system").
type WorldView interface {
	// CorrectValueCounts returns how many correct processes currently hold
	// value 0 and value 1 respectively.
	CorrectValueCounts() (zeros, ones int)
}
