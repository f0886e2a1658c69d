// Package machinetest provides a reusable fuzz harness for protocol state
// machines: it feeds a machine long streams of randomized (and partially
// hostile) messages and verifies the model invariants every machine must
// keep regardless of input -- no panic, write-once decisions, monotone
// phases, silence after halt, and bounded per-step output -- under sender
// and subject ids that now and then lie outside 0..n-1. Replay is its
// scripted counterpart: a fixed delivery list in, everything sent out.
//
// It is imported only from tests.
package machinetest

import (
	"fmt"
	"math"
	"math/rand/v2"

	"resilient/internal/core"
	"resilient/internal/msg"
)

// Options tunes the fuzz stream.
type Options struct {
	// N is the system size used for random ids.
	N int
	// Steps is the number of messages to deliver.
	Steps int
	// Kinds restricts the generated message kinds; empty means all.
	Kinds []msg.Kind
	// MaxPhase bounds the random phases injected (wildcards included).
	MaxPhase int
}

// Fuzz drives the machine with a randomized message stream and returns an
// error describing the first violated invariant. A panic inside the machine
// is converted into an error.
func Fuzz(m core.Machine, rng *rand.Rand, opts Options) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("machine panicked: %v", r)
		}
	}()
	if opts.N <= 0 {
		opts.N = 5
	}
	if opts.Steps <= 0 {
		opts.Steps = 2000
	}
	if opts.MaxPhase <= 0 {
		opts.MaxPhase = 6
	}
	kinds := opts.Kinds
	if len(kinds) == 0 {
		kinds = []msg.Kind{
			msg.KindState, msg.KindValue, msg.KindInitial, msg.KindEcho,
			msg.KindBenOrReport, msg.KindBenOrProposal, msg.KindGraph,
		}
	}

	var (
		decidedVal msg.Value
		decidedSet bool
		lastPhase  = m.Phase()
		halted     = m.Halted()
	)
	checkStep := func(outs []core.Outbound, step int) error {
		if v, ok := m.Decided(); ok {
			if decidedSet && v != decidedVal {
				return fmt.Errorf("step %d: decision changed from %d to %d", step, decidedVal, v)
			}
			decidedVal, decidedSet = v, true
		} else if decidedSet {
			return fmt.Errorf("step %d: decision revoked", step)
		}
		if p := m.Phase(); !p.IsWildcard() && p < lastPhase {
			return fmt.Errorf("step %d: phase regressed %d -> %d", step, lastPhase, p)
		} else if !p.IsWildcard() {
			lastPhase = p
		}
		if halted && len(outs) > 0 {
			return fmt.Errorf("step %d: halted machine sent %d messages", step, len(outs))
		}
		halted = m.Halted()
		// A single step's output must be finite and modest: each protocol
		// step sends O(n) broadcasts at most.
		if len(outs) > 16*opts.N+16 {
			return fmt.Errorf("step %d: %d outbound messages from one step", step, len(outs))
		}
		return nil
	}

	if err := checkStep(m.Start(), -1); err != nil {
		return err
	}
	for step := 0; step < opts.Steps; step++ {
		in := randomMessage(rng, opts, kinds)
		outs := m.OnMessage(in)
		if err := checkStep(outs, step); err != nil {
			return err
		}
	}
	return nil
}

// Replay starts the machine, delivers the script in order, and returns every
// outbound the machine emitted along the way. Two machines built to be the
// same must replay any script to the same result.
func Replay(m core.Machine, script []msg.Message) []core.Outbound {
	outs := append([]core.Outbound(nil), m.Start()...)
	for _, in := range script {
		outs = append(outs, m.OnMessage(in)...)
	}
	return outs
}

func randomMessage(rng *rand.Rand, opts Options, kinds []msg.Kind) msg.Message {
	from := hostileID(rng, opts.N, msg.ID(rng.IntN(opts.N)))
	subject := from
	if rng.IntN(4) == 0 {
		subject = hostileID(rng, opts.N, msg.ID(rng.IntN(opts.N))) // occasionally forged
	}
	phase := msg.Phase(rng.IntN(opts.MaxPhase))
	if rng.IntN(10) == 0 {
		phase = msg.WildcardPhase
	}
	value := msg.Value(rng.IntN(2))
	if rng.IntN(20) == 0 {
		value = msg.Value(rng.IntN(256)) // malformed value
	}
	m := msg.Message{
		Kind:        kinds[rng.IntN(len(kinds))],
		From:        from,
		Subject:     subject,
		Phase:       phase,
		Value:       value,
		Cardinality: int32(rng.IntN(opts.N + 2)),
		Bot:         rng.IntN(5) == 0,
	}
	if m.Kind == msg.KindGraph {
		payload := make([]byte, rng.IntN(40))
		for i := range payload {
			payload[i] = byte(rng.IntN(256))
		}
		m.Payload = payload
	}
	return m
}

// hostileID returns id, or one time in twenty an id that no process has: -1,
// n or math.MaxInt32. The engines stamp a sender in 0..n-1, but a machine
// must not trust that, and a subject is whatever the sender wrote.
func hostileID(rng *rand.Rand, n int, id msg.ID) msg.ID {
	if rng.IntN(20) != 0 {
		return id
	}
	return [...]msg.ID{-1, msg.ID(n), math.MaxInt32}[rng.IntN(3)]
}
