// Package machinetest provides a reusable fuzz harness for protocol state
// machines: it feeds a machine long streams of randomized (and partially
// hostile) messages and verifies the model invariants every machine must
// keep regardless of input -- no panic, write-once decisions, monotone
// phases, silence after halt, and bounded per-step output -- under sender
// and subject ids that now and then lie outside 0..n-1. Replay is its
// scripted counterpart: a fixed delivery list in, everything sent out.
// Script writes the hostile stream down, and Diff delivers one script to
// two machines that must behave alike.
//
// It is imported only from tests.
package machinetest

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"

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
	opts = opts.withDefaults()
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
		in := randomMessage(rng, opts)
		outs := m.OnMessage(in)
		if err := checkStep(outs, step); err != nil {
			return err
		}
	}
	return nil
}

// withDefaults fills in the unset options.
func (opts Options) withDefaults() Options {
	if opts.N <= 0 {
		opts.N = 5
	}
	if opts.Steps <= 0 {
		opts.Steps = 2000
	}
	if opts.MaxPhase <= 0 {
		opts.MaxPhase = 6
	}
	if len(opts.Kinds) == 0 {
		opts.Kinds = []msg.Kind{
			msg.KindState, msg.KindValue, msg.KindInitial, msg.KindEcho,
			msg.KindBenOrReport, msg.KindBenOrProposal, msg.KindGraph,
		}
	}
	return opts
}

// Script returns opts.Steps messages of the stream Fuzz delivers: forged
// subjects, wildcard and future phases, malformed values and ids outside
// 0..n-1 included.
func Script(rng *rand.Rand, opts Options) []msg.Message {
	opts = opts.withDefaults()
	script := make([]msg.Message, opts.Steps)
	for i := range script {
		script[i] = randomMessage(rng, opts)
	}
	return script
}

// Diff starts a and b, delivers the script to both in order, and returns an
// error naming the first step after which they differ: in the sends the step
// returned, Decided, Phase, Halted, or -- when both report one --
// CurrentValue. Two machines built to be the same must never differ.
func Diff(a, b core.Machine, script []msg.Message) error {
	if err := diffStep(a, b, a.Start(), b.Start()); err != nil {
		return fmt.Errorf("start: %w", err)
	}
	for i, in := range script {
		if err := diffStep(a, b, a.OnMessage(in), b.OnMessage(in)); err != nil {
			return fmt.Errorf("step %d (%+v): %w", i, in, err)
		}
	}
	return nil
}

// diffStep compares one step of a and b: its sends and the state after it.
func diffStep(a, b core.Machine, outsA, outsB []core.Outbound) error {
	if len(outsA) != len(outsB) {
		return fmt.Errorf("%d sends vs %d", len(outsA), len(outsB))
	}
	for i := range outsA {
		if !reflect.DeepEqual(outsA[i], outsB[i]) {
			return fmt.Errorf("send %d: %+v vs %+v", i, outsA[i], outsB[i])
		}
	}
	va, oka := a.Decided()
	vb, okb := b.Decided()
	if va != vb || oka != okb {
		return fmt.Errorf("decided (%d, %v) vs (%d, %v)", va, oka, vb, okb)
	}
	if pa, pb := a.Phase(), b.Phase(); pa != pb {
		return fmt.Errorf("phase %d vs %d", pa, pb)
	}
	if ha, hb := a.Halted(), b.Halted(); ha != hb {
		return fmt.Errorf("halted %v vs %v", ha, hb)
	}
	ra, okA := a.(core.ValueReporter)
	rb, okB := b.(core.ValueReporter)
	if okA && okB && ra.CurrentValue() != rb.CurrentValue() {
		return fmt.Errorf("current value %d vs %d", ra.CurrentValue(), rb.CurrentValue())
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

func randomMessage(rng *rand.Rand, opts Options) msg.Message {
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
		Kind:        opts.Kinds[rng.IntN(len(opts.Kinds))],
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
