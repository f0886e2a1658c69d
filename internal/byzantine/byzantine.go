// Package byzantine implements malicious-process behaviour strategies.
//
// The paper allows a malicious process to "send false and contradictory
// messages, even according to some malevolent plan" (Section 1), to fail to
// send messages, and to change its internal state arbitrarily (Section 3.1).
// Its Section 4 worst case is the omniscient *balancing* adversary: "they
// will try to balance the number of 1 and 0 messages in the system".
//
// Strategies are built by wrapping an honest protocol machine and rewriting
// the value-bearing messages it emits. The wrapped machine keeps tracking
// phases and thresholds correctly (a lying process must still *participate*
// plausibly to influence anyone), while the wrapper controls what the
// process claims its value to be -- per phase, or even per recipient.
// Sender identities can never be forged: the execution engines stamp the
// authenticated sender on every message (the Section 3.1 requirement).
package byzantine

import (
	"math/rand/v2"

	"resilient/internal/core"
	"resilient/internal/msg"
)

// Rewrite appends to dst what one outbound of the wrapped honest machine
// becomes -- zero, one or several sends -- and returns the extended slice.
// It is applied to every outbound the wrapped machine emits, in order, and
// must only append to dst: dst is the wrapper's step buffer (see Mutated).
type Rewrite func(dst []core.Outbound, o core.Outbound) []core.Outbound

// Mutated wraps an honest machine and applies a rewrite to its output.
type Mutated struct {
	inner   core.Machine
	rewrite Rewrite
	// out is the per-step send buffer the rewrite appends into: every step
	// starts from out[:0] and returns it, so the slice a step returns is
	// valid only until the wrapper's next step (engines consume it before
	// then), and a warmed-up step allocates nothing.
	out []core.Outbound
}

var _ core.Machine = (*Mutated)(nil)

// NewMutated wraps inner with the given rewrite.
func NewMutated(inner core.Machine, rewrite Rewrite) *Mutated {
	return &Mutated{inner: inner, rewrite: rewrite}
}

// ID implements core.Machine.
func (m *Mutated) ID() msg.ID { return m.inner.ID() }

// Phase implements core.Machine.
func (m *Mutated) Phase() msg.Phase { return m.inner.Phase() }

// Decided implements core.Machine. A Byzantine "decision" carries no weight
// in result evaluation; it is reported for completeness.
func (m *Mutated) Decided() (msg.Value, bool) { return m.inner.Decided() }

// Halted implements core.Machine.
func (m *Mutated) Halted() bool { return m.inner.Halted() }

// Start implements core.Machine.
func (m *Mutated) Start() []core.Outbound { return m.apply(m.inner.Start()) }

// OnMessage implements core.Machine.
func (m *Mutated) OnMessage(in msg.Message) []core.Outbound {
	return m.apply(m.inner.OnMessage(in))
}

func (m *Mutated) apply(outs []core.Outbound) []core.Outbound {
	if m.rewrite == nil {
		return outs
	}
	m.out = m.out[:0]
	for _, o := range outs {
		m.out = m.rewrite(m.out, o)
	}
	return m.out
}

// ownValueMessage reports whether o is a value-bearing message originated by
// self (as opposed to an echo of someone else's message), the kind of
// message a lying strategy rewrites.
func ownValueMessage(o core.Outbound, self msg.ID) bool {
	if o.Msg.From != self {
		return false
	}
	switch o.Msg.Kind {
	case msg.KindState, msg.KindValue, msg.KindInitial, msg.KindBenOrReport:
		return o.Msg.Subject == self
	default:
		return false
	}
}

// Silent is a process that never sends anything: indistinguishable from a
// process that was dead from the start.
type Silent struct {
	id msg.ID
}

var _ core.Machine = (*Silent)(nil)

// NewSilent returns a silent Byzantine process.
func NewSilent(id msg.ID) *Silent { return &Silent{id: id} }

// ID implements core.Machine.
func (s *Silent) ID() msg.ID { return s.id }

// Start implements core.Machine.
func (s *Silent) Start() []core.Outbound { return nil }

// OnMessage implements core.Machine.
func (s *Silent) OnMessage(msg.Message) []core.Outbound { return nil }

// Decided implements core.Machine.
func (s *Silent) Decided() (msg.Value, bool) { return 0, false }

// Halted implements core.Machine.
func (s *Silent) Halted() bool { return true }

// Phase implements core.Machine.
func (s *Silent) Phase() msg.Phase { return 0 }

// NewBalancer wraps inner with the Section 4 balancing strategy: every own
// value message is rewritten to the current *minority* value among correct
// processes, pushing the system toward the balanced state n/2 where the
// Markov chain lingers longest.
func NewBalancer(inner core.Machine, world core.WorldView) *Mutated {
	self := inner.ID()
	return NewMutated(inner, func(dst []core.Outbound, o core.Outbound) []core.Outbound {
		if ownValueMessage(o, self) && !o.Msg.Phase.IsWildcard() {
			zeros, ones := world.CorrectValueCounts()
			if ones >= zeros {
				o.Msg.Value = msg.V0
			} else {
				o.Msg.Value = msg.V1
			}
		}
		return append(dst, o)
	})
}

// NewFixedLiar wraps inner so that it always claims value v, regardless of
// protocol state.
func NewFixedLiar(inner core.Machine, v msg.Value) *Mutated {
	self := inner.ID()
	return NewMutated(inner, func(dst []core.Outbound, o core.Outbound) []core.Outbound {
		if ownValueMessage(o, self) && !o.Msg.Phase.IsWildcard() {
			o.Msg.Value = v
		}
		return append(dst, o)
	})
}

// NewFlipper wraps inner so that each own value message carries an
// independent coin flip.
func NewFlipper(inner core.Machine, rng *rand.Rand) *Mutated {
	self := inner.ID()
	return NewMutated(inner, func(dst []core.Outbound, o core.Outbound) []core.Outbound {
		if ownValueMessage(o, self) && !o.Msg.Phase.IsWildcard() {
			o.Msg.Value = msg.Value(rng.IntN(2))
		}
		return append(dst, o)
	})
}

// NewEquivocator wraps inner so that every own value broadcast is split:
// processes with id < n/2 are told value 0 and the rest value 1. Against
// the Figure-2 echo mechanism the equivocation is futile -- at most one of
// the two values can gather more than (n+k)/2 echoes -- which is exactly
// what the consistency proof of Theorem 4 asserts and what the test suite
// verifies.
func NewEquivocator(inner core.Machine, n int) *Mutated {
	return NewTwoFaced(inner, n, msg.ID(n/2)) // a positional split, not a quorum
}

// NewTwoFaced wraps inner so that own value messages claim 0 toward
// processes with id < boundary and 1 toward the rest. It is the coalition
// behaviour used in the Theorem 3 lower-bound construction, where the
// malicious processes in the intersection of S and T run schedule sigma_0
// toward S and sigma_1 toward T.
func NewTwoFaced(inner core.Machine, n int, boundary msg.ID) *Mutated {
	self := inner.ID()
	return NewMutated(inner, func(dst []core.Outbound, o core.Outbound) []core.Outbound {
		if !ownValueMessage(o, self) || o.Msg.Phase.IsWildcard() || o.To >= 0 {
			return append(dst, o)
		}
		// A fan-out (broadcast or multicast) becomes one unicast per
		// recipient, each carrying that recipient's face. Neither the
		// one-element list nor the closure escapes Expand.
		core.Expand([]core.Outbound{o}, n, func(to msg.ID, m msg.Message) {
			if to < boundary {
				m.Value = msg.V0
			} else {
				m.Value = msg.V1
			}
			dst = append(dst, core.To(to, m))
		})
		return dst
	})
}

// NewDoubleEchoer wraps inner so that every echo it sends is accompanied by
// a second echo with the complementary value. The first-message-per-sender
// rule makes the duplicate inert at correct receivers; this strategy exists
// to exercise that defence.
func NewDoubleEchoer(inner core.Machine) *Mutated {
	return NewMutated(inner, func(dst []core.Outbound, o core.Outbound) []core.Outbound {
		if o.Msg.Kind != msg.KindEcho || o.Msg.Phase.IsWildcard() {
			return append(dst, o)
		}
		dup := o
		dup.Msg.Value = o.Msg.Value.Other()
		return append(dst, o, dup)
	})
}

// NewMute wraps inner so that it processes messages normally but suppresses
// every send from some phase onward: a malicious process that simply stops
// talking (distinct from Silent, which never talks at all).
func NewMute(inner core.Machine, fromPhase msg.Phase) *Mutated {
	return NewMutated(inner, func(dst []core.Outbound, o core.Outbound) []core.Outbound {
		if inner.Phase() >= fromPhase {
			return dst
		}
		return append(dst, o)
	})
}

// NewImpersonator returns the Section 3.1 impersonation attacker: a single
// malicious process that, in a message system WITHOUT sender
// authentication, fabricates a complete, internally consistent phase-0
// history of the Figure 2 protocol under every process's identity --
// initials from all n processes and matching echoes from all n senders --
// telling processes below the boundary that everyone started with 0 and the
// rest that everyone started with 1. Each victim immediately accepts n
// unanimous values and decides, and the two sides decide differently:
// "one malicious process can impersonate the whole system, leading the
// correct processes to conflicting decisions". Against an authenticating
// transport the same machine is harmless (every forged message is
// re-stamped with the attacker's identity and collapses into duplicates).
type Impersonator struct {
	id       msg.ID
	n        int
	boundary msg.ID
	started  bool
}

var _ core.Machine = (*Impersonator)(nil)

// NewImpersonatorMachine builds the impersonator for an n-process system,
// splitting victims at the boundary id.
func NewImpersonatorMachine(id msg.ID, n int, boundary msg.ID) *Impersonator {
	return &Impersonator{id: id, n: n, boundary: boundary}
}

// ID implements core.Machine.
func (im *Impersonator) ID() msg.ID { return im.id }

// Start emits the forged histories.
func (im *Impersonator) Start() []core.Outbound {
	if im.started {
		return nil
	}
	im.started = true
	var outs []core.Outbound
	for r := 0; r < im.n; r++ {
		v := msg.V1
		if msg.ID(r) < im.boundary {
			v = msg.V0
		}
		for q := 0; q < im.n; q++ {
			ini := msg.Initial(msg.ID(q), 0, v) // forged: claims to be from q
			outs = append(outs, core.To(msg.ID(r), ini))
			for snd := 0; snd < im.n; snd++ {
				e := msg.Echo(msg.ID(snd), msg.ID(q), 0, v) // forged echo
				outs = append(outs, core.To(msg.ID(r), e))
			}
		}
	}
	return outs
}

// OnMessage implements core.Machine; the attack is fire-and-forget.
func (im *Impersonator) OnMessage(msg.Message) []core.Outbound { return nil }

// Decided implements core.Machine.
func (im *Impersonator) Decided() (msg.Value, bool) { return 0, false }

// Halted implements core.Machine.
func (im *Impersonator) Halted() bool { return im.started }

// Phase implements core.Machine.
func (im *Impersonator) Phase() msg.Phase { return 0 }
