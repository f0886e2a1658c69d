// Package majority implements the protocol variant analysed in Section 4.1
// of the paper: "In each phase processes send each other their value, and
// wait for n-k messages. Processes change their values to the majority of
// the received message values, and decide a value when receiving more than
// (n+k)/2 messages with that value."
//
// The paper uses this variant (a simplification of the Figure-2 protocol,
// run in the fail-stop model where messages are honest) because its
// execution is exactly the Markov chain P of Section 4.1, making the
// analytic absorption-time bounds directly comparable to measurements.
//
// A decided process keeps participating with its value pinned to the
// decision (the paper's variant never exits its loop); executions are
// stopped by the engine once every correct process has decided.
package majority

import (
	"fmt"
	"slices"
	"sort"

	"resilient/internal/core"
	"resilient/internal/msg"
	"resilient/internal/quorum"
	"resilient/internal/trace"
)

// Machine is a Section-4.1 majority-variant instance at one process.
type Machine struct {
	cfg  core.Config
	sink trace.Sink

	value msg.Value
	phase msg.Phase

	msgCount [2]int
	counted  map[msg.ID]bool
	pending  map[msg.Phase][]msg.Message

	started  bool
	decided  bool
	decision msg.Value
}

var (
	_ core.Machine       = (*Machine)(nil)
	_ core.ValueReporter = (*Machine)(nil)
)

// New returns a majority-variant machine. The paper introduces the variant
// as "a simple variant of the protocol in Fig. 2, that is a
// floor((n-1)/3)-resilient protocol" (Section 4.1): its decision threshold
// of strictly more than (n+k)/2 is reachable from the n-k messages a
// process waits for only when 3k < n, so (n, k) is validated against that
// bound even though the variant runs in the fail-stop fault model. sink may
// be nil.
func New(cfg core.Config, sink trace.Sink) (*Machine, error) {
	if err := cfg.Validate(quorum.Malicious); err != nil {
		return nil, fmt.Errorf("majority: %w", err)
	}
	return NewUnsafe(cfg, sink), nil
}

// NewUnsafe returns a machine without validating (n, k); the Theorem-1
// lower-bound experiment configures k = n/2 deliberately.
func NewUnsafe(cfg core.Config, sink trace.Sink) *Machine {
	if sink == nil {
		sink = trace.Nop{}
	}
	return &Machine{
		cfg:     cfg,
		sink:    sink,
		value:   cfg.Input,
		counted: make(map[msg.ID]bool),
		pending: make(map[msg.Phase][]msg.Message),
	}
}

// ID implements core.Machine.
func (m *Machine) ID() msg.ID { return m.cfg.Self }

// Phase implements core.Machine.
func (m *Machine) Phase() msg.Phase { return m.phase }

// Decided implements core.Machine.
func (m *Machine) Decided() (msg.Value, bool) { return m.decision, m.decided }

// Halted implements core.Machine. The variant never halts on its own; the
// engine stops the run once all correct processes have decided.
func (m *Machine) Halted() bool { return false }

// CurrentValue implements core.ValueReporter.
func (m *Machine) CurrentValue() msg.Value { return m.value }

// Start broadcasts the phase-0 value message.
func (m *Machine) Start() []core.Outbound {
	if m.started {
		return nil
	}
	m.started = true
	return []core.Outbound{core.ToAll(msg.Val(m.cfg.Self, m.phase, m.value))}
}

// OnMessage consumes one delivered message.
func (m *Machine) OnMessage(in msg.Message) []core.Outbound {
	if !m.started {
		return nil
	}
	switch in.Kind {
	case msg.KindValue:
		// The only kind this exchange speaks.
	case msg.KindState, msg.KindInitial, msg.KindEcho, msg.KindBenOrReport,
		msg.KindBenOrProposal, msg.KindGraph, msg.KindGossip, msg.KindReady:
		return nil // explicitly ignored: other protocols' wire kinds
	default:
		return nil
	}
	if !in.Value.Valid() || in.From < 0 || int(in.From) >= m.cfg.N {
		return nil // no real process sent it: it must not count toward n-k
	}
	var out []core.Outbound
	queue := []msg.Message{in}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		switch {
		case cur.Phase < m.phase:
			continue
		case cur.Phase > m.phase:
			m.pending[cur.Phase] = append(m.pending[cur.Phase], cur)
			continue
		}
		if m.counted[cur.From] {
			continue // one value per process per phase
		}
		m.counted[cur.From] = true
		m.msgCount[cur.Value]++
		if m.msgCount[0]+m.msgCount[1] == quorum.WaitCount(m.cfg.N, m.cfg.K) {
			out = append(out, m.endPhase()...)
			if buf := m.pending[m.phase]; len(buf) > 0 {
				queue = append(queue, buf...)
				delete(m.pending, m.phase)
			}
		}
	}
	return out
}

func (m *Machine) endPhase() []core.Outbound {
	if !m.decided {
		if m.msgCount[1] > m.msgCount[0] {
			m.value = msg.V1
		} else {
			m.value = msg.V0
		}
		for _, v := range []msg.Value{msg.V0, msg.V1} {
			if quorum.ExceedsHalfNPlusK(m.msgCount[v], m.cfg.N, m.cfg.K) {
				m.decided = true
				m.decision = v
				m.value = v
				m.sink.Record(trace.Event{
					Kind: trace.EventDecide, Process: m.cfg.Self,
					Phase: m.phase, Value: v,
				})
				break
			}
		}
	}
	// A decided process keeps echoing its pinned value so the rest of the
	// system can reach its own decision.
	m.msgCount = [2]int{}
	clear(m.counted)
	m.phase++
	m.sink.Record(trace.Event{
		Kind: trace.EventPhase, Process: m.cfg.Self, Phase: m.phase, Value: m.value,
	})
	return []core.Outbound{core.ToAll(msg.Val(m.cfg.Self, m.phase, m.value))}
}

// Clone returns a deep copy of the machine, for exhaustive state-space
// exploration (internal/explore).
func (m *Machine) Clone() *Machine {
	c := *m
	c.counted = make(map[msg.ID]bool, len(m.counted))
	for id, v := range m.counted {
		c.counted[id] = v
	}
	c.pending = make(map[msg.Phase][]msg.Message, len(m.pending))
	for p, msgs := range m.pending {
		c.pending[p] = slices.Clone(msgs)
	}
	return &c
}

// Snapshot returns a deterministic encoding of the machine's full state,
// used as a hash key by the state-space explorer.
func (m *Machine) Snapshot() []byte {
	var b []byte
	b = append(b, byte(m.value))
	b = append(b, byte(int32(m.phase)), byte(int32(m.phase)>>8))
	b = append(b, byte(m.msgCount[0]), byte(m.msgCount[1]))
	var flags byte
	if m.started {
		flags |= 1
	}
	if m.decided {
		flags |= 2
	}
	b = append(b, flags, byte(m.decision))
	ids := make([]msg.ID, 0, len(m.counted))
	for id, v := range m.counted {
		if v {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		b = append(b, byte(id))
	}
	b = append(b, 0xFF)
	phases := make([]msg.Phase, 0, len(m.pending))
	for p := range m.pending {
		phases = append(phases, p)
	}
	slices.Sort(phases)
	for _, p := range phases {
		msgs := m.pending[p]
		encs := make([]string, len(msgs))
		var scratch []byte
		for i, mm := range msgs {
			scratch = msg.AppendEncode(scratch[:0], mm)
			encs[i] = string(scratch)
		}
		sort.Strings(encs)
		b = append(b, byte(p))
		for _, e := range encs {
			b = append(b, e...)
		}
	}
	return b
}

// WouldIgnore reports whether delivering in to the machine is a guaranteed
// no-op (no state change, no sends). The state-space explorer uses this to
// prune irrelevant deliveries.
func (m *Machine) WouldIgnore(in msg.Message) bool {
	if !m.started {
		return true
	}
	if in.Kind != msg.KindValue || !in.Value.Valid() {
		return true
	}
	if in.Phase < m.phase {
		return true
	}
	return in.Phase == m.phase && m.counted[in.From]
}
