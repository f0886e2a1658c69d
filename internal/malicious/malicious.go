// Package malicious implements the k-resilient consensus protocol for the
// malicious case -- Figure 2 of Bracha & Toueg, "Resilient Consensus
// Protocols" (PODC 1983) -- for any k <= floor((n-1)/3).
//
// Protocol sketch (Figure 2 + Section 3.3). Each phase, a process
// broadcasts an (initial, p, value, phase) message. Every process echoes
// each first-seen initial message to everyone. A process accepts value v
// from q at phase t once it has counted echoes (echo, q, v, t) from strictly
// more than (n+k)/2 distinct senders; it counts each sender's first echo per
// (q, t) only, which is what defeats equivocation. After accepting messages
// from n-k processes it adopts the majority of the accepted values, decides
// if one value was accepted from strictly more than (n+k)/2 processes, and
// starts the next phase.
//
// Post-decision termination follows the Section 3.3 construction: a decided
// process sends (initial, p, i, *) and echoes (echo, q, i, *) for all q --
// wildcard messages that every receiver re-applies at each subsequent phase
// ("whenever a process receives them, it sends them back to itself") -- and
// then halts. These wildcards stand in for the decided process's continued
// participation, so stragglers keep accepting n-k values per phase and
// decide too.
package malicious

import (
	"cmp"
	"fmt"
	"slices"

	"resilient/internal/core"
	"resilient/internal/dense"
	"resilient/internal/echo"
	"resilient/internal/msg"
	"resilient/internal/quorum"
	"resilient/internal/sample"
	"resilient/internal/trace"
)

// phaseMarks is a dense replacement for the map[(id, phase)]bool initial-echo
// dedup: one n-bit set per phase, keyed by the sender id, in a phase-sorted
// slice. Initials are never pruned (Figure 2 applies no phase guard to them),
// so sets accumulate one per phase seen. The index of the last phase marked
// keeps the common same-phase case search-free; any other phase, including
// one a Byzantine sender made up, is a binary search.
type phaseMarks struct {
	n    int
	sets []phaseSet // ascending phase
	cur  int        // index in sets of the last phase marked
}

// phaseSet is one phase's initial-echo marks.
type phaseSet struct {
	phase msg.Phase
	marks dense.Bitset
}

// mark sets bit id for phase ph and reports whether it was already set.
func (p *phaseMarks) mark(ph msg.Phase, id msg.ID) (already bool) {
	if p.cur >= len(p.sets) || p.sets[p.cur].phase != ph {
		i, found := slices.BinarySearchFunc(p.sets, ph, func(s phaseSet, ph msg.Phase) int {
			return cmp.Compare(s.phase, ph)
		})
		if !found {
			// Sets are never deleted, so an entry past the end is one a reset
			// left behind: its storage serves the new phase.
			var marks dense.Bitset
			if len(p.sets) < cap(p.sets) {
				marks = p.sets[:len(p.sets)+1][len(p.sets)].marks
			}
			marks.Reset(p.n)
			p.sets = slices.Insert(p.sets, i, phaseSet{phase: ph, marks: marks})
		}
		p.cur = i
	}
	return p.sets[p.cur].marks.Set(int(id))
}

// reset clears every mark for an n-process instance, keeping the sets'
// storage, past the end of sets, for the phases it will mark.
func (p *phaseMarks) reset(n int) {
	p.n, p.sets, p.cur = n, p.sets[:0], 0
}

// Machine is a Figure-2 protocol instance at one process. It implements
// core.Machine and is not safe for concurrent use.
type Machine struct {
	cfg     core.Config
	sink    trace.Sink
	traceOn bool

	value msg.Value
	phase msg.Phase

	tracker  *echo.Tracker
	msgCount [2]int

	// echoTargets, when non-nil, is the set of processes that sampled this
	// machine's echoes under the sampled broadcast scheme; echoes are
	// multicast to them instead of broadcast. nil means full-quorum echo.
	echoTargets []int32

	echoedInitial phaseMarks
	echoedWild    dense.Bitset // one bit per origin process

	wildSeen dense.Bitset // sender*n+subject, dedup for wildcard echoes
	// wildOrder holds the wildcard echoes in receipt order, for
	// deterministic re-application, one uint32 each: the wildSeen index
	// shifted left once, the value in bit 0. 2n² < 2³² holds for
	// n <= 46,340, far above any n whose n²-bit wildSeen fits in memory.
	wildOrder []uint32
	wildNext  int // wild entries [0:wildNext) already applied to current phase

	pendingEchoes dense.PhaseBuffer

	// scratch is the per-step echo replay queue, reused across OnMessage
	// calls so current-phase echo processing allocates nothing.
	scratch []msg.Message
	// out is the per-step send buffer: every step appends into out[:0] and
	// returns it, so the slice a step returns is valid only until the
	// machine's next step or reset (engines consume it before then).
	out []core.Outbound

	started  bool
	decided  bool
	decision msg.Value
	halted   bool
}

var (
	_ core.Machine       = (*Machine)(nil)
	_ core.ValueReporter = (*Machine)(nil)
)

// New returns a Figure-2 machine for the given configuration. sink may be
// nil to disable tracing.
func New(cfg core.Config, sink trace.Sink) (*Machine, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	return NewUnsafe(cfg, sink), nil
}

// validate checks cfg against the malicious-case resilience bound.
func validate(cfg core.Config) error {
	if err := cfg.Validate(quorum.Malicious); err != nil {
		return fmt.Errorf("malicious: %w", err)
	}
	return nil
}

// NewUnsafe returns a machine without validating (n, k) against the
// resilience bound; the Theorem-3 lower-bound experiment configures
// k = n/3 deliberately.
func NewUnsafe(cfg core.Config, sink trace.Sink) *Machine {
	m := new(Machine)
	m.reset(cfg, sink)
	return m
}

// reset makes m the machine NewUnsafe(cfg, sink) would return, on the
// full-quorum echo: it sets every field and keeps the storage of the step
// buffer, the replay queue, the initial-echo marks, the wildcard sets and
// log, the future-echo buffer and -- when m already counted full-quorum
// echoes for the same n and k -- the echo tracker's phase tables. It is the
// one construction path: a new machine is an empty one reset. m must be
// quiescent: no engine steps it any more, and nothing holds a slice one of
// its steps returned.
func (m *Machine) reset(cfg core.Config, sink trace.Sink) {
	if sink == nil {
		sink = trace.Nop{}
	}
	tracker := m.tracker
	if tracker == nil || m.echoTargets != nil || m.cfg.N != cfg.N || m.cfg.K != cfg.K {
		tracker = echo.NewTracker(cfg.N, cfg.K)
	} else {
		tracker.Reset()
	}
	m.echoedInitial.reset(cfg.N)
	m.echoedWild.Reset(cfg.N)
	m.wildSeen.Reset(cfg.N * cfg.N)
	m.pendingEchoes.Reset()
	*m = Machine{
		cfg:           cfg,
		sink:          sink,
		traceOn:       sink.Enabled(),
		value:         cfg.Input,
		tracker:       tracker,
		echoedInitial: m.echoedInitial,
		echoedWild:    m.echoedWild,
		wildSeen:      m.wildSeen,
		wildOrder:     m.wildOrder[:0],
		pendingEchoes: m.pendingEchoes,
		scratch:       m.scratch[:0],
		out:           m.out[:0],
	}
}

// NewSampled returns a Figure-2 machine whose echo stage runs over the
// sampled broadcast primitive described by dir's plan: echoes are counted
// against this process's echo sample (Ê-of-E instead of > (n+k)/2 of n) and
// sent only to the processes that sampled this one. Everything above the
// echo stage -- initial broadcasts, the n-k wait, the majority/decision
// rules, wildcard termination -- is unchanged, which is the drop-in
// equivalence claim of DESIGN §13. Each acceptance carries the plan's ε
// error, so agreement holds except with probability O(n·ε) per phase.
func NewSampled(cfg core.Config, dir *sample.Directory, sink trace.Sink) (*Machine, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	p := dir.Plan()
	if p.N != cfg.N || p.K != cfg.K {
		return nil, fmt.Errorf("malicious: directory plan (n=%d, k=%d) does not match config (n=%d, k=%d)",
			p.N, p.K, cfg.N, cfg.K)
	}
	m := NewUnsafe(cfg, sink)
	m.tracker = sample.NewTracker(dir, cfg.Self)
	m.echoTargets = dir.EchoTargets(cfg.Self)
	return m, nil
}

// echoSends appends the send for one echo message to the step buffer: a
// broadcast under the full-quorum scheme, a multicast to the sampling
// processes under the sampled scheme.
func (m *Machine) echoSends(e msg.Message) {
	if m.echoTargets == nil {
		m.out = append(m.out, core.ToAll(e))
		return
	}
	m.out = append(m.out, core.ToMany(m.echoTargets, e))
}

// ID implements core.Machine.
func (m *Machine) ID() msg.ID { return m.cfg.Self }

// Phase implements core.Machine.
func (m *Machine) Phase() msg.Phase { return m.phase }

// Decided implements core.Machine.
func (m *Machine) Decided() (msg.Value, bool) { return m.decision, m.decided }

// Halted implements core.Machine.
func (m *Machine) Halted() bool { return m.halted }

// CurrentValue implements core.ValueReporter.
func (m *Machine) CurrentValue() msg.Value { return m.value }

// AcceptedCounts exposes the current phase's accepted-value tallies, for
// tests.
func (m *Machine) AcceptedCounts() (zeros, ones int) {
	return m.msgCount[0], m.msgCount[1]
}

// Start broadcasts the phase-0 initial message.
func (m *Machine) Start() []core.Outbound {
	if m.started {
		return nil
	}
	m.started = true
	m.out = append(m.out[:0], core.ToAll(msg.Initial(m.cfg.Self, m.phase, m.value)))
	return m.out
}

// OnMessage consumes one delivered message.
func (m *Machine) OnMessage(in msg.Message) []core.Outbound {
	if m.halted || !m.started {
		return nil
	}
	m.out = m.out[:0]
	switch in.Kind {
	case msg.KindInitial:
		m.onInitial(in)
	case msg.KindEcho:
		m.onEcho(in)
	case msg.KindState, msg.KindValue, msg.KindBenOrReport, msg.KindBenOrProposal,
		msg.KindGraph, msg.KindGossip, msg.KindReady:
		// Explicitly ignored: other protocols' wire kinds.
	}
	return m.out
}

// onInitial echoes a first-seen initial message to everyone. Initials are
// echoed regardless of their phase (the Figure-2 case analysis applies no
// phase guard to initial messages). An initial whose Subject differs from
// its authenticated sender is a forgery and is dropped -- the Section 3.1
// model requires that "correct processes verify the identity of the sender".
func (m *Machine) onInitial(in msg.Message) {
	if in.Subject != in.From || !in.Value.Valid() {
		return
	}
	if in.Phase.IsWildcard() {
		if !m.echoedWild.Set(int(in.From)) {
			m.echoSends(msg.Echo(m.cfg.Self, in.From, msg.WildcardPhase, in.Value))
		}
		return
	}
	if !m.echoedInitial.mark(in.Phase, in.From) {
		m.echoSends(msg.Echo(m.cfg.Self, in.From, in.Phase, in.Value))
	}
}

// onEcho feeds an echo into the acceptance machinery, buffering echoes for
// future phases and recording wildcard echoes for every phase from now on.
func (m *Machine) onEcho(in msg.Message) {
	if !in.Value.Valid() {
		return
	}
	if in.Phase.IsWildcard() {
		n := m.cfg.N
		if in.From < 0 || int(in.From) >= n || in.Subject < 0 || int(in.Subject) >= n {
			return // no such process; nothing it claims can be accepted
		}
		idx := int(in.From)*n + int(in.Subject)
		if m.wildSeen.Set(idx) {
			return
		}
		m.wildOrder = append(m.wildOrder, uint32(idx)<<1|uint32(in.Value))
		// Apply immediately to the current phase; re-applied automatically
		// on every later phase.
		m.scratch = m.scratch[:0]
		m.drive()
		return
	}
	switch {
	case in.Phase < m.phase:
		return
	case in.Phase > m.phase:
		m.pendingEchoes.Add(in.Phase, in)
		return
	}
	m.scratch = append(m.scratch[:0], in)
	m.drive()
}

// drive processes current-phase echoes (the machine's scratch queue, seeded
// by the caller, plus any wildcards and buffered echoes that become
// applicable), cascading through phase endings until the machine quiesces,
// decides, or runs out of input, appending every phase ending's sends to the
// step buffer. The scratch queue's storage is reused across steps.
func (m *Machine) drive() {
	queue := m.scratch
	head := 0
	for !m.halted {
		if m.phaseComplete() {
			m.endPhase()
			if !m.halted {
				queue = m.pendingEchoes.TakeInto(m.phase, queue)
			}
			continue
		}
		// Re-apply stored wildcard echoes to the current phase first.
		if m.wildNext < len(m.wildOrder) {
			w := m.wildOrder[m.wildNext]
			m.wildNext++
			idx := int(w >> 1)
			m.observe(msg.ID(idx/m.cfg.N), msg.ID(idx%m.cfg.N), msg.Value(w&1))
			continue
		}
		if head >= len(queue) {
			break
		}
		cur := queue[head]
		head++
		if cur.Phase != m.phase {
			if cur.Phase > m.phase {
				m.pendingEchoes.Add(cur.Phase, cur)
			}
			continue
		}
		m.observe(cur.From, cur.Subject, cur.Value)
	}
	m.scratch = queue[:0]
}

// observe counts one echo for the current phase and applies any resulting
// acceptance.
func (m *Machine) observe(sender, subject msg.ID, v msg.Value) {
	acc, ok := m.tracker.Observe(sender, subject, m.phase, v)
	if !ok {
		return
	}
	m.msgCount[acc.Value]++
	if m.traceOn {
		m.sink.Record(trace.Event{
			Kind: trace.EventAccept, Process: m.cfg.Self, Phase: m.phase, Value: acc.Value,
			//lint:allow hotalloc note formatting runs only when a sink is enabled (traceOn gate)
			Note: fmt.Sprintf("from p%d", acc.Subject),
		})
	}
}

func (m *Machine) phaseComplete() bool {
	return m.msgCount[0]+m.msgCount[1] >= quorum.WaitCount(m.cfg.N, m.cfg.K)
}

// endPhase runs the bottom half of the Figure-2 loop body, appending its
// sends to the step buffer.
func (m *Machine) endPhase() {
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
			break
		}
	}
	m.phase++
	m.msgCount = [2]int{}
	m.wildNext = 0 // wildcards re-apply to the new phase
	m.tracker.Prune(m.phase)
	m.pendingEchoes.DropBelow(m.phase)

	if m.decided {
		m.sink.Record(trace.Event{
			Kind: trace.EventDecide, Process: m.cfg.Self, Phase: m.phase - 1, Value: m.decision,
		})
		m.sink.Record(trace.Event{
			Kind: trace.EventHalt, Process: m.cfg.Self, Phase: m.phase - 1, Value: m.decision,
		})
		m.halted = true
		m.out = slices.Grow(m.out, m.cfg.N+1) // the wildcard burst, in one allocation
		m.out = append(m.out, core.ToAll(msg.Initial(m.cfg.Self, msg.WildcardPhase, m.decision)))
		for q := 0; q < m.cfg.N; q++ {
			m.echoSends(msg.Echo(m.cfg.Self, msg.ID(q), msg.WildcardPhase, m.decision))
		}
		return
	}

	m.sink.Record(trace.Event{
		Kind: trace.EventPhase, Process: m.cfg.Self, Phase: m.phase, Value: m.value,
	})
	m.out = append(m.out, core.ToAll(msg.Initial(m.cfg.Self, m.phase, m.value)))
}
