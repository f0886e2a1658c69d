// Package benor implements Ben-Or's randomized consensus protocol
// ("Another advantage of free choice: Completely asynchronous agreement
// protocols", PODC 1983) -- the [BenO83] baseline the paper compares against
// in its conclusion: a protocol whose randomness lives in the processes
// (local coin flips) rather than in the message system, with exponential
// expected termination time in the fail-stop case and an n/5 resilience
// bound in the malicious case.
//
// Round structure (two steps per round, t = tolerated faults):
//
//	step 1: broadcast (report, r, x); wait for n-t reports.
//	        Crash mode:     if strictly more than n/2 reports carry the same
//	                        v, broadcast (proposal, r, v).
//	        Byzantine mode: the threshold is strictly more than (n+t)/2.
//	        Otherwise broadcast (proposal, r, ?).
//	step 2: wait for n-t proposals.
//	        Crash mode:     decide v on > t proposals for v; adopt v on >= 1.
//	        Byzantine mode: decide v on > (n+t)/2 proposals for v; adopt v
//	                        on >= t+1.
//	        Otherwise set x to a fair local coin flip.
//
// A decided process keeps participating (with its value pinned) for a
// configurable number of linger rounds so that laggards can finish, then
// halts.
package benor

import (
	"fmt"

	"resilient/internal/coin"
	"resilient/internal/core"
	"resilient/internal/msg"
	"resilient/internal/quorum"
	"resilient/internal/trace"
)

// Mode selects the fault model (and with it the decision thresholds).
type Mode int

const (
	// Crash is Ben-Or's protocol for fail-stop faults, t < n/2.
	Crash Mode = iota + 1
	// Byzantine is Ben-Or's protocol for malicious faults, 5t < n.
	Byzantine
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Crash:
		return "crash"
	case Byzantine:
		return "byzantine"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// DefaultLinger is the number of rounds a decided process keeps
// participating before halting; two rounds suffice for every correct
// process to decide once the first one has.
const DefaultLinger = 2

type seenKey struct {
	sender msg.ID
	kind   msg.Kind
	round  msg.Phase
}

type pendKey struct {
	round msg.Phase
	kind  msg.Kind
}

// Machine is a Ben-Or protocol instance at one process.
type Machine struct {
	cfg  core.Config
	mode Mode
	coin coin.Source
	sink trace.Sink

	value msg.Value
	round msg.Phase
	step  int // 1 = collecting reports, 2 = collecting proposals

	reportCount [2]int
	propCount   [2]int
	botCount    int

	seen    map[seenKey]bool
	pending map[pendKey][]msg.Message

	started    bool
	decided    bool
	decision   msg.Value
	halted     bool
	lingerLeft int
}

var (
	_ core.Machine       = (*Machine)(nil)
	_ core.ValueReporter = (*Machine)(nil)
)

// NewWithCoin returns a Ben-Or machine drawing its free choices from src:
// a per-process coin.Local reproduces [BenO83], a run-wide coin.Shared
// gives the common-coin variant with constant expected phases. src must
// not be nil; sink may be nil.
func NewWithCoin(cfg core.Config, mode Mode, src coin.Source, sink trace.Sink) (*Machine, error) {
	if src == nil {
		return nil, fmt.Errorf("benor: nil coin source (the protocol's free choice needs one)")
	}
	switch mode {
	case Crash:
		if err := cfg.Validate(quorum.FailStop); err != nil {
			return nil, fmt.Errorf("benor: %w", err)
		}
	case Byzantine:
		if err := cfg.Validate(quorum.Malicious); err != nil {
			return nil, fmt.Errorf("benor: %w", err)
		}
		if !quorum.FastPropagation(cfg.N, cfg.K) {
			return nil, fmt.Errorf("benor: byzantine mode needs 5k < n, got n=%d k=%d", cfg.N, cfg.K)
		}
	default:
		return nil, fmt.Errorf("benor: unknown mode %d", int(mode))
	}
	if sink == nil {
		sink = trace.Nop{}
	}
	return &Machine{
		cfg:        cfg,
		mode:       mode,
		coin:       src,
		sink:       sink,
		value:      cfg.Input,
		step:       1,
		seen:       make(map[seenKey]bool),
		pending:    make(map[pendKey][]msg.Message),
		lingerLeft: DefaultLinger,
	}, nil
}

// ID implements core.Machine.
func (m *Machine) ID() msg.ID { return m.cfg.Self }

// Phase implements core.Machine (the Ben-Or round number).
func (m *Machine) Phase() msg.Phase { return m.round }

// Decided implements core.Machine.
func (m *Machine) Decided() (msg.Value, bool) { return m.decision, m.decided }

// Halted implements core.Machine.
func (m *Machine) Halted() bool { return m.halted }

// CurrentValue implements core.ValueReporter.
func (m *Machine) CurrentValue() msg.Value { return m.value }

// Start broadcasts the round-0 report.
func (m *Machine) Start() []core.Outbound {
	if m.started {
		return nil
	}
	m.started = true
	return []core.Outbound{core.ToAll(msg.BenOrReport(m.cfg.Self, m.round, m.value))}
}

// OnMessage consumes one delivered message.
func (m *Machine) OnMessage(in msg.Message) []core.Outbound {
	if m.halted || !m.started {
		return nil
	}
	switch in.Kind {
	case msg.KindBenOrReport:
		if !in.Value.Valid() {
			return nil // malformed: reports always carry a binary value
		}
	case msg.KindBenOrProposal:
		if !in.Bot && !in.Value.Valid() {
			return nil // malformed: non-"?" proposals carry a binary value
		}
	case msg.KindState, msg.KindValue, msg.KindInitial, msg.KindEcho,
		msg.KindGraph, msg.KindGossip, msg.KindReady:
		return nil // explicitly ignored: other protocols' wire kinds
	default:
		return nil
	}
	var out []core.Outbound
	queue := []msg.Message{in}
	for len(queue) > 0 && !m.halted {
		cur := queue[0]
		queue = queue[1:]
		switch m.classify(cur) {
		case dropMsg:
		case bufferMsg:
			pk := pendKey{round: cur.Phase, kind: cur.Kind}
			m.pending[pk] = append(m.pending[pk], cur)
		default:
			sk := seenKey{sender: cur.From, kind: cur.Kind, round: cur.Phase}
			if !m.seen[sk] {
				m.seen[sk] = true
				out = append(out, m.count(cur)...)
			}
		}
		// Always re-check the buffer: a step or round transition may have
		// made previously buffered messages applicable.
		if !m.halted {
			pk := pendKey{round: m.round, kind: m.expectedKind()}
			if buf := m.pending[pk]; len(buf) > 0 {
				queue = append(queue, buf...)
				delete(m.pending, pk)
			}
		}
	}
	return out
}

type disposition int

const (
	processMsg disposition = iota
	bufferMsg
	dropMsg
)

func (m *Machine) classify(in msg.Message) disposition {
	switch {
	case in.Phase < m.round:
		return dropMsg
	case in.Phase > m.round:
		return bufferMsg
	}
	// Same round: reports belong to step 1, proposals to step 2.
	if in.Kind == m.expectedKind() {
		return processMsg
	}
	if in.Kind == msg.KindBenOrProposal && m.step == 1 {
		return bufferMsg // proposal from a faster process; hold for step 2
	}
	return dropMsg // late report while already in step 2
}

func (m *Machine) expectedKind() msg.Kind {
	if m.step == 1 {
		return msg.KindBenOrReport
	}
	return msg.KindBenOrProposal
}

func (m *Machine) count(in msg.Message) []core.Outbound {
	nk := quorum.WaitCount(m.cfg.N, m.cfg.K)
	if m.step == 1 {
		m.reportCount[in.Value]++
		if m.reportCount[0]+m.reportCount[1] < nk {
			return nil
		}
		return m.endStep1()
	}
	if in.Bot {
		m.botCount++
	} else {
		m.propCount[in.Value]++
	}
	if m.propCount[0]+m.propCount[1]+m.botCount < nk {
		return nil
	}
	return m.endStep2()
}

// endStep1 closes the report-collection step: propose the majority value if
// its support crosses the mode's proposal threshold, otherwise propose "?".
// In crash mode the threshold is a strict majority of all n processes (two
// conflicting proposals would need more than n reports in total); in
// Byzantine mode it is strictly more than (n+t)/2, so that even with t
// forged reports a proposal is backed by a strict majority of correct ones.
func (m *Machine) endStep1() []core.Outbound {
	m.step = 2
	for _, v := range []msg.Value{msg.V0, msg.V1} {
		ok := false
		if m.mode == Crash {
			ok = quorum.ExceedsHalf(m.reportCount[v], m.cfg.N)
		} else {
			ok = quorum.ExceedsHalfNPlusK(m.reportCount[v], m.cfg.N, m.cfg.K)
		}
		if ok {
			return []core.Outbound{core.ToAll(msg.BenOrProposal(m.cfg.Self, m.round, v, false))}
		}
	}
	return []core.Outbound{core.ToAll(msg.BenOrProposal(m.cfg.Self, m.round, msg.V0, true))}
}

// endStep2 closes the proposal-collection step: decide, adopt, or flip the
// coin; then begin the next round.
func (m *Machine) endStep2() []core.Outbound {
	decideNow := false
	var decideVal msg.Value
	adoptSet := false
	var adoptVal msg.Value
	for _, v := range []msg.Value{msg.V1, msg.V0} { // prefer larger count below
		c := m.propCount[v]
		if m.decideThreshold(c) && (!decideNow || c > m.propCount[decideVal]) {
			decideNow = true
			decideVal = v
		}
		if m.adoptThreshold(c) && (!adoptSet || c > m.propCount[adoptVal]) {
			adoptSet = true
			adoptVal = v
		}
	}
	switch {
	case m.decided:
		// Already decided in an earlier round: value stays pinned.
	case decideNow:
		m.decided = true
		m.decision = decideVal
		m.value = decideVal
		m.sink.Record(trace.Event{
			Kind: trace.EventDecide, Process: m.cfg.Self, Phase: m.round, Value: decideVal,
		})
	case adoptSet:
		m.value = adoptVal
	default:
		m.value = m.coin.Flip(m.round) // the free choice
	}

	if m.decided {
		if m.lingerLeft == 0 {
			m.halted = true
			m.sink.Record(trace.Event{
				Kind: trace.EventHalt, Process: m.cfg.Self, Phase: m.round, Value: m.decision,
			})
			return nil
		}
		m.lingerLeft--
	}

	m.round++
	m.step = 1
	m.reportCount = [2]int{}
	m.propCount = [2]int{}
	m.botCount = 0
	m.pruneOldRounds()
	m.sink.Record(trace.Event{
		Kind: trace.EventPhase, Process: m.cfg.Self, Phase: m.round, Value: m.value,
	})
	return []core.Outbound{core.ToAll(msg.BenOrReport(m.cfg.Self, m.round, m.value))}
}

func (m *Machine) decideThreshold(c int) bool {
	if m.mode == Crash {
		return c > m.cfg.K
	}
	return quorum.ExceedsHalfNPlusK(c, m.cfg.N, m.cfg.K)
}

func (m *Machine) adoptThreshold(c int) bool {
	if m.mode == Crash {
		return c >= 1
	}
	return c >= m.cfg.K+1
}

func (m *Machine) pruneOldRounds() {
	for k := range m.seen {
		if k.round < m.round {
			delete(m.seen, k)
		}
	}
	for k := range m.pending {
		if k.round < m.round {
			delete(m.pending, k)
		}
	}
}
