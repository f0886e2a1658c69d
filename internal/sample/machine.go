package sample

import (
	"fmt"

	"resilient/internal/core"
	"resilient/internal/dense"
	"resilient/internal/echo"
	"resilient/internal/msg"
	"resilient/internal/trace"
)

// Machine is one process of a single sample-based reliable broadcast: the
// origin process disseminates its input value by gossip, every process
// echoes the first copy it sees to the receivers that sampled it, accepts at
// the plan's echo threshold, then sends a ready to the receivers whose
// ready sample contains it, and delivers at the ready-deliver threshold
// (Murmur → Sieve → Contagion in the terminology of arXiv 1908.01738).
//
// It is the sampled counterpart of EchoMachine, which runs the same one-shot
// broadcast over the paper's full-quorum Figure-2 primitive; the pair is the
// substrate for the echo-vs-sample benchmarks and for the n=10,000 runs that
// are infeasible under the quorum scheme.
//
// Byzantine relayers can forge the (origin, value) claim inside a gossip
// message — From is transport-stamped but Subject is not — which is exactly
// the attack the echo stage's ε-consistency threshold defends against.
type Machine struct {
	cfg core.Config
	dir *Directory

	// Both stages count in place: a delivery reads the directory's sample
	// and writes only this record and the stage's seen words. readied is
	// the echo stage's acceptance latch -- acceptance can fire only while
	// no ready was sent, and always sends one.
	echoes  sampleCount
	readies sampleCount

	// origin shares a word with the flags, and a 10,000-process run makes
	// 10,000 of these.
	origin    msg.ID
	value     msg.Value
	relayed   bool // gossiped + echoed (first copy already handled)
	readied   bool // own ready sent
	delivered bool

	sink trace.Sink // nil unless tracing is on
	out  []core.Outbound
}

var _ core.Machine = (*Machine)(nil)
var _ core.ValueReporter = (*Machine)(nil)

// NewMachine builds the sampled-broadcast machine for cfg.Self, delivering
// origin's broadcast of its Input value. All machines of one run must share
// dir. sink may be nil to disable tracing.
func NewMachine(cfg core.Config, dir *Directory, origin msg.ID, sink trace.Sink) (*Machine, error) {
	p := dir.Plan()
	if cfg.N != p.N || cfg.K != p.K {
		return nil, fmt.Errorf("sample: config (n=%d, k=%d) does not match plan %v", cfg.N, cfg.K, p)
	}
	if origin < 0 || int(origin) >= cfg.N {
		return nil, fmt.Errorf("sample: origin %d outside 0..%d", origin, cfg.N-1)
	}
	m := &Machine{
		cfg:    cfg,
		dir:    dir,
		origin: origin,
		sink:   enabledSink(sink),
	}
	m.echoes.reset(dir.EchoSample(cfg.Self))
	m.readies.reset(dir.ReadySample(cfg.Self))
	return m, nil
}

// sampleCount is one stage's tally over a receiver's sorted sample: the
// first message from each sample member counts, for the value it carries.
// It is sample.Tracker's subject tally for the one subject and one phase a
// broadcast has.
type sampleCount struct {
	sample []int32 // sorted; aliases the Directory
	seen   dense.Bitset
	counts [2]int32
}

func (c *sampleCount) reset(sample []int32) {
	c.sample = sample
	c.seen.Reset(len(sample))
	c.counts = [2]int32{}
}

// add counts from's message for v and returns v's new count. It reports
// false, counting nothing, for a sender outside the sample -- ids outside
// 0..n-1 included, since no sample holds one -- and for a sender already
// counted, whatever value it carried then. v must be valid.
func (c *sampleCount) add(from msg.ID, v msg.Value) (int, bool) {
	idx := SampleIndex(c.sample, from)
	if idx < 0 || c.seen.Set(idx) {
		return 0, false
	}
	c.counts[v]++
	return int(c.counts[v]), true
}

// ID implements core.Machine.
func (m *Machine) ID() msg.ID { return m.cfg.Self }

// Phase implements core.Machine; the one-shot broadcast is all phase 0.
func (m *Machine) Phase() msg.Phase { return 0 }

// Decided implements core.Machine: the delivered value, once delivered.
func (m *Machine) Decided() (msg.Value, bool) { return m.value, m.delivered }

// CurrentValue implements core.ValueReporter.
func (m *Machine) CurrentValue() msg.Value { return m.value }

// Halted reports whether the process will never send again: it has
// delivered and has done its dissemination duty. (Delivery implies the own
// ready was sent: ReadyFeedback <= ReadyDeliver.)
func (m *Machine) Halted() bool { return m.delivered && m.relayed }

// Start implements core.Machine. Only the origin acts: it gossips its value
// and sends its own echo.
func (m *Machine) Start() []core.Outbound {
	if m.cfg.Self != m.origin {
		return nil
	}
	m.out = m.out[:0]
	m.value = m.cfg.Input
	m.relay(m.origin, 0, m.value)
	return m.out
}

// relay marks the first copy handled and emits the gossip fanout plus this
// process's echo to the receivers that sampled it: two multicasts over the
// directory's own target lists.
func (m *Machine) relay(origin msg.ID, p msg.Phase, v msg.Value) {
	m.relayed = true
	m.out = append(m.out,
		core.ToMany(m.dir.GossipTargets(m.cfg.Self), msg.Gossip(m.cfg.Self, origin, p, v)),
		core.ToMany(m.dir.EchoTargets(m.cfg.Self), msg.Echo(m.cfg.Self, origin, p, v)))
}

// sendReady emits this process's ready to everyone whose ready sample
// contains it.
func (m *Machine) sendReady(v msg.Value) {
	m.readied = true
	m.out = append(m.out, core.ToMany(m.dir.ReadyTargets(m.cfg.Self), msg.Ready(m.cfg.Self, m.origin, 0, v)))
}

// OnMessage implements core.Machine.
func (m *Machine) OnMessage(in msg.Message) []core.Outbound {
	if in.Subject != m.origin || !in.Value.Valid() {
		return nil
	}
	m.out = m.out[:0]
	switch in.Kind {
	case msg.KindGossip:
		if !m.relayed {
			m.relay(in.Subject, 0, in.Value)
		}
	case msg.KindEcho:
		// The broadcast is all phase 0, so in.Phase is not read: an echo
		// counts whatever phase it claims.
		if c, ok := m.echoes.add(in.From, in.Value); ok && !m.readied && c >= m.dir.Plan().EchoThreshold {
			m.sendReady(in.Value)
		}
	case msg.KindReady:
		m.onReady(in)
	case msg.KindState, msg.KindValue, msg.KindInitial, msg.KindBenOrReport,
		msg.KindBenOrProposal, msg.KindGraph:
		// Explicitly ignored: other protocols' wire kinds.
	}
	return m.out
}

func (m *Machine) onReady(in msg.Message) {
	c, ok := m.readies.add(in.From, in.Value)
	if !ok {
		return
	}
	p := m.dir.Plan()
	if !m.readied && c >= p.ReadyFeedback {
		m.sendReady(in.Value)
	}
	if !m.delivered && c >= p.ReadyDeliver {
		m.delivered = true
		m.value = in.Value
		recordDelivery(m.sink, m.cfg.Self, m.value)
	}
}

// enabledSink keeps a sink only if it observes events, so the untraced
// delivery path is one nil check.
func enabledSink(sink trace.Sink) trace.Sink {
	if trace.On(sink) {
		return sink
	}
	return nil
}

// recordDelivery traces a delivery as the process's decision (the broadcast
// is all phase 0), which is what check.Run matches Result.Decisions against.
func recordDelivery(sink trace.Sink, self msg.ID, v msg.Value) {
	if sink != nil {
		sink.Record(trace.Event{Kind: trace.EventDecide, Process: self, Value: v})
	}
}

// EchoMachine runs the same one-shot broadcast over the full-quorum Figure-2
// echo primitive: the origin broadcasts an initial to all n processes, every
// process echoes the first copy to all n, and delivery happens at the
// > (n+k)/2 acceptance quorum of echo.Tracker. O(n²) messages and an
// O(n²)-bit dedup table per node — the baseline the sampled scheme is
// benchmarked against.
type EchoMachine struct {
	cfg       core.Config
	tracker   *echo.Tracker
	origin    msg.ID // packed with the flags, as in Machine
	value     msg.Value
	echoed    bool
	delivered bool
	sink      trace.Sink // nil unless tracing is on
	out       []core.Outbound
}

var _ core.Machine = (*EchoMachine)(nil)
var _ core.ValueReporter = (*EchoMachine)(nil)

// NewEchoMachine builds the full-quorum broadcast machine for cfg.Self. sink
// may be nil to disable tracing.
func NewEchoMachine(cfg core.Config, origin msg.ID, sink trace.Sink) (*EchoMachine, error) {
	if origin < 0 || int(origin) >= cfg.N {
		return nil, fmt.Errorf("sample: origin %d outside 0..%d", origin, cfg.N-1)
	}
	return &EchoMachine{
		cfg:     cfg,
		origin:  origin,
		tracker: echo.NewTracker(cfg.N, cfg.K),
		sink:    enabledSink(sink),
	}, nil
}

// ID implements core.Machine.
func (m *EchoMachine) ID() msg.ID { return m.cfg.Self }

// Phase implements core.Machine.
func (m *EchoMachine) Phase() msg.Phase { return 0 }

// Decided implements core.Machine.
func (m *EchoMachine) Decided() (msg.Value, bool) { return m.value, m.delivered }

// CurrentValue implements core.ValueReporter.
func (m *EchoMachine) CurrentValue() msg.Value { return m.value }

// Halted implements core.Machine.
func (m *EchoMachine) Halted() bool { return m.delivered && m.echoed }

// Start implements core.Machine.
func (m *EchoMachine) Start() []core.Outbound {
	if m.cfg.Self != m.origin {
		return nil
	}
	m.out = m.out[:0]
	m.value = m.cfg.Input
	m.out = append(m.out, core.ToAll(msg.Initial(m.cfg.Self, 0, m.value)))
	return m.out
}

// OnMessage implements core.Machine.
func (m *EchoMachine) OnMessage(in msg.Message) []core.Outbound {
	if in.Subject != m.origin || !in.Value.Valid() {
		return nil
	}
	m.out = m.out[:0]
	switch in.Kind {
	case msg.KindInitial:
		if in.From == m.origin && !m.echoed {
			m.echoed = true
			m.out = append(m.out, core.ToAll(msg.Echo(m.cfg.Self, in.From, 0, in.Value)))
		}
	case msg.KindEcho:
		if accept, ok := m.tracker.Observe(in.From, in.Subject, 0, in.Value); ok && !m.delivered {
			m.delivered = true
			m.value = accept.Value
			recordDelivery(m.sink, m.cfg.Self, m.value)
		}
	case msg.KindState, msg.KindValue, msg.KindBenOrReport,
		msg.KindBenOrProposal, msg.KindGraph, msg.KindGossip, msg.KindReady:
		// Explicitly ignored: other protocols' wire kinds.
	}
	return m.out
}
