// Package bivalence implements the Section 5 protocol sketched in the
// paper's footnote: a consensus protocol, for the fault case where all
// faulty processes are *initially dead*, that satisfies the paper's weak
// interpretation of bivalence and overcomes ANY number of faults.
//
// Construction (following the footnote, which adapts the initially-dead
// protocol of [Fisc83]): processes first broadcast their input and wait for
// stage-0 messages from n-K processes; the senders heard form this process's
// in-neighbourhood S_p of the communication graph G (edge q -> p iff
// q in S_p). They then run n-1 flooding stages: in each stage every process
// broadcasts all rows it knows -- a row for q being (input_q, S_q) -- and
// waits for the stage's message from every member of S_p (all of whom are
// alive, since they spoke in stage 0; initially-dead faults never speak).
// Rows propagate one G-hop per stage, so if the transitive closure G+ is
// strongly connected, after n-1 stages every live process knows every row.
//
// Decision rule (the footnote's): if G+ "turns out to be strongly connected,
// and it contains all the processes" -- i.e. this process knows the row of
// every one of the n processes and the graph they form is strongly connected
// -- then decide an agreed bivalent function of all the inputs (we use the
// parity of the inputs); otherwise decide 0.
//
// Consistency holds because the verdict is a function of the objective graph
// G: rows are authentic (fail-stop processes never lie), any process that
// assembles all n rows computes the same verdict, strong connectivity
// guarantees every live process assembles them, and when the condition fails
// no process can falsely verify it. With one or more initial deaths the
// decision is pinned to 0 -- the fixed decision that the paper's weak
// bivalence permits in the presence of faults.
package bivalence

import (
	"fmt"
	"slices"

	"resilient/internal/core"
	"resilient/internal/msg"
	"resilient/internal/trace"
)

// Machine is a Section-5 protocol instance at one process.
type Machine struct {
	cfg  core.Config
	sink trace.Sink

	stage msg.Phase // 0 = collecting inputs; 1..n-1 = flooding stages

	neighbors []msg.ID        // S_p, fixed at the end of stage 0
	inSet     map[msg.ID]bool // membership in S_p

	rows       map[msg.ID]*row
	stage0Seen map[msg.ID]bool
	stageSeen  map[msg.ID]bool // senders heard in the current flooding stage
	pending    map[msg.Phase][]msg.Message

	started  bool
	decided  bool
	decision msg.Value
	halted   bool
}

// row is everything known about one process.
type row struct {
	input     msg.Value
	hasInput  bool
	neighbors []msg.ID // S_q; nil until q's stage-1 knowledge arrives
	hasRow    bool
}

var _ core.Machine = (*Machine)(nil)

// New returns a Section-5 machine. K may be any value in 0..n-1: the
// protocol tolerates any number of initially-dead processes.
func New(cfg core.Config, sink trace.Sink) (*Machine, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("bivalence: need n >= 1, got %d", cfg.N)
	}
	if cfg.K < 0 || cfg.K >= cfg.N {
		return nil, fmt.Errorf("bivalence: need 0 <= K < n, got K=%d n=%d", cfg.K, cfg.N)
	}
	if cfg.Self < 0 || int(cfg.Self) >= cfg.N {
		return nil, fmt.Errorf("bivalence: self %d outside 0..%d", cfg.Self, cfg.N-1)
	}
	if !cfg.Input.Valid() {
		return nil, fmt.Errorf("bivalence: invalid input %d", cfg.Input)
	}
	if sink == nil {
		sink = trace.Nop{}
	}
	return &Machine{
		cfg:        cfg,
		sink:       sink,
		inSet:      make(map[msg.ID]bool),
		rows:       make(map[msg.ID]*row),
		stage0Seen: make(map[msg.ID]bool),
		stageSeen:  make(map[msg.ID]bool),
		pending:    make(map[msg.Phase][]msg.Message),
	}, nil
}

// ID implements core.Machine.
func (m *Machine) ID() msg.ID { return m.cfg.Self }

// Phase implements core.Machine (the stage number).
func (m *Machine) Phase() msg.Phase { return m.stage }

// Decided implements core.Machine.
func (m *Machine) Decided() (msg.Value, bool) { return m.decision, m.decided }

// Halted implements core.Machine.
func (m *Machine) Halted() bool { return m.halted }

// Start broadcasts the stage-0 input message.
func (m *Machine) Start() []core.Outbound {
	if m.started {
		return nil
	}
	m.started = true
	m.rows[m.cfg.Self] = &row{input: m.cfg.Input, hasInput: true}
	//lint:allow hotalloc one map per machine Start, not per message
	payload := encodeRows(map[msg.ID]*row{m.cfg.Self: m.rows[m.cfg.Self]})
	return []core.Outbound{core.ToAll(msg.Graph(m.cfg.Self, 0, payload))}
}

// OnMessage consumes one delivered message.
func (m *Machine) OnMessage(in msg.Message) []core.Outbound {
	if m.halted || !m.started {
		return nil
	}
	switch in.Kind {
	case msg.KindGraph:
		// The only kind the communication-graph protocol speaks.
	case msg.KindState, msg.KindValue, msg.KindInitial, msg.KindEcho,
		msg.KindBenOrReport, msg.KindBenOrProposal, msg.KindGossip, msg.KindReady:
		return nil // explicitly ignored: other protocols' wire kinds
	default:
		return nil
	}
	var out []core.Outbound
	queue := []msg.Message{in}
	for len(queue) > 0 && !m.halted {
		cur := queue[0]
		queue = queue[1:]
		switch {
		case cur.Phase < m.stage:
			continue
		case cur.Phase > m.stage:
			m.pending[cur.Phase] = append(m.pending[cur.Phase], cur)
			continue
		}
		advanced := m.consume(cur)
		if advanced {
			out = append(out, m.advance()...)
			if !m.halted {
				if buf := m.pending[m.stage]; len(buf) > 0 {
					queue = append(queue, buf...)
					delete(m.pending, m.stage)
				}
			}
		}
	}
	return out
}

// consume processes one current-stage message and reports whether the stage
// completed.
func (m *Machine) consume(cur msg.Message) bool {
	if m.stage == 0 {
		if m.stage0Seen[cur.From] {
			return false
		}
		m.stage0Seen[cur.From] = true
		m.mergeRows(cur.Payload)
		m.neighbors = append(m.neighbors, cur.From)
		m.inSet[cur.From] = true
		return len(m.neighbors) >= m.cfg.N-m.cfg.K
	}
	// Flooding stage: only S_p members gate progress, but any authentic
	// knowledge is merged (it can only help completeness).
	m.mergeRows(cur.Payload)
	if !m.inSet[cur.From] || m.stageSeen[cur.From] {
		return false
	}
	m.stageSeen[cur.From] = true
	return len(m.stageSeen) == len(m.neighbors)
}

// advance moves to the next stage, or decides after the last one.
func (m *Machine) advance() []core.Outbound {
	if m.stage == 0 {
		// S_p is now fixed: complete our own row.
		self := m.rows[m.cfg.Self]
		self.neighbors = append([]msg.ID(nil), m.neighbors...)
		slices.Sort(self.neighbors)
		self.hasRow = true
	}
	m.stage++
	clear(m.stageSeen)
	m.sink.Record(trace.Event{
		Kind: trace.EventPhase, Process: m.cfg.Self, Phase: m.stage,
	})
	if int(m.stage) <= m.cfg.N-1 {
		return []core.Outbound{core.ToAll(msg.Graph(m.cfg.Self, m.stage, encodeRows(m.rows)))}
	}
	m.decide()
	return nil
}

// decide applies the footnote's decision rule.
func (m *Machine) decide() {
	m.decided = true
	m.halted = true
	m.decision = msg.V0
	if m.completeAndStronglyConnected() {
		m.decision = parity(m.rows, m.cfg.N)
	}
	m.sink.Record(trace.Event{
		Kind: trace.EventDecide, Process: m.cfg.Self, Phase: m.stage, Value: m.decision,
	})
}

// completeAndStronglyConnected reports whether all n rows are known and the
// graph they form (edge q -> p iff q in S_p) is strongly connected.
func (m *Machine) completeAndStronglyConnected() bool {
	n := m.cfg.N
	adj := make([][]msg.ID, n)  // adj[q] = processes p with q -> p
	radj := make([][]msg.ID, n) // reverse edges
	for p := 0; p < n; p++ {
		r := m.rows[msg.ID(p)]
		if r == nil || !r.hasRow || !r.hasInput {
			return false
		}
		for _, q := range r.neighbors {
			if q < 0 || int(q) >= n {
				return false
			}
			adj[q] = append(adj[q], msg.ID(p))
			radj[p] = append(radj[p], q)
		}
	}
	return reachesAll(adj, n) && reachesAll(radj, n)
}

// reachesAll reports whether node 0 reaches every node along adj.
func reachesAll(adj [][]msg.ID, n int) bool {
	seen := make([]bool, n)
	stack := []msg.ID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == n
}

// parity returns the agreed bivalent function of all inputs: their XOR.
// Flipping any single input flips the outcome, so with all processes
// correct both decision values are reachable (weak bivalence); validity in
// the majority sense is deliberately not provided, which is exactly the
// Section 5 point.
func parity(rows map[msg.ID]*row, n int) msg.Value {
	var v msg.Value
	for p := 0; p < n; p++ {
		v ^= rows[msg.ID(p)].input
	}
	return v
}

// mergeRows merges an encoded knowledge payload into the local rows.
func (m *Machine) mergeRows(payload []byte) {
	decoded, err := decodeRows(payload)
	if err != nil {
		return // malformed knowledge is ignored; fail-stop senders never lie
	}
	for id, r := range decoded {
		if id < 0 || int(id) >= m.cfg.N {
			continue
		}
		cur := m.rows[id]
		if cur == nil {
			cur = &row{}
			m.rows[id] = cur
		}
		if r.hasInput && !cur.hasInput {
			cur.input = r.input
			cur.hasInput = true
		}
		if r.hasRow && !cur.hasRow {
			cur.neighbors = r.neighbors
			cur.hasRow = true
		}
	}
}
