package experiments

import (
	"fmt"

	"resilient/internal/adversary"
	"resilient/internal/byzantine"
	"resilient/internal/core"
	"resilient/internal/failstop"
	"resilient/internal/malicious"
	"resilient/internal/msg"
	"resilient/internal/quorum"
	"resilient/internal/runtime"
	"resilient/internal/trace"
)

// E5 demonstrates the lower bounds (Theorems 1 and 3) empirically.
//
// The theorems say no protocol can be floor(n/2)-resilient (fail-stop) or
// floor(n/3)-resilient (malicious): any protocol that keeps deciding in the
// proofs' split executions must disagree, and any protocol that refuses to
// disagree must stop deciding. Both horns are exhibited:
//
//   - A "greedy" strawman protocol that stays live with k = n/2 (it decides
//     as soon as its n-k received values are unanimous) is driven to
//     DISAGREEMENT by the sigma_0/sigma_1 partition schedule of Theorem 1,
//     and by the two-faced coalition of Theorem 3 at n = 3k.
//   - The paper's own protocols, configured beyond their bounds, convert
//     the same attacks into a liveness loss: their strictly-more-than-
//     (n+k)/2 thresholds become unreachable from n-k messages, so they
//     stall rather than split. Safety is never violated.
//
// A control row shows the greedy protocol under the same partition but with
// k within the bound: the minority side just waits and no disagreement is
// possible.
func E5(p Params) ([]*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  "lower-bound executions: liveness or safety must fail beyond the bounds",
		Source: "Theorem 1 and Theorem 3 proof constructions",
		Header: []string{"scenario", "protocol", "n", "k", "outcome", "agreement kept"},
	}

	addRow := func(scenario, protocol string, n, k int, res *runtime.Result) {
		t.AddRow(scenario, protocol, fmt.Sprintf("%d", n), fmt.Sprintf("%d", k),
			describeOutcome(res), fmt.Sprintf("%v", res.Agreement))
	}

	// --- Theorem 1: n = 2k, clean partition, halves with opposite inputs. ---
	n1, k1 := 6, 3
	spawnGreedy := func(ctx runtime.SpawnContext) (core.Machine, error) {
		return newGreedy(ctx.Config, ctx.Sink), nil
	}
	resGreedy, err := runPartitioned(n1, k1, msg.ID(n1/2), spawnGreedy, p.Seed)
	if err != nil {
		return nil, fmt.Errorf("E5 thm1 greedy: %w", err)
	}
	addRow("Thm 1: n=2k, partition", "greedy strawman (live at k=n/2)", n1, k1, resGreedy)
	if resGreedy.Agreement {
		t.AddNote("UNEXPECTED: the Theorem 1 construction failed to split the greedy protocol")
	}

	resFig1, err := runPartitioned(n1, k1, msg.ID(n1/2), func(ctx runtime.SpawnContext) (core.Machine, error) {
		return failstop.NewUnsafe(ctx.Config, ctx.Sink), nil
	}, p.Seed+1)
	if err != nil {
		return nil, fmt.Errorf("E5 thm1 fig1: %w", err)
	}
	addRow("Thm 1: n=2k, partition", "Figure 1 (unsafe k=n/2)", n1, k1, resFig1)
	if !resFig1.Agreement {
		t.AddNote("UNEXPECTED: Figure 1 violated safety at n=2k")
	}

	// --- Control: greedy under the same partition, k within the bound. ---
	nc, kc := 7, 3
	resCtl, err := runPartitioned(nc, kc, msg.ID(4), spawnGreedy, p.Seed+2)
	if err != nil {
		return nil, fmt.Errorf("E5 control: %w", err)
	}
	addRow("control: k=floor((n-1)/2), partition", "greedy strawman", nc, kc, resCtl)
	if !resCtl.Agreement {
		t.AddNote("UNEXPECTED: control row disagreed within the bound")
	}

	// --- Theorem 3: n = 3k, two-faced coalition bridging the partition. ---
	// S-only = {0, 1}, coalition = {2, 3}, T-only = {4, 5}.
	n3, k3 := 6, 2
	coalition := map[msg.ID]bool{2: true, 3: true}
	bridge := adversary.Partition{GroupOf: adversary.Overlap(2, 4)}
	spawnTwoFacedGreedy := func(ctx runtime.SpawnContext) (core.Machine, error) {
		inner := newGreedy(ctx.Config, ctx.Sink)
		if !ctx.Byzantine {
			return inner, nil
		}
		return byzantine.NewTwoFaced(inner, ctx.Config.N, msg.ID(4)), nil
	}
	res3, err := runtime.Run(runtime.Config{
		N: n3, K: k3, Inputs: splitInputs(n3, 4),
		Spawn:      spawnTwoFacedGreedy,
		Byzantine:  coalition,
		Policy:     bridge,
		Seed:       p.Seed + 3,
		MaxSimTime: 1000,
	})
	if err != nil {
		return nil, fmt.Errorf("E5 thm3 greedy: %w", err)
	}
	addRow("Thm 3: n=3k, two-faced coalition", "greedy strawman", n3, k3, res3)
	if res3.Agreement {
		t.AddNote("UNEXPECTED: the Theorem 3 construction failed to split the greedy protocol")
	}

	resFig2, err := runtime.Run(runtime.Config{
		N: n3, K: k3, Inputs: splitInputs(n3, 4),
		Spawn: func(ctx runtime.SpawnContext) (core.Machine, error) {
			inner := malicious.NewUnsafe(ctx.Config, ctx.Sink)
			if !ctx.Byzantine {
				return inner, nil
			}
			return byzantine.NewTwoFaced(inner, ctx.Config.N, msg.ID(4)), nil
		},
		Byzantine:  coalition,
		Policy:     bridge,
		Seed:       p.Seed + 4,
		MaxSimTime: 1000,
	})
	if err != nil {
		return nil, fmt.Errorf("E5 thm3 fig2: %w", err)
	}
	addRow("Thm 3: n=3k, two-faced coalition", "Figure 2 (echo, unsafe k=n/3)", n3, k3, resFig2)
	if !resFig2.Agreement {
		t.AddNote("UNEXPECTED: Figure 2's echo mechanism allowed disagreement")
	}

	t.AddNote("greedy rows beyond the bounds must disagree; the paper's protocols instead stall (their decide thresholds exceed the n-k messages available), keeping safety")
	t.AddNote("the control row keeps agreement: with k within the bound the minority partition cannot assemble a deciding view")
	return []*Table{t}, nil
}

// runPartitioned runs a protocol under a clean partition at `boundary` with
// all-0 inputs on one side and all-1 on the other.
func runPartitioned(n, k int, boundary msg.ID, spawn runtime.Spawner, seed uint64) (*runtime.Result, error) {
	return runtime.Run(runtime.Config{
		N: n, K: k, Inputs: splitInputs(n, int(boundary)),
		Spawn:      spawn,
		Policy:     adversary.Partition{GroupOf: adversary.Halves(boundary)},
		Seed:       seed,
		MaxSimTime: 1000,
	})
}

func splitInputs(n, boundary int) []msg.Value {
	in := make([]msg.Value, n)
	for i := range in {
		if i >= boundary {
			in[i] = msg.V1
		}
	}
	return in
}

func describeOutcome(res *runtime.Result) string {
	switch {
	case !res.Agreement:
		return fmt.Sprintf("DISAGREEMENT (%d decided)", res.DecidedCount())
	case res.AllDecided:
		return fmt.Sprintf("all decided %d", res.Value)
	case res.DecidedCount() > 0:
		return fmt.Sprintf("partial: %d decided %d, rest stalled (%v)",
			res.DecidedCount(), res.Value, res.Stalled)
	default:
		return fmt.Sprintf("stalled (%v), nobody decided", res.Stalled)
	}
}

// greedy is the strawman protocol of the lower-bound demonstrations: each
// phase it broadcasts its value, waits for n-k values, adopts the majority,
// and decides as soon as the n-k values it received are unanimous. That
// decision rule keeps it live inside a partition of size n-k -- which is
// exactly what Theorems 1 and 3 prove must cost it safety.
type greedy struct {
	cfg  core.Config
	sink trace.Sink

	value    msg.Value
	phase    msg.Phase
	msgCount [2]int
	counted  map[msg.ID]bool
	pending  map[msg.Phase][]msg.Message

	started  bool
	decided  bool
	decision msg.Value
}

var _ core.Machine = (*greedy)(nil)

func newGreedy(cfg core.Config, sink trace.Sink) *greedy {
	if sink == nil {
		sink = trace.Nop{}
	}
	return &greedy{
		cfg:     cfg,
		sink:    sink,
		value:   cfg.Input,
		counted: make(map[msg.ID]bool),
		pending: make(map[msg.Phase][]msg.Message),
	}
}

func (g *greedy) ID() msg.ID                 { return g.cfg.Self }
func (g *greedy) Phase() msg.Phase           { return g.phase }
func (g *greedy) Decided() (msg.Value, bool) { return g.decision, g.decided }
func (g *greedy) Halted() bool               { return false }
func (g *greedy) CurrentValue() msg.Value    { return g.value }
func (g *greedy) Start() []core.Outbound {
	if g.started {
		return nil
	}
	g.started = true
	return []core.Outbound{core.ToAll(msg.Val(g.cfg.Self, g.phase, g.value))}
}

func (g *greedy) OnMessage(in msg.Message) []core.Outbound {
	if !g.started {
		return nil
	}
	switch in.Kind {
	case msg.KindValue:
		// The only kind the greedy baseline speaks.
	case msg.KindState, msg.KindInitial, msg.KindEcho, msg.KindBenOrReport,
		msg.KindBenOrProposal, msg.KindGraph, msg.KindGossip, msg.KindReady:
		return nil // explicitly ignored: other protocols' wire kinds
	default:
		return nil
	}
	if !in.Value.Valid() {
		return nil
	}
	var out []core.Outbound
	queue := []msg.Message{in}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		switch {
		case cur.Phase < g.phase:
			continue
		case cur.Phase > g.phase:
			g.pending[cur.Phase] = append(g.pending[cur.Phase], cur)
			continue
		}
		if g.counted[cur.From] {
			continue
		}
		g.counted[cur.From] = true
		g.msgCount[cur.Value]++
		if g.msgCount[0]+g.msgCount[1] < quorum.WaitCount(g.cfg.N, g.cfg.K) {
			continue
		}
		// Phase end: unanimous view decides; otherwise adopt the majority.
		if !g.decided {
			switch {
			case g.msgCount[0] == 0:
				g.decided, g.decision, g.value = true, msg.V1, msg.V1
			case g.msgCount[1] == 0:
				g.decided, g.decision, g.value = true, msg.V0, msg.V0
			case g.msgCount[1] > g.msgCount[0]:
				g.value = msg.V1
			default:
				g.value = msg.V0
			}
			if g.decided {
				g.sink.Record(trace.Event{
					Kind: trace.EventDecide, Process: g.cfg.Self,
					Phase: g.phase, Value: g.decision,
				})
			}
		}
		g.msgCount = [2]int{}
		clear(g.counted)
		g.phase++
		out = append(out, core.ToAll(msg.Val(g.cfg.Self, g.phase, g.value)))
		if buf := g.pending[g.phase]; len(buf) > 0 {
			queue = append(queue, buf...)
			delete(g.pending, g.phase)
		}
	}
	return out
}
