package experiments

import (
	"fmt"

	"resilient/internal/faults"
	"resilient/internal/mc"
	"resilient/internal/msg"
	"resilient/internal/proto"
)

// E10 exercises the Section 5 discussion of bivalence interpretations: the
// footnote's protocol for initially-dead faults satisfies the paper's weak
// interpretation -- both decision values are reachable when all processes
// are correct (the decision is a bivalent function, the parity, of the
// inputs), while any fault pins the decision to 0 -- and it overcomes ANY
// number of initially-dead processes, far beyond the floor((n-1)/2) bound
// that strong bivalence imposes.
func E10(p Params) ([]*Table, error) {
	t := &Table{
		ID:     "E10",
		Title:  "Section 5 weak-bivalence protocol under initially-dead faults",
		Source: "Section 5 and its footnote (the G+ construction)",
		Header: []string{"n", "dead", "inputs", "terminated", "agreement", "decision"},
	}
	type scenario struct {
		n      int
		dead   []msg.ID
		inputs []msg.Value
		want   string // expected decision as a string, "" = any
	}
	scenarios := []scenario{
		{5, nil, []msg.Value{0, 0, 0, 0, 0}, "0"},
		{5, nil, []msg.Value{1, 0, 0, 0, 0}, "1"},
		{5, nil, []msg.Value{1, 1, 0, 0, 0}, "0"},
		{5, nil, []msg.Value{1, 1, 1, 1, 1}, "1"},
		{6, []msg.ID{5}, []msg.Value{1, 1, 1, 1, 1, 1}, "0"},
		{6, []msg.ID{3, 4, 5}, []msg.Value{1, 1, 1, 1, 1, 1}, "0"},
		{6, []msg.ID{1, 2, 3, 4, 5}, []msg.Value{1, 1, 1, 1, 1, 1}, "0"},
	}
	if p.Quick {
		scenarios = scenarios[:4]
	}
	for row, sc := range scenarios {
		outs, err := runTrials(p, max(p.trials()/10, 5), func(tr int) mc.Trial {
			// K = 0 with no deaths: wait for everyone; the graph is complete.
			return mc.Trial{
				Protocol: proto.Bivalence, N: sc.n, K: len(sc.dead), Inputs: sc.inputs,
				Crashes: faults.InitiallyDead(sc.dead...),
				Seed:    p.seedFor(row, tr),
			}
		})
		if err != nil {
			return nil, fmt.Errorf("E10 row %d: %w", row, err)
		}
		decision := "-"
		for _, o := range outs {
			if o.Decided > 0 {
				decision = fmt.Sprintf("%d", o.Value)
				if sc.want != "" && decision != sc.want {
					decision += " (want " + sc.want + ") UNEXPECTED"
				}
			}
		}
		tl := mc.TallyOf(outs)
		t.AddRow(
			fmt.Sprintf("%d", sc.n),
			fmt.Sprintf("%d", len(sc.dead)),
			inputsString(sc.inputs),
			pct(tl.Share(tl.Terminated)),
			pct(tl.Share(tl.Agreed)),
			decision,
		)
	}
	t.AddNote("all-correct rows decide the parity of the inputs: flipping one input flips the decision (weak bivalence)")
	t.AddNote("any initial death pins the decision to 0 -- the fixed decision permitted under faults -- including n-1 dead processes, beyond any strong-bivalence bound")
	return []*Table{t}, nil
}

func inputsString(in []msg.Value) string {
	b := make([]byte, len(in))
	for i, v := range in {
		b[i] = '0' + byte(v)
	}
	return string(b)
}
