package experiments

import (
	"fmt"

	"resilient/internal/mc"
	"resilient/internal/proto"
	"resilient/internal/quorum"
	"resilient/internal/stats"
)

// E9 measures the price of Byzantine tolerance in messages: Figure 1 sends
// O(n^2) messages per phase (one broadcast per process) while Figure 2's
// echo mechanism sends O(n^3) (every process echoes every initial to
// everyone). The normalized columns msgs/(phases*n^2) and msgs/(phases*n^3)
// must stay roughly flat as n grows.
func E9(p Params) ([]*Table, error) {
	t := &Table{
		ID:     "E9",
		Title:  "message complexity: Figure 1 (O(n^2)/phase) vs Figure 2 (O(n^3)/phase)",
		Source: "Figures 1 and 2 (protocol structure)",
		Header: []string{"n", "k", "Fig1 msgs", "Fig1 msgs/(ph*n^2)", "Fig2 msgs", "Fig2 msgs/(ph*n^3)", "Fig2/Fig1"},
	}
	sizes := []int{4, 7, 10, 13, 16}
	if p.Quick {
		sizes = []int{4, 7}
	}
	for row, n := range sizes {
		k := quorum.MaxFaults(n, quorum.Malicious)
		trials := max(p.trials()/4, 10)
		runs := func(protocol proto.ID) ([]mc.Outcome, error) {
			return runTrials(p, trials, func(tr int) mc.Trial {
				seed := p.seedFor(row, tr)
				return mc.Trial{Protocol: protocol, N: n, K: k, Inputs: randomInputs(n, seed), Seed: seed}
			})
		}
		fig1, err := runs(proto.FailStop)
		if err != nil {
			return nil, fmt.Errorf("E9 fig1 n=%d: %w", n, err)
		}
		fig2, err := runs(proto.Malicious)
		if err != nil {
			return nil, fmt.Errorf("E9 fig2 n=%d: %w", n, err)
		}
		var m1, m2, r1, r2 stats.Accumulator
		for tr, a := range fig1 {
			b := fig2[tr]
			ph1 := float64(max(a.Phases, 1))
			ph2 := float64(max(b.Phases, 1))
			m1.Add(float64(a.Messages))
			m2.Add(float64(b.Messages))
			r1.Add(float64(a.Messages) / (ph1 * float64(n) * float64(n)))
			r2.Add(float64(b.Messages) / (ph2 * float64(n) * float64(n) * float64(n)))
		}
		ratio := "-"
		if m1.Mean() > 0 {
			ratio = f2(m2.Mean() / m1.Mean())
		}
		t.AddRow(
			fmt.Sprintf("%d", n), fmt.Sprintf("%d", k),
			f2(m1.Mean()), f3(r1.Mean()),
			f2(m2.Mean()), f3(r2.Mean()),
			ratio,
		)
	}
	t.AddNote("both normalized columns must stay O(1) as n grows; the Fig2/Fig1 ratio grows ~linearly in n -- the cost of echo-based equivocation defence")
	return []*Table{t}, nil
}
