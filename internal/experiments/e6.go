package experiments

import (
	"fmt"

	"resilient/internal/mc"
	"resilient/internal/msg"
	"resilient/internal/proto"
	"resilient/internal/quorum"
	"resilient/internal/spawn"
)

// E6 reproduces the "approximation of the majority" notes closing Sections
// 2.3 and 3.3: both protocols decide a value that tracks the majority of
// the initial inputs, and when strictly more than (n+k)/2 processes share
// an input the decision is that value within three phases (Figure 1) or two
// phases (Figure 2).
func E6(p Params) ([]*Table, error) {
	tables := make([]*Table, 0, 2)
	protos := []struct {
		id, title string
		protocol  proto.ID
		n, k      int
		phaseCap  int // the paper's phase bound for supermajority inputs
	}{
		{id: "E6a", title: "Figure 1: decision vs initial 1-count", protocol: proto.FailStop, n: 9, k: 4, phaseCap: 3},
		{id: "E6b", title: "Figure 2: decision vs initial 1-count", protocol: proto.Malicious, n: 10, k: 3, phaseCap: 2},
	}
	for pi, pr := range protos {
		t := &Table{
			ID:     pr.id,
			Title:  fmt.Sprintf("%s (n=%d, k=%d, no faults)", pr.title, pr.n, pr.k),
			Source: "Sections 2.3 and 3.3 closing notes",
			Header: []string{"initial 1s", "P(decide 1)", "phases ±95%", "max phases", "supermajority"},
		}
		superCut := quorum.SupermajorityInput(pr.n, pr.k)
		ones := []int{0, 2, pr.n / 2, pr.n - 2, pr.n}
		if !p.Quick {
			ones = nil
			for m := 0; m <= pr.n; m++ {
				ones = append(ones, m)
			}
		}
		violations := 0
		for _, m := range ones {
			inputs := make([]msg.Value, pr.n)
			for i := 0; i < m; i++ {
				inputs[i] = msg.V1
			}
			outs, err := runTrials(p, p.trials(), func(tr int) spawn.Scenario {
				return spawn.Scenario{Protocol: pr.protocol, N: pr.n, K: pr.k, Inputs: inputs, Seed: p.seedFor(pi*100+m, tr)}
			})
			if err != nil {
				return nil, fmt.Errorf("%s m=%d: %w", pr.id, m, err)
			}
			tl := mc.TallyOf(outs)
			if tl.Terminated < tl.Trials || tl.Agreed < tl.Trials {
				return nil, fmt.Errorf("%s m=%d: %d of %d trials terminated, %d agreed", pr.id, m, tl.Terminated, tl.Trials, tl.Agreed)
			}
			maxPhases := int(tl.Phases.Max())
			super := ""
			isSuper := m >= superCut || pr.n-m >= superCut
			if isSuper {
				super = fmt.Sprintf("yes (cap %d)", pr.phaseCap)
				if maxPhases > pr.phaseCap {
					violations++
					super += " VIOLATED"
				}
			}
			t.AddRow(
				fmt.Sprintf("%d/%d", m, pr.n),
				pct(tl.Share(tl.Decided1)),
				ci2(tl.Phases),
				fmt.Sprintf("%d", maxPhases),
				super,
			)
		}
		t.AddNote("P(decide 1) must rise monotonically (in distribution) with the initial 1-count: the decision 'is still likely to be equal to the majority of the initial input values'")
		if violations == 0 {
			t.AddNote(fmt.Sprintf("supermajority inputs (> (n+k)/2 = %d equal values) always decided within %d phases, as the paper claims", superCut-1, pr.phaseCap))
		} else {
			t.AddNote(fmt.Sprintf("UNEXPECTED: %d supermajority rows exceeded the paper's %d-phase cap", violations, pr.phaseCap))
		}
		tables = append(tables, t)
	}
	return tables, nil
}
