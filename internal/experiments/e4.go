package experiments

import (
	"fmt"

	"resilient/internal/mc"
	"resilient/internal/msg"
	"resilient/internal/proto"
	"resilient/internal/spawn"
)

// mixedOrder is E4's heterogeneous coalition: adversary id plays
// mixedOrder[id%6].
var mixedOrder = []spawn.Strategy{spawn.Balancer, spawn.Equivocator, spawn.Silent, spawn.Flipper, spawn.Liar1, spawn.DoubleEcho}

// coalition puts strat on the k highest ids of n, or the mixed coalition
// when strat is zero.
func coalition(n, k int, strat spawn.Strategy) map[msg.ID]spawn.Strategy {
	adv := make(map[msg.ID]spawn.Strategy, k)
	for id := msg.ID(n - k); int(id) < n; id++ {
		adv[id] = strat
		if strat == 0 {
			adv[id] = mixedOrder[int(id)%len(mixedOrder)]
		}
	}
	return adv
}

// E4 verifies Theorem 4: the Figure 2 protocol is k-resilient for the
// malicious case, k <= floor((n-1)/3), against a battery of Byzantine
// strategies including the omniscient balancer. Termination, agreement and
// validity must be 100% in every row.
func E4(p Params) ([]*Table, error) {
	// A zero strategy is the mixed coalition.
	strategies := []struct {
		name  string
		strat spawn.Strategy
	}{
		{"silent", spawn.Silent}, {"balancer", spawn.Balancer}, {"equivocator", spawn.Equivocator},
		{"liar", spawn.Liar1}, {"flipper", spawn.Flipper}, {"double-echo", spawn.DoubleEcho}, {"mixed", 0},
	}
	sizes := [][2]int{{7, 2}, {10, 3}, {13, 4}}
	if p.Quick {
		sizes = [][2]int{{7, 2}}
		strategies = strategies[:3]
	}

	t := &Table{
		ID:     "E4",
		Title:  "Figure 2 (malicious) under Byzantine strategies at the floor((n-1)/3) bound",
		Source: "Theorem 4",
		Header: []string{"n", "k", "strategy", "terminated", "agreement", "validity", "phases ±95%"},
	}
	// One scoped view for every trial: resolving it per trial was the
	// in-loop handle lookup the metricshandle lint rule now rejects.
	scoped := p.Metrics.Scoped("malicious.")
	row := 0
	for _, nk := range sizes {
		n, k := nk[0], nk[1]
		for _, st := range strategies {
			trials := p.trials()
			// The omniscient balancer at the exact bound has a long tail;
			// keep trial counts moderate there.
			if st.strat == spawn.Balancer && !p.Quick {
				trials = min(trials, 100)
				if n >= 13 {
					trials = min(trials, 40)
				}
			}
			adv := coalition(n, k, st.strat)
			outs, err := runTrials(p, trials, func(tr int) mc.Trial {
				seed := p.seedFor(row, tr)
				return mc.Trial{
					Protocol: proto.Malicious, N: n, K: k,
					Inputs:      randomInputs(n, seed),
					Adversaries: adv,
					Seed:        seed,
					MaxEvents:   50_000_000,
					Metrics:     scoped,
				}
			})
			if err != nil {
				return nil, fmt.Errorf("E4 %s n=%d: %w", st.name, n, err)
			}
			tl := mc.TallyOf(outs)
			t.AddRow(
				fmt.Sprintf("%d", n), fmt.Sprintf("%d", k), st.name,
				pct(tl.Share(tl.Terminated)), pct(tl.Share(tl.Agreed)), pct(tl.Share(tl.Valid)),
				phaseCell(tl, ci2),
			)
			row++
		}
	}
	t.AddNote("paper: Figure 2 is k-resilient for k <= floor((n-1)/3) malicious processes")
	t.AddNote("validity: unanimous inputs among correct processes force that decision (the k liars cannot override a supermajority)")
	return []*Table{t}, nil
}
