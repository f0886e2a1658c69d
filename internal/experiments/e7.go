package experiments

import (
	"fmt"

	"resilient/internal/mc"
	"resilient/internal/msg"
	"resilient/internal/proto"
	"resilient/internal/spawn"
	"resilient/internal/stats"
)

// E7 verifies the Section 3.3 note: "if k < n/5, once a correct process
// decides, all the other processes also decide within one phase." We run
// Figure 2 with k Byzantine balancers in both regimes -- k < n/5 and
// n/5 <= k <= (n-1)/3 -- and measure the spread between the first and last
// correct decision phases.
func E7(p Params) ([]*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "Figure 2 decision-phase spread: k < n/5 propagates within one phase",
		Source: "Section 3.3 closing note",
		Header: []string{"n", "k", "regime", "mean spread", "max spread", "spread <= 1"},
	}
	configs := []struct {
		n, k int
	}{
		{11, 2}, // 5k = 10 < 11: fast regime
		{16, 3}, // 5k = 15 < 16: fast regime
		{10, 3}, // 5k = 15 >= 10: slow regime allowed to exceed 1
	}
	if p.Quick {
		configs = configs[:2]
	}
	for row, cfg := range configs {
		balancers := make(map[msg.ID]spawn.Strategy, cfg.k)
		for i := 0; i < cfg.k; i++ {
			balancers[msg.ID(cfg.n-1-i)] = spawn.Balancer
		}
		outs, err := runTrials(p, p.trials(), func(tr int) mc.Trial {
			seed := p.seedFor(row, tr)
			return mc.Trial{
				Protocol: proto.Malicious, N: cfg.n, K: cfg.k,
				Inputs:      randomInputs(cfg.n, seed),
				Adversaries: balancers,
				Seed:        seed,
				MaxEvents:   50_000_000,
			}
		})
		if err != nil {
			return nil, fmt.Errorf("E7 n=%d k=%d: %w", cfg.n, cfg.k, err)
		}
		var spreads stats.Accumulator
		maxSpread := 0
		for tr, o := range outs {
			if !o.Terminated {
				return nil, fmt.Errorf("E7 n=%d k=%d trial %d: stalled (%v)", cfg.n, cfg.k, tr, o.Stalled)
			}
			spreads.Add(float64(o.Phases - o.FirstPhase))
			maxSpread = max(maxSpread, o.Phases-o.FirstPhase)
		}
		regime := "k < n/5 (fast)"
		if 5*cfg.k >= cfg.n {
			regime = "k >= n/5"
		}
		t.AddRow(
			fmt.Sprintf("%d", cfg.n), fmt.Sprintf("%d", cfg.k), regime,
			f2(spreads.Mean()), fmt.Sprintf("%d", maxSpread),
			fmt.Sprintf("%v", maxSpread <= 1),
		)
	}
	t.AddNote("paper: with k < n/5, once one correct process decides all others decide within one phase -- the fast-regime rows must show max spread <= 1")
	return []*Table{t}, nil
}
