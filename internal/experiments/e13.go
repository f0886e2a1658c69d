package experiments

import (
	"fmt"

	"resilient/internal/mc"
	"resilient/internal/proto"
	"resilient/internal/stats"
)

// E13 is the Section 6 style cross-protocol comparison over the registry:
// every consensus protocol of the zoo runs the same random-input workload
// at its own resilience bound, and the table reports termination,
// agreement, expected phases, and message cost side by side. The headline
// contrast is the coin column: local-coin Ben-Or's expected phases grow
// with n (the [BenO83] cost the paper's Section 6 discussion accepts for
// asynchrony), while the shared-coin variant stays flat -- all correct
// processes flip the same value, so every coin round has a constant
// probability of unifying.
func E13(p Params) ([]*Table, error) {
	type config struct {
		id   proto.ID
		n, k int
	}
	sizes := []int{7, 15}
	if p.Quick {
		sizes = []int{7}
	}
	zoo := []proto.ID{
		proto.FailStop, proto.Malicious, proto.Majority,
		proto.BenOrCrash, proto.BenOrByzantine, proto.BenOrShared,
	}
	var configs []config
	for _, n := range sizes {
		for _, id := range zoo {
			configs = append(configs, config{id: id, n: n, k: id.MaxFaults(n)})
		}
	}

	header := []string{"protocol", "coin", "n", "k", "terminated", "agreement", "phases ±95%", "mean msgs"}
	if p.WallTimes {
		header = append(header, "wall ms")
	}
	t := &Table{
		ID:     "E13",
		Title:  "protocol zoo: phases, messages and coin schemes across the registry",
		Source: "Section 6 discussion; [BenO83]",
		Header: header,
	}
	scoped := p.Metrics.Scoped("zoo.")
	for row, cfg := range configs {
		d, ok := proto.Lookup(cfg.id)
		if !ok {
			return nil, fmt.Errorf("E13: protocol %d not registered", int(cfg.id))
		}
		outs, err := runTrials(p, p.trials(), func(tr int) mc.Trial {
			seed := p.seedFor(row, tr)
			return mc.Trial{Protocol: cfg.id, N: cfg.n, K: cfg.k, Inputs: randomInputs(cfg.n, seed), Seed: seed, Metrics: scoped}
		})
		if err != nil {
			return nil, fmt.Errorf("E13 row %d: %w", row, err)
		}
		tl := mc.TallyOf(outs)
		cells := []string{
			d.Name, d.Coin.String(),
			fmt.Sprintf("%d", cfg.n), fmt.Sprintf("%d", cfg.k),
			pct(tl.Share(tl.Terminated)), pct(tl.Share(tl.Agreed)),
			phaseCell(tl, ci2), f2(tl.Messages.Mean()),
		}
		if p.WallTimes {
			var wall stats.Accumulator
			for _, o := range outs {
				wall.Add(o.Wall.Seconds() * 1e3)
			}
			cells = append(cells, f3(wall.Mean()))
		}
		t.AddRow(cells...)
	}
	t.AddNote("every protocol runs random inputs at its own bound k; terminated and agreement must be 100%%")
	t.AddNote("benor-crash (local coins) phase counts grow with n; benor-shared (common coin) stays flat at the same bound")
	t.AddNote("wall times are measured only when requested (cmd/experiments): they vary run to run, unlike every other column")
	return []*Table{t}, nil
}
