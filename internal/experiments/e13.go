package experiments

import (
	"fmt"

	"resilient/internal/coin"
	"resilient/internal/mc"
	"resilient/internal/proto"
	"resilient/internal/runtime"
	"resilient/internal/stats"
	"resilient/internal/sweep"

	// The comparison iterates the protocol registry; the blank imports pull
	// every compared protocol's registration in.
	_ "resilient/internal/benor"
	_ "resilient/internal/failstop"
	_ "resilient/internal/majority"
	_ "resilient/internal/malicious"
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
		scheme, err := d.ResolveCoin(coin.SchemeAuto)
		if err != nil {
			return nil, fmt.Errorf("E13: %w", err)
		}
		trials := p.trials()
		type trial struct {
			term, agree        bool
			phases, msgs, wall float64
		}
		results, err := sweep.Run(trials, p.workers(), func(tr int) (trial, error) {
			seed := p.seedFor(row, tr)
			res, err := runtime.Run(runtime.Config{
				N: cfg.n, K: cfg.k,
				Inputs:  randomInputs(cfg.n, seed),
				Spawn:   mc.ProtocolSpawner(d, scheme, seed),
				Seed:    seed,
				Metrics: scoped,
			})
			if err != nil {
				return trial{}, fmt.Errorf("E13 row %d trial %d: %w", row, tr, err)
			}
			return trial{
				term:   res.AllDecided && res.Stalled == runtime.NotStalled,
				agree:  res.Agreement,
				phases: float64(maxDecisionPhase(res)),
				msgs:   float64(res.MessagesSent),
				wall:   res.WallClock.Seconds() * 1e3,
			}, nil
		})
		if err != nil {
			return nil, err
		}
		var phases, msgs, wall stats.Accumulator
		term, agree := 0, 0
		for _, r := range results {
			if r.term {
				term++
			}
			if r.agree {
				agree++
			}
			phases.Add(r.phases)
			msgs.Add(r.msgs)
			wall.Add(r.wall)
		}
		cells := []string{
			d.Name, scheme.String(),
			fmt.Sprintf("%d", cfg.n), fmt.Sprintf("%d", cfg.k),
			pct(float64(term) / float64(trials)),
			pct(float64(agree) / float64(trials)),
			fmt.Sprintf("%s ± %s", f2(phases.Mean()), f2(phases.CI95())),
			f2(msgs.Mean()),
		}
		if p.WallTimes {
			cells = append(cells, f3(wall.Mean()))
		}
		t.AddRow(cells...)
	}
	t.AddNote("every protocol runs random inputs at its own bound k; terminated and agreement must be 100%%")
	t.AddNote("benor-crash (local coins) phase counts grow with n; benor-shared (common coin) stays flat at the same bound")
	t.AddNote("wall times are measured only when requested (cmd/experiments): they vary run to run, unlike every other column")
	return []*Table{t}, nil
}
