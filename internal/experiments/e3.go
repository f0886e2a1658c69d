package experiments

import (
	"fmt"
	"math/rand/v2"

	"resilient/internal/faults"
	"resilient/internal/mc"
	"resilient/internal/msg"
	"resilient/internal/proto"
)

// E3 verifies Theorem 2: the Figure 1 protocol is a k-resilient consensus
// protocol for the fail-stop case, for every k up to floor((n-1)/2). Each
// row runs many seeded executions under a crash pattern and reports the
// fraction that terminated, agreed, and satisfied validity, plus the mean
// phases to the last decision. All three fractions must be 100%.
func E3(p Params) ([]*Table, error) {
	type config struct {
		n, k    int
		pattern string
	}
	var configs []config
	sizes := [][2]int{{5, 2}, {7, 3}, {9, 4}, {11, 5}}
	if p.Quick {
		sizes = [][2]int{{5, 2}, {7, 3}}
	}
	for _, nk := range sizes {
		for _, pat := range []string{"none", "initially-dead", "random"} {
			configs = append(configs, config{n: nk[0], k: nk[1], pattern: pat})
		}
	}

	t := &Table{
		ID:     "E3",
		Title:  "Figure 1 (fail-stop) resilience sweep at the floor((n-1)/2) bound",
		Source: "Theorem 2",
		Header: []string{"n", "k", "crash pattern", "terminated", "agreement", "validity", "phases ±95%", "mean msgs"},
	}
	// One scoped view for every trial: resolving it per trial was the
	// in-loop handle lookup the metricshandle lint rule now rejects.
	scoped := p.Metrics.Scoped("failstop.")
	for row, cfg := range configs {
		outs, err := runTrials(p, p.trials(), func(tr int) mc.Trial {
			seed := p.seedFor(row, tr)
			return mc.Trial{
				Protocol: proto.FailStop, N: cfg.n, K: cfg.k,
				Inputs:  randomInputs(cfg.n, seed),
				Crashes: crashPlan(cfg.pattern, cfg.n, cfg.k, seed),
				Seed:    seed,
				Metrics: scoped,
			}
		})
		if err != nil {
			return nil, fmt.Errorf("E3 row %d: %w", row, err)
		}
		tl := mc.TallyOf(outs)
		t.AddRow(
			fmt.Sprintf("%d", cfg.n), fmt.Sprintf("%d", cfg.k), cfg.pattern,
			pct(tl.Share(tl.Terminated)), pct(tl.Share(tl.Agreed)), pct(tl.Share(tl.Valid)),
			phaseCell(tl, ci2), f2(tl.Messages.Mean()),
		)
	}
	t.AddNote("paper: Figure 1 is k-resilient for k <= floor((n-1)/2); terminated/agreement/validity must all be 100%%")
	t.AddNote("validity is checked in the weak sense the paper proves: unanimous inputs among all processes force that decision")
	return []*Table{t}, nil
}

// crashPlan builds the crash pattern for one trial.
func crashPlan(pattern string, n, k int, seed uint64) faults.Plan {
	switch pattern {
	case "none":
		return faults.None()
	case "initially-dead":
		ids := make([]msg.ID, k)
		for i := range ids {
			ids[i] = msg.ID(n - 1 - i)
		}
		return faults.InitiallyDead(ids...)
	default: // "random"
		rng := rand.New(rand.NewPCG(seed, 0xc0ffee))
		return faults.Random(rng, n, k, 4)
	}
}

func randomInputs(n int, seed uint64) []msg.Value {
	rng := rand.New(rand.NewPCG(seed, 0xbeef))
	in := make([]msg.Value, n)
	for i := range in {
		in[i] = msg.Value(rng.IntN(2))
	}
	return in
}
