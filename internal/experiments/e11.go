package experiments

import (
	"fmt"
	"math/rand/v2"

	"resilient/internal/markov"
	"resilient/internal/mc"
	"resilient/internal/msg"
	"resilient/internal/policy"
	"resilient/internal/proto"
	"resilient/internal/sched"
	"resilient/internal/sweep"
)

// E11 is the ablation study (not a table from the paper): it probes the
// design choices DESIGN.md calls out.
//
// E11a varies the delivery scheduler under Figure 1. The paper's
// convergence argument needs only that every (n-k)-view has positive
// probability (Section 2.3); the measured phase counts must therefore be
// stable across any scheduler with that property, degrading gracefully
// under a heavily skewed one.
//
// E11b computes the analytic decision split B = N*R of the Section 4.1
// chain -- the probability that consensus lands on 1 as a function of the
// initial 1-count -- against per-process simulation, quantifying the
// paper's "the consensus value is still likely to be equal to the majority
// of the initial input values".
func E11(p Params) ([]*Table, error) {
	ta := &Table{
		ID:     "E11a",
		Title:  "ablation: Figure 1 phase count vs delivery scheduler (n=9, k=4)",
		Source: "Section 2.3 assumption (ablation, not a paper table)",
		Header: []string{"scheduler", "terminated", "agreement", "phases ±95%"},
	}
	n, k := 9, 4
	schedulers := []struct {
		name string
		s    sched.Scheduler
	}{
		{"uniform[0.1,1]", sched.Uniform{Min: 0.1, Max: 1}},
		{"uniform[0.9,1.1] (near-sync)", sched.Uniform{Min: 0.9, Max: 1.1}},
		{"exponential(mean=1)", sched.Exponential{Mean: 1}},
		{"constant(1) (lock-step)", sched.Constant{D: 1}},
		{"skewed x10 on 3 processes", sched.Skewed{
			Base:       sched.Uniform{Min: 0.1, Max: 1},
			SlowSet:    map[msg.ID]bool{0: true, 1: true, 2: true},
			SlowFactor: 10,
		}},
	}
	for row, sc := range schedulers {
		outs, err := runTrials(p, p.trials(), func(tr int) mc.Trial {
			seed := p.seedFor(600+row, tr)
			return mc.Trial{
				Protocol: proto.FailStop, N: n, K: k, Inputs: randomInputs(n, seed),
				Policy: policy.FromScheduler(sc.s),
				Seed:   seed,
			}
		})
		if err != nil {
			return nil, fmt.Errorf("E11a %s: %w", sc.name, err)
		}
		tl := mc.TallyOf(outs)
		ta.AddRow(sc.name, pct(tl.Share(tl.Terminated)), pct(tl.Share(tl.Agreed)), phaseCell(tl, ci2))
	}
	ta.AddNote("convergence must hold under every scheduler (the Section 2.3 epsilon-assumption is all the proofs need); only the constant matters, not the delay law")

	tb := &Table{
		ID:     "E11b",
		Title:  "analytic decision split B = N*R vs simulation (majority variant, n=30, k=9)",
		Source: "Section 2.3/3.3 majority-approximation remarks (analytic companion)",
		Header: []string{"initial 1s", "analytic P(decide 1)", "simulated P(decide 1)"},
	}
	nn, kk := 30, 9
	chain := markov.FailStop{N: nn, K: kk}
	split, err := chain.AbsorptionSplit()
	if err != nil {
		return nil, fmt.Errorf("E11b: %w", err)
	}
	sim := mc.FailStop{N: nn, K: kk}
	starts := []int{6, 11, 13, 15, 17, 19, 24}
	if p.Quick {
		starts = []int{11, 15, 19}
	}
	for row, start := range starts {
		trials := p.trials() * 4
		decisions, err := sweep.Run(trials, p.workers(), func(tr int) (bool, error) {
			rng := rand.New(rand.NewPCG(p.seedFor(700+row, tr), 5))
			_, decided1, err := sim.DecisionRun(start, rng, 0)
			if err != nil {
				return false, fmt.Errorf("E11b start %d trial %d: %w", start, tr, err)
			}
			return decided1, nil
		})
		if err != nil {
			return nil, err
		}
		ones := 0
		for _, d := range decisions {
			if d {
				ones++
			}
		}
		tb.AddRow(
			fmt.Sprintf("%d/%d", start, nn),
			f3(split[start]),
			f3(float64(ones)/float64(trials)),
		)
	}
	tb.AddNote("the analytic column comes from the fundamental-matrix split of the exact chain; the simulated column from per-process decision runs under the same view model")
	return []*Table{ta, tb}, nil
}
