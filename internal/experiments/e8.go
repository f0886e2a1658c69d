package experiments

import (
	"fmt"

	"resilient/internal/mc"
	"resilient/internal/proto"
	"resilient/internal/quorum"
)

// E8 reproduces the Section 6 comparison with [BenO83]: Ben-Or's protocol
// puts the randomness in the processes (a local coin) and pays an expected
// termination time that grows exponentially with n when k = Theta(n),
// whereas the Bracha-Toueg protocols lean on the message system's
// randomness and stay flat. Both protocols run in the same engine with the
// same fault budget k = floor((n-1)/2) and random inputs.
func E8(p Params) ([]*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "Ben-Or [BenO83] vs Figure 1: rounds/phases to full decision, k = floor((n-1)/2)",
		Source: "Section 6 (and [BenO83])",
		Header: []string{"n", "k", "Ben-Or rounds ±95%", "Ben-Or max", "Fig 1 phases ±95%", "Fig 1 max"},
	}
	sizes := []int{5, 7, 9, 11, 13}
	if p.Quick {
		sizes = []int{5, 7}
	}
	var benorMeans []float64
	for row, n := range sizes {
		k := quorum.MaxFaults(n, quorum.FailStop)
		trials := p.trials()
		if trials > 150 {
			trials = 150 // Ben-Or's exponential tail dominates runtime
		}
		// Both protocols run the same seeds and inputs; every trial must
		// decide.
		tally := func(protocol proto.ID) (mc.Tally, error) {
			outs, err := runTrials(p, trials, func(tr int) mc.Trial {
				seed := p.seedFor(row, tr)
				return mc.Trial{Protocol: protocol, N: n, K: k, Inputs: randomInputs(n, seed), Seed: seed, MaxEvents: 50_000_000}
			})
			if err != nil {
				return mc.Tally{}, fmt.Errorf("E8 %v n=%d: %w", protocol, n, err)
			}
			tl := mc.TallyOf(outs)
			if tl.Terminated < tl.Trials {
				return tl, fmt.Errorf("E8 %v n=%d: %d of %d trials stalled", protocol, n, tl.Trials-tl.Terminated, tl.Trials)
			}
			return tl, nil
		}
		bo, err := tally(proto.BenOrCrash)
		if err != nil {
			return nil, err
		}
		f1, err := tally(proto.FailStop)
		if err != nil {
			return nil, err
		}
		benorMeans = append(benorMeans, bo.Phases.Mean())
		t.AddRow(
			fmt.Sprintf("%d", n), fmt.Sprintf("%d", k),
			ci2(bo.Phases), fmt.Sprintf("%.0f", bo.Phases.Max()),
			ci2(f1.Phases), fmt.Sprintf("%.0f", f1.Phases.Max()),
		)
	}
	growing := len(benorMeans) >= 2 && benorMeans[len(benorMeans)-1] > benorMeans[0]
	t.AddNote(fmt.Sprintf("paper: Ben-Or's expected time is exponential for k = Theta(n) while the message-system-randomized protocols stay flat; Ben-Or column growing: %v", growing))
	t.AddNote("resilience: Ben-Or's malicious variant needs 5k < n, Figure 2 only 3k < n -- the paper's other advantage")
	return []*Table{t}, nil
}
