package experiments

import (
	"fmt"
	"math/rand/v2"

	"resilient/internal/markov"
	"resilient/internal/mc"
	"resilient/internal/msg"
	"resilient/internal/proto"
	"resilient/internal/quorum"
	"resilient/internal/spawn"
)

// E1 reproduces the Section 4.1 fail-stop analysis.
//
// Table E1a compares, for k = n/3 (the paper's parametrization), the exact
// expected absorption time of the Markov chain P from the balanced state
// against the paper's collapsed 3-state bound (eq. 13) and a Monte-Carlo
// measurement under the Section 4 view model. The paper's headline -- the
// bound is below 7 phases for every n -- must hold in every row.
//
// Table E1b measures the protocol-level quantity: phases until every
// process has decided in the majority variant, via Monte Carlo (large n)
// and via the full message-level engine (small n).
func E1(p Params) ([]*Table, error) {
	sizes := []int{30, 60, 90, 150, 300}
	if p.Quick {
		sizes = []int{30, 60}
	}

	ta := &Table{
		ID:     "E1a",
		Title:  "fail-stop chain: expected phases to absorption from the balanced state (k = n/3)",
		Source: "Section 4.1, eqs. (1)-(13)",
		Header: []string{"n", "k", "exact E[T]", "MC E[T] ±95%", "P[T > 7]", "bound eq.(13)", "bound < 7"},
	}
	for row, n := range sizes {
		k := n / 3
		chain := &mc.Chain{Chain: markov.Chain{N: n, K: k, Model: markov.FailStop}, Metrics: p.Metrics}
		exact, err := chain.ExpectedFromBalanced()
		if err != nil {
			return nil, fmt.Errorf("E1a n=%d: %w", n, err)
		}
		acc, err := chainRuns(p, row, 7, func(rng *rand.Rand) (int, error) {
			return chain.AbsorptionRun(chain.Balanced(), rng)
		})
		if err != nil {
			return nil, fmt.Errorf("E1a n=%d: %w", n, err)
		}
		bound := markov.CollapsedBound(n, markov.DefaultL)
		tail, err := chain.TailFromBalanced(7)
		if err != nil {
			return nil, fmt.Errorf("E1a tail n=%d: %w", n, err)
		}
		ta.AddRow(
			fmt.Sprintf("%d", n), fmt.Sprintf("%d", k),
			f3(exact),
			ci3(acc),
			fmt.Sprintf("%.2e", tail[7]),
			f3(bound),
			fmt.Sprintf("%v", bound < 7),
		)
	}
	ta.AddNote("paper: expected phases from the balanced state < 7 for l^2 = 1.5, any n")
	ta.AddNote("P[T > 7] is the exact probability of exceeding the paper's bound: the run-length distribution, not just its mean, sits far inside it")
	ta.AddNote("exact E[T] solves N = (I-Q)^-1 on the full chain; the eq.(13) bound must dominate it")

	tb := &Table{
		ID:     "E1b",
		Title:  "majority variant: phases until every process decides (balanced inputs)",
		Source: "Section 4.1 protocol, decision threshold > (n+k)/2",
		Header: []string{"n", "k", "MC phases ±95%", "engine phases ±95%", "engine agreement"},
	}
	const engineN = 30 // the message-level engine runs this size only
	scoped := p.Metrics.Scoped("majority.")
	for row, n := range sizes {
		k := quorum.MaxFaults(n, quorum.Malicious) // 3k < n for reachability
		chain := &mc.Chain{Chain: markov.Chain{N: n, K: k, Model: markov.FailStop}, Metrics: p.Metrics}
		mcAcc, err := chainRuns(p, 100+row, 7, func(rng *rand.Rand) (int, error) {
			phases, _, err := chain.DecisionRun(chain.Balanced(), rng)
			return phases, err
		})
		if err != nil {
			return nil, fmt.Errorf("E1b n=%d: %w", n, err)
		}
		engCell, agreeCell := "-", "-"
		if n == engineN {
			inputs := make([]msg.Value, n)
			for i := range inputs {
				inputs[i] = msg.Value(i % 2)
			}
			outs, err := runTrials(p, max(p.trials()/5, 5), func(tr int) spawn.Scenario {
				return spawn.Scenario{Protocol: proto.Majority, N: n, K: k, Inputs: inputs, Seed: p.seedFor(200+row, tr), Metrics: scoped}
			})
			if err != nil {
				return nil, fmt.Errorf("E1b engine n=%d: %w", n, err)
			}
			tl := mc.TallyOf(outs)
			engCell, agreeCell = phaseCell(tl, ci3), pct(tl.Share(tl.Agreed))
		}
		tb.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", k), ci3(mcAcc), engCell, agreeCell)
	}
	tb.AddNote("MC uses the Section 4 uniform-view model; the engine measures the full message-level protocol")
	return []*Table{ta, tb}, nil
}
