package experiments

import (
	"fmt"
	"math/rand/v2"

	"resilient/internal/markov"
	"resilient/internal/mc"
	"resilient/internal/stats"
)

// E2 reproduces the Section 4.2 malicious-case analysis.
//
// Table E2a: for k = l*sqrt(n)/2 balancing adversaries, the expected phases
// to absorption from the balanced state is bounded by 1/(2*Phi(l)) in the
// paper's collapsed model. We report the bound, the exact chain solution
// under both adversary-delivery models, and Monte-Carlo measurements.
//
// Table E2b: the "constant for k = o(sqrt(n))" claim -- with fixed k the
// absorption time stays flat as n grows.
func E2(p Params) ([]*Table, error) {
	ta := &Table{
		ID:     "E2a",
		Title:  "malicious chain: expected phases to absorption, k = l*sqrt(n)/2 balancing adversaries (n = 100)",
		Source: "Section 4.2, eqs. (1)-(2)",
		Header: []string{"l", "k", "bound 1/(2*Phi(l))", "exact (forced)", "exact (mixed)", "MC forced ±95%", "MC mixed ±95%"},
	}
	n := 100
	ls := []float64{0.5, 1.0, 1.5, 2.0}
	if p.Quick {
		ls = []float64{1.0, 2.0}
	}
	for row, l := range ls {
		k := markov.KForL(n, l)
		if k < 1 {
			k = 1
		}
		bound := markov.MaliciousBound(markov.LForK(n, k))
		forced := markov.Chain{N: n, K: k, Model: markov.Forced}
		mixed := markov.Chain{N: n, K: k, Model: markov.Mixed}
		exactForced, err := forced.ExpectedFromBalanced()
		if err != nil {
			return nil, fmt.Errorf("E2a l=%v: %w", l, err)
		}
		exactMixed, err := mixed.ExpectedFromBalanced()
		if err != nil {
			return nil, fmt.Errorf("E2a l=%v: %w", l, err)
		}
		mcF, err := e2MC(forced, p, 300+row)
		if err != nil {
			return nil, err
		}
		mcM, err := e2MC(mixed, p, 400+row)
		if err != nil {
			return nil, err
		}
		ta.AddRow(
			f2(markov.LForK(n, k)), fmt.Sprintf("%d", k),
			f3(bound), f3(exactForced), f3(exactMixed),
			ci3(mcF), ci3(mcM),
		)
	}
	ta.AddNote("paper: expected transitions to absorption bounded by 1/(2*Phi(l)) in the collapsed model")
	ta.AddNote("the exact chain resolves the full state space, so moderate deviations from the 2-state bound are expected; the shape (growth with l) must match")

	tb := &Table{
		ID:     "E2b",
		Title:  "malicious chain: k = o(sqrt(n)) gives constant absorption time (k = 2 fixed)",
		Source: "Section 4.2, closing remark",
		Header: []string{"n", "k", "exact (forced)", "MC forced ±95%"},
	}
	sizes := []int{64, 144, 256, 400}
	if p.Quick {
		sizes = []int{64, 144}
	}
	for row, nn := range sizes {
		k := 2
		forced := markov.Chain{N: nn, K: k, Model: markov.Forced}
		exact, err := forced.ExpectedFromBalanced()
		if err != nil {
			return nil, fmt.Errorf("E2b n=%d: %w", nn, err)
		}
		est, err := e2MC(forced, p, 500+row)
		if err != nil {
			return nil, err
		}
		tb.AddRow(fmt.Sprintf("%d", nn), fmt.Sprintf("%d", k), f3(exact), ci3(est))
	}
	tb.AddNote("paper: for k = o(sqrt(n)) the expected absorption time is constant; the column must stay flat as n grows")
	return []*Table{ta, tb}, nil
}

func e2MC(desc markov.Chain, p Params, rowSeed int) (stats.Accumulator, error) {
	chain := &mc.Chain{Chain: desc, Metrics: p.Metrics}
	acc, err := chainRuns(p, rowSeed, 11, func(rng *rand.Rand) (int, error) {
		return chain.AbsorptionRun(chain.Balanced(), rng)
	})
	if err != nil {
		return acc, fmt.Errorf("E2 MC n=%d k=%d: %w", chain.N, chain.K, err)
	}
	return acc, nil
}
