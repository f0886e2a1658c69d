package resilient

import (
	"fmt"

	"resilient/internal/markov"
	"resilient/internal/mc"
	"resilient/internal/spawn"
	"resilient/internal/stats"
)

// ChainAnalysis holds the exact Section 4 Markov results for one
// configuration.
type ChainAnalysis struct {
	// N and K are the configuration.
	N, K int
	// FromBalanced is the exact expected number of phases to absorption
	// starting from the balanced state (the slowest start).
	FromBalanced float64
	// ByState is the expected absorption time from every chain state.
	ByState []float64
}

// AnalyzeFailStop solves the Section 4.1 chain exactly: the expected number
// of phases until the system's value distribution collapses, with n
// processes, fault parameter k, and nobody actually dying (the fail-stop
// worst case of Section 4).
func AnalyzeFailStop(n, k int) (*ChainAnalysis, error) {
	return analyze(markov.Chain{N: n, K: k, Model: markov.FailStop})
}

// AnalyzeMalicious solves the Section 4.2 chain exactly: n-k correct
// processes against k balancing adversaries. forced selects the paper's
// adversary model, in which the k adversarial messages appear in every view.
func AnalyzeMalicious(n, k int, forced bool) (*ChainAnalysis, error) {
	return analyze(markov.Chain{N: n, K: k, Model: markov.Adversary(forced)})
}

func analyze(c markov.Chain) (*ChainAnalysis, error) {
	byState, err := c.ExpectedAbsorption()
	if err != nil {
		return nil, err
	}
	return &ChainAnalysis{N: c.N, K: c.K, FromBalanced: byState[c.Balanced()], ByState: byState}, nil
}

// FailStopPhaseBound evaluates the paper's closed-form eq. (13) bound on the
// expected phases to absorption for the fail-stop chain, with band parameter
// l. The paper's choice l = sqrt(1.5) makes the bound < 7 for every n.
func FailStopPhaseBound(n int, l float64) float64 {
	return markov.CollapsedBound(n, l)
}

// DefaultBandL is the paper's band parameter l = sqrt(1.5).
var DefaultBandL = markov.DefaultL

// MaliciousPhaseBound evaluates the Section 4.2 bound 1/(2*Phi(l)) on the
// expected phases to absorption with k = l*sqrt(n)/2 balancing adversaries.
func MaliciousPhaseBound(l float64) float64 {
	return markov.MaliciousBound(l)
}

// Estimate is a Monte-Carlo estimate with its sampling error.
type Estimate struct {
	// Mean is the sample mean and CI95 the half-width of its 95%
	// confidence interval.
	Mean, CI95 float64
	// Min and Max are the extreme samples; Trials the sample count.
	Min, Max float64
	Trials   int
}

// String renders the estimate.
func (e Estimate) String() string {
	return fmt.Sprintf("%.2f ± %.2f (n=%d)", e.Mean, e.CI95, e.Trials)
}

// EstimateFailStopAbsorption estimates, by simulation under the Section 4
// view model, the expected phases to absorption of the fail-stop chain from
// the balanced start.
func EstimateFailStopAbsorption(n, k, trials int, seed uint64) (Estimate, error) {
	return estimate(&mc.Chain{Chain: markov.Chain{N: n, K: k, Model: markov.FailStop}}, trials, seed)
}

// EstimateMaliciousAbsorption estimates the expected phases to absorption of
// the Section 4.2 chain (k balancing adversaries) from the balanced start.
// forced selects the paper's always-delivered adversary model.
func EstimateMaliciousAbsorption(n, k, trials int, forced bool, seed uint64) (Estimate, error) {
	return estimate(&mc.Chain{Chain: markov.Chain{N: n, K: k, Model: markov.Adversary(forced)}}, trials, seed)
}

func estimate(chain *mc.Chain, trials int, seed uint64) (Estimate, error) {
	rng := spawn.Rand(seed)
	var acc stats.Accumulator
	for t := 0; t < trials; t++ {
		phases, err := chain.AbsorptionRun(chain.Balanced(), rng)
		if err != nil {
			return Estimate{}, err
		}
		acc.Add(float64(phases))
	}
	s := acc.Summarize()
	return Estimate{Mean: s.Mean, CI95: s.CI95, Min: s.Min, Max: s.Max, Trials: s.N}, nil
}

// DecisionSplit computes, for every possible initial count of 1-valued
// inputs, the probability that consensus lands on 1 in the Section 4.1
// chain -- the quantitative form of the paper's remark that "the consensus
// value is still likely to be equal to the majority of the initial input
// values". The returned slice is indexed by the initial 1-count (0..n).
func DecisionSplit(n, k int) ([]float64, error) {
	return markov.Chain{N: n, K: k, Model: markov.FailStop}.AbsorptionSplit()
}
