// Package mc is the phase-level Monte Carlo engine for the Section 4
// performance analysis.
//
// Section 4 analyses the protocols under two simplifying assumptions: every
// process receives exactly n-k messages per phase, and "any set of n-k
// messages has the same probability of being received". Under those
// assumptions a phase is one step of a Markov chain over the number of
// processes holding value 1, and the per-process view is a hypergeometric
// sample. This package simulates exactly that process -- far faster than the
// message-level engine -- so measured absorption times are directly
// comparable to the analytic bounds of internal/markov.
//
// Chain runs the chain a markov.Chain describes, mirroring Sections 4.1 and
// 4.2:
//
//   - markov.FailStop (chain P): n correct processes (the Section 4 worst
//     case for fail-stop faults is that nobody actually dies), majority
//     adoption, decision at strictly more than (n+k)/2 equal values.
//   - markov.Mixed and markov.Forced (chain M): n-k correct processes plus k
//     balancing adversaries who always contribute the current minority
//     value. Mixed lets the k adversarial messages compete for delivery like
//     any others (each view is an (n-k)-sample of all n messages); Forced
//     gives the adversary scheduling power so its k messages are always in
//     every view (the remaining n-2k slots are sampled from the n-k correct
//     messages). The paper's eq. (1) of Section 4.2 is the Forced flavour.
package mc

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"

	"resilient/internal/dist"
	"resilient/internal/markov"
	"resilient/internal/metrics"
	"resilient/internal/quorum"
)

// chainMetrics holds the instrument handles for one chain run; all handles
// are nil (free no-ops) when no registry is attached.
type chainMetrics struct {
	steps            *metrics.Counter
	draws            *metrics.Counter
	absorptionRuns   *metrics.Counter
	decisionRuns     *metrics.Counter
	absorptionPhases *metrics.Histogram
	decisionPhases   *metrics.Histogram
}

func newChainMetrics(reg *metrics.Registry, chain string) *chainMetrics {
	if reg == nil {
		return &chainMetrics{}
	}
	m := reg.Scoped("mc." + chain + ".")
	return &chainMetrics{
		steps:            m.Counter("steps"),
		draws:            m.Counter("hg_draws"),
		absorptionRuns:   m.Counter("absorption_runs"),
		decisionRuns:     m.Counter("decision_runs"),
		absorptionPhases: m.Histogram("absorption_phases", metrics.PhaseBuckets()),
		decisionPhases:   m.Histogram("decision_phases", metrics.PhaseBuckets()),
	}
}

// StepOutcome summarizes one simulated phase.
type StepOutcome struct {
	// Ones is the number of (correct) processes holding value 1 after the
	// phase.
	Ones int
	// Decided0 and Decided1 count processes whose view crossed the decision
	// threshold for the respective value during the phase.
	Decided0, Decided1 int
}

// Chain simulates the Section 4 chain its markov.Chain describes: each
// phase every one of the Pop() counted processes adopts the majority of its
// (n-k)-view and decides on a strictly-more-than-(n+k)/2 supermajority.
//
// The chain caches its metric handles after the first run, so methods take
// pointer receivers; use one chain value per configuration and do not
// mutate Metrics after the first call. All methods are safe for concurrent
// use (the ensemble entry points fan a single chain value across workers).
type Chain struct {
	markov.Chain
	// Metrics, when non-nil, receives chain accounting under the
	// "mc.failstop." (chain P) or "mc.malicious." (chain M) prefix: steps,
	// hypergeometric draws, absorption and decision phase histograms.
	Metrics *metrics.Registry

	// met caches the resolved metric handles so the per-phase hot path does
	// not re-enter the registry (mutex + map lookups) on every Step. Racing
	// initializations store equivalent values, so no extra ordering is
	// needed.
	met atomic.Pointer[chainMetrics]
}

// handles returns the cached metric handles, resolving them on first use.
func (c *Chain) handles() *chainMetrics {
	if m := c.met.Load(); m != nil {
		return m
	}
	name := "malicious"
	if c.Model == markov.FailStop {
		name = "failstop"
	}
	m := newChainMetrics(c.Metrics, name)
	c.met.Store(m)
	return m
}

// Validate checks parameters (markov.Chain.Validate, reported as mc's).
func (c *Chain) Validate() error {
	if err := c.Chain.Validate(); err != nil {
		return fmt.Errorf("mc: %w", errors.Unwrap(err))
	}
	return nil
}

// Step simulates one phase from state ones and returns the outcome.
func (c *Chain) Step(ones int, rng *rand.Rand) (StepOutcome, error) {
	return c.step(ones, rng, c.handles())
}

func (c *Chain) step(ones int, rng *rand.Rand, met *chainMetrics) (StepOutcome, error) {
	views, err := c.viewSamplers(ones)
	if err != nil {
		return StepOutcome{}, err
	}
	draw, pop := quorum.WaitCount(c.N, c.K), c.Pop()
	met.steps.Inc()
	met.draws.Add(int64(pop))
	var out StepOutcome
	for p := 0; p < pop; p++ {
		view1 := views.sample(rng)
		view0 := draw - view1
		if view1 > view0 {
			out.Ones++
		}
		if quorum.ExceedsHalfNPlusK(view1, c.N, c.K) {
			out.Decided1++
		}
		if quorum.ExceedsHalfNPlusK(view0, c.N, c.K) {
			out.Decided0++
		}
	}
	return out, nil
}

// viewSampler draws one process's count of 1-valued messages among its
// n-k-message view. Chain P samples lo alone; chain M draws the randomized
// balancing adversary's votes independently per view (the paper's Section
// 4.2 model; see markov.MixedW).
type viewSampler struct {
	pHi     float64
	fixedLo int // adversarial ones added to the view when using lo
	fixedHi int
	lo, hi  *dist.HGSampler
}

func (v *viewSampler) sample(rng *rand.Rand) int {
	if v.pHi > 0 && rng.Float64() < v.pHi {
		return v.fixedHi + v.hi.Sample(rng)
	}
	return v.fixedLo + v.lo.Sample(rng)
}

// viewSamplers builds the per-view sampler for the given state.
func (c *Chain) viewSamplers(ones int) (*viewSampler, error) {
	var lo int
	var pHi float64
	if c.Model != markov.FailStop {
		lo, pHi = markov.BalancingMix(c.N, c.K, ones, c.Model == markov.Forced)
	}
	v := &viewSampler{pHi: pHi}
	var err error
	if v.lo, v.fixedLo, err = c.sampler(ones, lo); err != nil {
		return nil, err
	}
	if pHi > 0 {
		if v.hi, v.fixedHi, err = c.sampler(ones, lo+1); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// sampler draws the 1-count of a view's sampled messages when ones counted
// processes hold 1 and the adversary sends advOnes ones; fixed is the count
// the view holds beyond the sample. Under Forced the sample is the n-2k
// correct slots and the adversary's ones are fixed; otherwise the whole
// view is a sample of all n messages.
func (c *Chain) sampler(ones, advOnes int) (s *dist.HGSampler, fixed int, err error) {
	draw := quorum.WaitCount(c.N, c.K)
	if c.Model == markov.Forced {
		s, err = dist.NewHGSampler(dist.Hypergeometric{Pop: c.Pop(), Success: ones, Draw: draw - c.K})
		return s, advOnes, err
	}
	s, err = dist.NewHGSampler(dist.Hypergeometric{Pop: c.N, Success: ones + advOnes, Draw: draw})
	return s, 0, err
}

// The phase caps guard a run against non-termination.
const (
	absorptionPhaseCap = 10000
	decisionPhaseCap   = 100000
)

// AbsorptionRun simulates phases from the given start state until the chain
// enters the absorbing region, returning the number of phases taken. A run
// that has not absorbed after absorptionPhaseCap phases is an error.
func (c *Chain) AbsorptionRun(start int, rng *rand.Rand) (int, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if start < 0 || start > c.Pop() {
		return 0, fmt.Errorf("mc: start state %d outside 0..%d", start, c.Pop())
	}
	met := c.handles()
	state := start
	for t := 0; t < absorptionPhaseCap; t++ {
		if c.Absorbed(state) {
			met.absorptionRuns.Inc()
			met.absorptionPhases.Observe(float64(t))
			return t, nil
		}
		out, err := c.step(state, rng, met)
		if err != nil {
			return 0, err
		}
		state = out.Ones
	}
	return absorptionPhaseCap, fmt.Errorf("mc: no absorption within %d phases", absorptionPhaseCap)
}

// DecisionRun simulates the protocol per counted process, exactly under the
// Section 4 view model (with chain M's balancing adversary active every
// phase): the first start processes hold 1, and each phase every undecided
// process draws a view of the current values (decided processes keep
// broadcasting their pinned decision), adopts the majority, and decides on
// a strictly-more-than-(n+k)/2 supermajority. It returns the phase at which
// the last process decided (phases are counted from 1) and the common
// decision. It requires 3k < n so the decision threshold is reachable. A
// run with processes still undecided after decisionPhaseCap phases is an
// error.
func (c *Chain) DecisionRun(start int, rng *rand.Rand) (phases int, decidedOnes bool, err error) {
	if err := c.Validate(); err != nil {
		return 0, false, err
	}
	if c.N < quorum.MinProcesses(c.K, quorum.Malicious) {
		return 0, false, fmt.Errorf("mc: decision threshold unreachable for n=%d k=%d (need 3k < n)", c.N, c.K)
	}
	pop := c.Pop()
	if start < 0 || start > pop {
		return 0, false, fmt.Errorf("mc: start state %d outside 0..%d", start, pop)
	}
	met := c.handles()
	draw := quorum.WaitCount(c.N, c.K)
	values := make([]bool, pop) // true = 1
	for p := 0; p < start; p++ {
		values[p] = true
	}
	decided := make([]bool, pop)
	var sawDecision0, sawDecision1 bool
	for t := 1; t <= decisionPhaseCap; t++ {
		ones := 0
		for _, v := range values {
			if v {
				ones++
			}
		}
		sampler, err := c.viewSamplers(ones)
		if err != nil {
			return 0, false, err
		}
		met.steps.Inc()
		remaining := 0
		for p := 0; p < pop; p++ {
			if decided[p] {
				continue
			}
			met.draws.Inc()
			view1 := sampler.sample(rng)
			view0 := draw - view1
			switch {
			case quorum.ExceedsHalfNPlusK(view1, c.N, c.K):
				decided[p] = true
				values[p] = true
				sawDecision1 = true
			case quorum.ExceedsHalfNPlusK(view0, c.N, c.K):
				decided[p] = true
				values[p] = false
				sawDecision0 = true
			default:
				values[p] = view1 > view0
				remaining++
			}
		}
		if sawDecision0 && sawDecision1 {
			return 0, false, fmt.Errorf("mc: agreement violated at phase %d (n=%d k=%d)", t, c.N, c.K)
		}
		if remaining == 0 {
			met.decisionRuns.Inc()
			met.decisionPhases.Observe(float64(t))
			return t, sawDecision1, nil
		}
	}
	return decisionPhaseCap, sawDecision1, fmt.Errorf("mc: no decision within %d phases", decisionPhaseCap)
}
