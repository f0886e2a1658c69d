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
// Two chains are provided, mirroring Sections 4.1 and 4.2:
//
//   - FailStop: n correct processes (the Section 4 worst case for fail-stop
//     faults is that nobody actually dies), majority adoption, decision at
//     strictly more than (n+k)/2 equal values.
//   - Malicious: n-k correct processes plus k balancing adversaries who
//     always contribute the current minority value.
//
// Adversary strength is selectable: Mixed lets the k adversarial messages
// compete for delivery like any others (each view is an (n-k)-sample of all
// n messages); Forced gives the adversary scheduling power so its k
// messages are always in every view (the remaining n-2k slots are sampled
// from the n-k correct messages). The paper's eq. (1) of Section 4.2 is the
// Forced flavour.
package mc

import (
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

// AdversaryModel selects how the malicious chain's balancing messages enter
// the views.
type AdversaryModel int

const (
	// Mixed samples each view uniformly from all n messages (correct plus
	// adversarial).
	Mixed AdversaryModel = iota + 1
	// Forced places all k adversarial messages in every view and samples
	// the remaining n-2k slots from the n-k correct messages.
	Forced
)

// String names the model.
func (m AdversaryModel) String() string {
	switch m {
	case Mixed:
		return "mixed"
	case Forced:
		return "forced"
	default:
		return fmt.Sprintf("AdversaryModel(%d)", int(m))
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

// FailStop simulates the Section 4.1 chain: n processes, nobody dies, each
// phase every process adopts the majority of a uniform (n-k)-view and
// decides on a strictly-more-than-(n+k)/2 supermajority.
//
// The chain caches its metric handles after the first run, so methods take
// pointer receivers; use one chain value per configuration and do not
// mutate Metrics after the first call. All methods are safe for concurrent
// use (the ensemble entry points fan a single chain value across workers).
type FailStop struct {
	N, K int
	// Metrics, when non-nil, receives chain accounting under the
	// "mc.failstop." prefix (steps, hypergeometric draws, absorption and
	// decision phase histograms).
	Metrics *metrics.Registry

	// met caches the resolved metric handles so the per-phase hot path does
	// not re-enter the registry (mutex + map lookups) on every Step. Racing
	// initializations store equivalent values, so no extra ordering is
	// needed.
	met atomic.Pointer[chainMetrics]
}

// handles returns the cached metric handles, resolving them on first use.
func (c *FailStop) handles() *chainMetrics {
	if m := c.met.Load(); m != nil {
		return m
	}
	m := newChainMetrics(c.Metrics, "failstop")
	c.met.Store(m)
	return m
}

// Validate checks parameters.
func (c *FailStop) Validate() error {
	if c.N < 1 || c.K < 0 || c.K >= c.N {
		return fmt.Errorf("mc: invalid fail-stop chain n=%d k=%d", c.N, c.K)
	}
	return nil
}

// Absorbed reports whether state i (number of processes with value 1) lies
// in the absorbing region of Section 4.1: i < (n-k)/2 guarantees collapse to
// all-zeros in one phase, i > (n+k)/2 guarantees collapse to all-ones.
// (With k = n/3 these are the paper's regions [0, n/3) and (2n/3, n].)
func (c *FailStop) Absorbed(i int) bool {
	return quorum.BelowHalfNMinusK(i, c.N, c.K) || quorum.ExceedsHalfNPlusK(i, c.N, c.K)
}

// Step simulates one phase from state ones and returns the outcome.
func (c *FailStop) Step(ones int, rng *rand.Rand) (StepOutcome, error) {
	return c.step(ones, rng, c.handles())
}

func (c *FailStop) step(ones int, rng *rand.Rand, met *chainMetrics) (StepOutcome, error) {
	views, err := c.viewSamplers(ones)
	if err != nil {
		return StepOutcome{}, err
	}
	return stepViews(c.N, c.K, c.N, views, rng, met), nil
}

// viewSamplers builds the per-view sampler for the given state: every view
// is a uniform (n-k)-sample of all n values.
func (c *FailStop) viewSamplers(ones int) (*viewSampler, error) {
	lo, err := dist.NewHGSampler(dist.Hypergeometric{Pop: c.N, Success: ones, Draw: quorum.WaitCount(c.N, c.K)})
	return &viewSampler{lo: lo}, err
}

// AbsorptionRun simulates phases from the given start state until the chain
// enters the absorbing region, returning the number of phases taken.
// maxPhases caps the run (0 = 10000).
func (c *FailStop) AbsorptionRun(start int, rng *rand.Rand, maxPhases int) (int, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if start < 0 || start > c.N {
		return 0, fmt.Errorf("mc: start state %d outside 0..%d", start, c.N)
	}
	return absorb(start, maxPhases, c.Absorbed, c.step, rng, c.handles())
}

// DecisionRun simulates the majority-variant protocol per process, exactly
// under the Section 4 view model: each phase, every undecided process draws
// a uniform (n-k)-view of the current values (decided processes keep
// broadcasting their pinned decision), adopts the majority, and decides on a
// strictly-more-than-(n+k)/2 supermajority. It returns the phase at which
// the last process decided (phases are counted from 1) and the common
// decision. It requires k < n/3 so the decision threshold is reachable.
func (c *FailStop) DecisionRun(start int, rng *rand.Rand, maxPhases int) (phases int, decidedOnes bool, err error) {
	if err := c.Validate(); err != nil {
		return 0, false, err
	}
	if c.N < quorum.MinProcesses(c.K, quorum.Malicious) {
		return 0, false, fmt.Errorf("mc: decision threshold unreachable for n=%d k=%d (need 3k < n)", c.N, c.K)
	}
	if start < 0 || start > c.N {
		return 0, false, fmt.Errorf("mc: start state %d outside 0..%d", start, c.N)
	}
	return decide(c.N, c.K, c.N, start, maxPhases, c.viewSamplers, rng, c.handles())
}

// Malicious simulates the Section 4.2 chain: n-k correct processes plus k
// balancing adversaries.
//
// Like FailStop, the chain caches its metric handles after the first run:
// use one chain value per configuration, do not mutate Metrics after the
// first call, and prefer pointer passing.
type Malicious struct {
	N, K  int
	Model AdversaryModel
	// Metrics, when non-nil, receives chain accounting under the
	// "mc.malicious." prefix.
	Metrics *metrics.Registry

	// met caches the resolved metric handles; see FailStop.met.
	met atomic.Pointer[chainMetrics]
}

// handles returns the cached metric handles, resolving them on first use.
func (c *Malicious) handles() *chainMetrics {
	if m := c.met.Load(); m != nil {
		return m
	}
	m := newChainMetrics(c.Metrics, "malicious")
	c.met.Store(m)
	return m
}

// Validate checks parameters: the balancing-adversary chain needs a correct
// majority, n >= 2k+1 (the fail-stop resilience bound).
func (c *Malicious) Validate() error {
	if c.N < 1 || c.K < 0 || c.N < quorum.MinProcesses(c.K, quorum.FailStop) {
		return fmt.Errorf("mc: invalid malicious chain n=%d k=%d", c.N, c.K)
	}
	if c.Model != Mixed && c.Model != Forced {
		return fmt.Errorf("mc: invalid adversary model %d", int(c.Model))
	}
	return nil
}

// Correct returns the number of correct processes, n-k.
func (c *Malicious) Correct() int { return c.N - c.K }

// Absorbed reports whether state i (correct processes holding 1) is in the
// paper's absorbing region: i < (n-3k)/2 or i > (n+k)/2 (Section 4.2).
func (c *Malicious) Absorbed(i int) bool {
	return quorum.BelowHalfNMinus3K(i, c.N, c.K) || quorum.ExceedsHalfNPlusK(i, c.N, c.K)
}

// Step simulates one phase from state ones (correct processes holding 1).
func (c *Malicious) Step(ones int, rng *rand.Rand) (StepOutcome, error) {
	return c.step(ones, rng, c.handles())
}

func (c *Malicious) step(ones int, rng *rand.Rand, met *chainMetrics) (StepOutcome, error) {
	views, err := c.viewSamplers(ones)
	if err != nil {
		return StepOutcome{}, err
	}
	return stepViews(c.N, c.K, c.Correct(), views, rng, met), nil
}

// viewSampler draws one process's count of 1-valued messages among its
// n-k-message view. The fail-stop chain samples lo alone; the malicious
// chain draws the randomized balancing adversary's votes independently per
// view (the paper's Section 4.2 model; see markov.MixedW).
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
func (c *Malicious) viewSamplers(ones int) (*viewSampler, error) {
	correct := c.Correct()
	draw := quorum.WaitCount(c.N, c.K)
	forced := c.Model == Forced
	lo, pHi := markov.BalancingMix(c.N, c.K, ones, forced)
	v := &viewSampler{pHi: pHi}
	//lint:allow hotalloc per-phase sampler construction; cost is dominated by the HG table build
	build := func(advOnes int) (*dist.HGSampler, int, error) {
		if forced {
			s, err := dist.NewHGSampler(dist.Hypergeometric{Pop: correct, Success: ones, Draw: draw - c.K})
			return s, advOnes, err
		}
		s, err := dist.NewHGSampler(dist.Hypergeometric{Pop: c.N, Success: ones + advOnes, Draw: draw})
		return s, 0, err
	}
	var err error
	v.lo, v.fixedLo, err = build(lo)
	if err != nil {
		return nil, err
	}
	if pHi > 0 {
		v.hi, v.fixedHi, err = build(lo + 1)
		if err != nil {
			return nil, err
		}
	}
	return v, nil
}

// AbsorptionRun simulates phases until the chain enters the absorbing
// region, returning the number of phases taken.
func (c *Malicious) AbsorptionRun(start int, rng *rand.Rand, maxPhases int) (int, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if start < 0 || start > c.Correct() {
		return 0, fmt.Errorf("mc: start state %d outside 0..%d", start, c.Correct())
	}
	return absorb(start, maxPhases, c.Absorbed, c.step, rng, c.handles())
}

// DecisionRun simulates the malicious-case protocol per correct process
// under the Section 4.2 view model, with the balancing adversary active
// every phase. It returns the phase at which the last correct process
// decided (counted from 1) and the common decision. It requires a
// configuration in which the decision threshold is reachable
// (n - k > (n+k)/2, i.e. 3k < n).
func (c *Malicious) DecisionRun(start int, rng *rand.Rand, maxPhases int) (phases int, decidedOnes bool, err error) {
	if err := c.Validate(); err != nil {
		return 0, false, err
	}
	if c.N < quorum.MinProcesses(c.K, quorum.Malicious) {
		return 0, false, fmt.Errorf("mc: decision threshold unreachable for n=%d k=%d (need 3k < n)", c.N, c.K)
	}
	if start < 0 || start > c.Correct() {
		return 0, false, fmt.Errorf("mc: start state %d outside 0..%d", start, c.Correct())
	}
	return decide(c.N, c.K, c.Correct(), start, maxPhases, c.viewSamplers, rng, c.handles())
}

// stepViews is one phase of either chain: each of pop processes draws its
// view's 1-count from views, adopts the majority and counts toward a
// decision on a strictly-more-than-(n+k)/2 supermajority.
func stepViews(n, k, pop int, views *viewSampler, rng *rand.Rand, met *chainMetrics) StepOutcome {
	draw := quorum.WaitCount(n, k)
	met.steps.Inc()
	met.draws.Add(int64(pop))
	var out StepOutcome
	for p := 0; p < pop; p++ {
		view1 := views.sample(rng)
		view0 := draw - view1
		if view1 > view0 {
			out.Ones++
		}
		if quorum.ExceedsHalfNPlusK(view1, n, k) {
			out.Decided1++
		}
		if quorum.ExceedsHalfNPlusK(view0, n, k) {
			out.Decided0++
		}
	}
	return out
}

// absorb steps either chain from start until it enters its absorbing
// region, returning the number of phases taken. maxPhases caps the run
// (0 = 10000).
func absorb(start, maxPhases int, absorbed func(int) bool, step func(int, *rand.Rand, *chainMetrics) (StepOutcome, error), rng *rand.Rand, met *chainMetrics) (int, error) {
	if maxPhases <= 0 {
		maxPhases = 10000
	}
	state := start
	for t := 0; t < maxPhases; t++ {
		if absorbed(state) {
			met.absorptionRuns.Inc()
			met.absorptionPhases.Observe(float64(t))
			return t, nil
		}
		out, err := step(state, rng, met)
		if err != nil {
			return 0, err
		}
		state = out.Ones
	}
	return maxPhases, fmt.Errorf("mc: no absorption within %d phases", maxPhases)
}

// decide is either chain's per-process decision run: pop processes, the
// first start of them holding 1. Each phase every undecided process draws a
// view from views(ones) (decided processes keep broadcasting their pinned
// decision), adopts the majority, and decides on a strictly-more-than-
// (n+k)/2 supermajority. It returns the phase at which the last process
// decided (counted from 1) and the common decision. maxPhases caps the run
// (0 = 100000).
func decide(n, k, pop, start, maxPhases int, views func(ones int) (*viewSampler, error), rng *rand.Rand, met *chainMetrics) (int, bool, error) {
	if maxPhases <= 0 {
		maxPhases = 100000
	}
	draw := quorum.WaitCount(n, k)
	values := make([]bool, pop) // true = 1
	for p := 0; p < start; p++ {
		values[p] = true
	}
	decided := make([]bool, pop)
	var sawDecision0, sawDecision1 bool
	for t := 1; t <= maxPhases; t++ {
		ones := 0
		for _, v := range values {
			if v {
				ones++
			}
		}
		sampler, err := views(ones)
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
			case quorum.ExceedsHalfNPlusK(view1, n, k):
				decided[p] = true
				values[p] = true
				sawDecision1 = true
			case quorum.ExceedsHalfNPlusK(view0, n, k):
				decided[p] = true
				values[p] = false
				sawDecision0 = true
			default:
				values[p] = view1 > view0
				remaining++
			}
		}
		if sawDecision0 && sawDecision1 {
			return 0, false, fmt.Errorf("mc: agreement violated at phase %d (n=%d k=%d)", t, n, k)
		}
		if remaining == 0 {
			met.decisionRuns.Inc()
			met.decisionPhases.Observe(float64(t))
			return t, sawDecision1, nil
		}
	}
	return maxPhases, sawDecision1, fmt.Errorf("mc: no decision within %d phases", maxPhases)
}
