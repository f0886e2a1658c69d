// Package markov implements the Section 4 performance analysis of the paper
// analytically: the Markov chains describing the protocols' per-phase value
// dynamics, their exact expected absorption times via the fundamental matrix
// N = (I-Q)^-1 ([Isaa76], eq. (12)), and the paper's closed-form collapsed
// bounds -- eq. (13) for the fail-stop case (expected phases < 7 for
// l^2 = 1.5) and 1/(2*Phi(l)) for the malicious case (Section 4.2 eq. (2)).
package markov

import (
	"fmt"
	"math"

	"resilient/internal/dist"
	"resilient/internal/matrix"
	"resilient/internal/quorum"
)

// Model selects a Section 4 chain and, for chain M, how the adversary's
// messages enter the views. The zero Model is invalid.
type Model int

const (
	// FailStop is chain P of Section 4.1: n processes, nobody dies (the
	// Section 4 worst case for fail-stop faults), and every view is a
	// uniform (n-k)-sample of all n values.
	FailStop Model = iota + 1
	// Mixed is chain M of Section 4.2 with the k adversarial messages
	// competing for delivery: every view is an (n-k)-sample of all n
	// messages, correct and adversarial.
	Mixed
	// Forced is chain M with the k adversarial messages in every view; the
	// remaining n-2k slots are sampled from the n-k correct messages. The
	// paper's eq. (1) of Section 4.2 is this model.
	Forced
)

// Adversary returns chain M's model: Forced when forced, Mixed otherwise.
func Adversary(forced bool) Model {
	if forced {
		return Forced
	}
	return Mixed
}

// Chain is one Section 4 chain. States 0..Pop() count the processes holding
// value 1 -- all n of them in chain P, the n-k correct ones in chain M,
// whose k malicious processes try "to balance the number of 1- and
// 0-messages". In each phase every counted process adopts the majority of
// its (n-k)-view, which holds a strict majority of ones with probability
// W(i).
type Chain struct {
	N, K  int
	Model Model
}

// Validate checks parameters: chain P needs k < n, chain M n > 3k (the
// malicious resilience bound, Figure 2's), without which its upper absorbing
// region 2i > n+k, i <= n-k, is empty and no run from the balanced state
// absorbs there. The error wraps the reason without its "markov: " prefix,
// for callers that give it their own.
func (c Chain) Validate() error {
	var why error
	switch c.Model {
	case FailStop:
		if c.N < 1 || c.K < 0 || c.K >= c.N {
			why = fmt.Errorf("invalid fail-stop chain n=%d k=%d", c.N, c.K)
		}
	case Mixed, Forced:
		if c.N < 1 || c.K < 0 || c.N < quorum.MinProcesses(c.K, quorum.Malicious) {
			why = fmt.Errorf("invalid malicious chain n=%d k=%d (needs n > 3k)", c.N, c.K)
		}
	default:
		why = fmt.Errorf("invalid adversary model %d", int(c.Model))
	}
	if why != nil {
		return fmt.Errorf("markov: %w", why)
	}
	return nil
}

// Pop returns the number of processes the chain counts: n in chain P, the
// n-k correct ones in chain M.
func (c Chain) Pop() int {
	if c.Model == FailStop {
		return c.N
	}
	return c.N - c.K
}

// Balanced returns the balanced state Pop()/2, the chain's slowest start.
func (c Chain) Balanced() int { return c.Pop() / 2 }

// W returns w_i of eq. (1): the probability that one process's view of a
// system in state i holds a strict majority of ones. In chain P that is
// P[X_(n, i, n-k) > (n-k)/2] with X hypergeometric. In chain M it is
// MixedW, against the randomized balancing adversary: per the paper's
// model, each process's view -- including the adversarial votes in it -- is
// drawn independently, which pins W to exactly 1/2 across the central band
// and yields the chain M of Section 4.2 whose near-centre rows equal
// P_{n/2}. (The real Figure 2 protocol is *better* than this: echo
// broadcast forces the adversary's accepted values to be common to all
// receivers in a phase, which herds the correct processes and speeds
// absorption up.)
func (c Chain) W(i int) float64 {
	if c.Model == FailStop {
		return viewMajorityProb(c.N, c.K, i, 0, false)
	}
	return MixedW(c.N, c.K, i, c.Model == Forced)
}

// TransitionRow returns row i of the transition matrix of eq. (1): the
// number of processes adopting 1 is Binomial(Pop(), W(i)), so
// P_{i,j} = C(pop, j) * w_i^j * (1-w_i)^(pop-j).
func (c Chain) TransitionRow(i int) []float64 {
	b := dist.Binomial{N: c.Pop(), P: c.W(i)}
	row := make([]float64, c.Pop()+1)
	for j := range row {
		row[j] = b.PMF(j)
	}
	return row
}

// Absorbed reports whether state i is in the absorbing region: above,
// 2i > n+k (collapse to all ones); below, 2i < n-k in chain P (Section
// 4.1; with k = n/3 the paper's regions are [0, n/3) and (2n/3, n]) and
// 2i < n-3k in chain M (Section 4.2).
func (c Chain) Absorbed(i int) bool {
	if quorum.ExceedsHalfNPlusK(i, c.N, c.K) {
		return true
	}
	if c.Model == FailStop {
		return quorum.BelowHalfNMinusK(i, c.N, c.K)
	}
	return quorum.BelowHalfNMinus3K(i, c.N, c.K)
}

// transientBlock is the part of the chain that N = (I-Q)^-1 works on.
type transientBlock struct {
	// states lists the non-absorbed states in ascending order and index
	// maps each of them to its position there.
	states []int
	index  map[int]int
	// q is the transition matrix among the transient states; rows[ti] is
	// the full row of states[ti].
	q    *matrix.Dense
	rows [][]float64
}

func (c Chain) transient() transientBlock {
	var b transientBlock
	b.index = make(map[int]int, c.Pop()+1)
	for i := 0; i <= c.Pop(); i++ {
		if !c.Absorbed(i) {
			b.index[i] = len(b.states)
			b.states = append(b.states, i)
		}
	}
	b.q = matrix.New(len(b.states), len(b.states))
	for ti, i := range b.states {
		r := c.TransitionRow(i)
		b.rows = append(b.rows, r)
		for j, p := range r {
			if tj, ok := b.index[j]; ok && p != 0 {
				b.q.Set(ti, tj, p)
			}
		}
	}
	return b
}

// ExpectedAbsorption computes the exact expected number of phases to reach
// the absorbing region from every state, by solving the fundamental matrix
// of the transient submatrix Q ([Isaa76], eq. (12)). The returned slice is
// indexed by state (absorbed states report 0).
func (c Chain) ExpectedAbsorption() ([]float64, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	b := c.transient()
	times := make([]float64, c.Pop()+1)
	if len(b.states) == 0 {
		return times, nil
	}
	abs, err := matrix.AbsorptionTimes(b.q)
	if err != nil {
		return nil, fmt.Errorf("markov: absorption solve (%d transient states): %w", len(b.states), err)
	}
	for ti, i := range b.states {
		// A transient state takes at least one phase to leave; a time that
		// is not positive is the solve's rounding swamping a near-singular
		// I-Q (chain M far past k = O(sqrt n)), not an answer.
		if !(abs[ti] > 0) || math.IsInf(abs[ti], 0) {
			return nil, fmt.Errorf("markov: absorption solve (%d transient states): ill-conditioned, E[T] from state %d came out %g", len(b.states), i, abs[ti])
		}
		times[i] = abs[ti]
	}
	return times, nil
}

// ExpectedFromBalanced returns the exact expected absorption time from the
// balanced state.
func (c Chain) ExpectedFromBalanced() (float64, error) {
	times, err := c.ExpectedAbsorption()
	if err != nil {
		return 0, err
	}
	return times[c.Balanced()], nil
}

// BalancingAdversaryOnes returns how many of the k adversarial messages
// carry value 1 under the Section 4 balancing strategy, given that
// correctOnes of the n-k correct processes currently hold 1. The adversary
// splits its votes so that the probability of a view adopting 1 lands as
// close to 1/2 as its k integer votes allow -- this realizes the paper's
// eq. (1) of Section 4.2, whose rows within k of the centre are pinned to
// the balanced row P_{n/2}. (Choosing the split by the resulting majority
// probability rather than the view mean also neutralizes the
// tie-goes-to-zero skew of even-sized views, which the paper's continuous
// analysis ignores.)
func BalancingAdversaryOnes(n, k, correctOnes int, forced bool) int {
	best, bestDist := 0, math.Inf(1)
	for a := 0; a <= k; a++ {
		w := viewMajorityProb(n, k, correctOnes, a, forced)
		if d := math.Abs(w - 0.5); d < bestDist {
			best, bestDist = a, d
		}
	}
	return best
}

// BalancingMix returns the *randomized* balancing strategy: the adversary
// sends lo ones with probability 1-pHi and lo+1 ones with probability pHi,
// chosen so that the per-view majority probability equals exactly 1/2
// whenever its k votes can bracket it. This realizes the paper's idealized
// adversary, whose chain rows within k of the centre are pinned to the
// balanced row P_{n/2} -- a deterministic integer split cannot do that when
// one vote moves the majority probability by more than the distance to 1/2
// (the Forced model's low view variance makes this common). Randomized
// behaviour is well within the model: malicious processes may follow "some
// malevolent plan" of any kind.
func BalancingMix(n, k, correctOnes int, forced bool) (lo int, pHi float64) {
	//lint:allow hotalloc per-phase sampler construction; cost is dominated by the HG table build
	wAt := func(a int) float64 { return viewMajorityProb(n, k, correctOnes, a, forced) }
	// w is nondecreasing in the number of adversarial ones.
	if wAt(0) >= 0.5 {
		return 0, 0 // push down as hard as possible
	}
	if wAt(k) <= 0.5 {
		return k, 0 // push up as hard as possible
	}
	for a := 1; a <= k; a++ {
		hi := wAt(a)
		if hi < 0.5 {
			continue
		}
		low := wAt(a - 1)
		if hi == low {
			return a, 0
		}
		return a - 1, (0.5 - low) / (hi - low)
	}
	return k, 0 // unreachable: wAt(k) > 0.5 was handled above
}

// MixedW returns the view-majority probability under the randomized
// balancing strategy of BalancingMix.
func MixedW(n, k, correctOnes int, forced bool) float64 {
	lo, pHi := BalancingMix(n, k, correctOnes, forced)
	w := viewMajorityProb(n, k, correctOnes, lo, forced)
	if pHi > 0 {
		w = (1-pHi)*w + pHi*viewMajorityProb(n, k, correctOnes, lo+1, forced)
	}
	return w
}

// viewMajorityProb is the probability that one correct process's view has a
// strict majority of ones when the adversary sends advOnes ones and
// k-advOnes zeros.
func viewMajorityProb(n, k, correctOnes, advOnes int, forced bool) float64 {
	correct := n - k
	draw := quorum.WaitCount(n, k)
	if forced {
		// Adversary messages always delivered: view = k adversarial +
		// (n-2k)-sample of the n-k correct messages. Majority of the full
		// (n-k)-view: advOnes + X > (n-k)/2.
		h := dist.Hypergeometric{Pop: correct, Success: correctOnes, Draw: draw - k}
		return h.TailAbove(draw/2 - advOnes)
	}
	h := dist.Hypergeometric{Pop: n, Success: correctOnes + advOnes, Draw: draw}
	return h.TailAbove(draw / 2)
}

// CollapsedR builds the paper's 3-state collapsed matrix R of eq. (11) for
// the fail-stop analysis with parameter l (the paper sets l^2 = 1.5):
//
//	        C                 BD                                  AE
//	C   ( 1-2*Phi(l)          2*Phi(l)                            0   )
//	BD  ( Phi((sqrt(n)+3l)/sqrt(8))  1/2-Phi((sqrt(n)+3l)/sqrt(8))  1/2 )
//	AE  ( 0                   0                                   1   )
//
// States: C is the center band of width l*sqrt(n) around n/2, BD the outer
// transient bands, AE the (merged) absorbing regions.
func CollapsedR(n int, l float64) *matrix.Dense {
	phiL := dist.Phi(l)
	phiB := dist.Phi((math.Sqrt(float64(n)) + 3*l) / math.Sqrt(8))
	r := matrix.New(3, 3)
	r.Set(0, 0, 1-2*phiL)
	r.Set(0, 1, 2*phiL)
	r.Set(0, 2, 0)
	r.Set(1, 0, phiB)
	r.Set(1, 1, 0.5-phiB)
	r.Set(1, 2, 0.5)
	r.Set(2, 0, 0)
	r.Set(2, 1, 0)
	r.Set(2, 2, 1)
	return r
}

// CollapsedBound evaluates eq. (13): the paper's upper bound on the expected
// number of phases to absorption from the center state,
//
//	(2*Phi(l) + 1/2 + Phi((sqrt(n)+3l)/sqrt(8))) / Phi(l),
//
// which is < 7 for l^2 = 1.5 and any n.
func CollapsedBound(n int, l float64) float64 {
	phiL := dist.Phi(l)
	phiB := dist.Phi((math.Sqrt(float64(n)) + 3*l) / math.Sqrt(8))
	return (2*phiL + 0.5 + phiB) / phiL
}

// CollapsedBoundViaMatrix computes the same bound by actually solving the
// 2x2 fundamental matrix of R's transient block (eq. (12)) and summing the
// first row -- a consistency check on the closed form.
func CollapsedBoundViaMatrix(n int, l float64) (float64, error) {
	r := CollapsedR(n, l)
	q := matrix.New(2, 2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			q.Set(i, j, r.At(i, j))
		}
	}
	times, err := matrix.AbsorptionTimes(q)
	if err != nil {
		return 0, err
	}
	return times[0], nil
}

// DefaultL is the paper's choice l = sqrt(1.5).
var DefaultL = math.Sqrt(1.5)

// MaliciousBound evaluates the Section 4.2 bound: with k = l*sqrt(n)/2
// malicious processes the expected number of phases to absorption from the
// balanced state is at most 1/(2*Phi(l)); constant for k = o(sqrt(n)).
func MaliciousBound(l float64) float64 {
	return 1 / (2 * dist.Phi(l))
}

// LForK returns the l corresponding to a fault count k at system size n
// under the paper's parametrization k = l*sqrt(n)/2.
func LForK(n, k int) float64 {
	return 2 * float64(k) / math.Sqrt(float64(n))
}

// KForL returns the fault count k = floor(l*sqrt(n)/2).
func KForL(n int, l float64) int {
	return int(l * math.Sqrt(float64(n)) / 2)
}

// FiveStateM builds the paper's intermediate 5-state matrix over the groups
// A = [0, n/3), B = [n/3, n/2 - l*sqrt(n)/2), C = the centre band,
// D and E their mirrors (Section 4.1). Entries are the paper's bounding
// values: the diagonal centre mass 1 - 2*Phi(l), the band-escape masses
// Phi(l), the outward mass from B of at least 1/2, and the re-entry mass
// Phi((sqrt(n)+3l)/sqrt(8)); remaining mass stays put. A and E are
// absorbing.
func FiveStateM(n int, l float64) *matrix.Dense {
	phiL := dist.Phi(l)
	phiB := dist.Phi((math.Sqrt(float64(n)) + 3*l) / math.Sqrt(8))
	m := matrix.New(5, 5) // order: A, B, C, D, E
	// A and E absorb.
	m.Set(0, 0, 1)
	m.Set(4, 4, 1)
	// B: to A with mass 1/2 (eq. (10)), back to C with phiB (eq. (9)),
	// stays otherwise.
	m.Set(1, 0, 0.5)
	m.Set(1, 2, phiB)
	m.Set(1, 1, 0.5-phiB)
	// C: leaves the centre band to each side with Phi(l), stays otherwise
	// (the paper zeroes the direct C->A mass to slow the chain).
	m.Set(2, 1, phiL)
	m.Set(2, 3, phiL)
	m.Set(2, 2, 1-2*phiL)
	// D mirrors B.
	m.Set(3, 4, 0.5)
	m.Set(3, 2, phiB)
	m.Set(3, 3, 0.5-phiB)
	return m
}

// CollapseFiveToR merges the symmetric groups of the 5-state matrix --
// A with E and B with D -- yielding the paper's 3-state matrix R of
// eq. (11) over (C, BD, AE).
func CollapseFiveToR(m *matrix.Dense) (*matrix.Dense, error) {
	if m.Rows() != 5 || m.Cols() != 5 {
		return nil, fmt.Errorf("markov: collapse needs a 5x5 matrix, got %dx%d", m.Rows(), m.Cols())
	}
	// Group columns: C = {2}, BD = {1, 3}, AE = {0, 4}. Row representatives:
	// C from row 2, BD from row 1 (B and D are mirror-identical).
	groups := [][]int{{2}, {1, 3}, {0, 4}}
	r := matrix.New(3, 3)
	reps := []int{2, 1, 0}
	for gi, rep := range reps {
		for gj, cols := range groups {
			sum := 0.0
			for _, c := range cols {
				sum += m.At(rep, c)
			}
			r.Set(gi, gj, sum)
		}
	}
	return r, nil
}
