// Package echo implements the authenticated echo-broadcast acceptance rule
// at the heart of the Figure-2 malicious-case protocol -- the mechanism that
// later evolved into Bracha's reliable broadcast.
//
// A process p "accepts a message with value i from process q [at phase t] if
// it receives more than (n+k)/2 messages of the form (echo, q, i, t)"
// (Section 3.3). Each sender's echo is counted at most once per
// (subject, phase): the pseudocode admits only "the first message received
// from the sender with these values of msg.type, msg.from and msg.phaseno",
// which is exactly what makes equivocation by malicious senders harmless --
// a second, contradictory echo from the same sender is ignored, so no two
// correct processes can accept different values from the same subject in the
// same phase (the consistency claim of Theorem 4).
//
// The sampled broadcast scheme (arXiv 1908.01738, internal/sample) keeps the
// rule but counts only the receiver's echo sample and accepts at the plan's
// threshold Ê: NewSampledTracker.
//
// Tallies are dense: process IDs are always 0..n-1 and values binary, so a
// phase's state is a flat [n][2] count table plus two bitsets (subject x
// sender dedup, n² or n·E bits, and per-subject acceptance) rather than
// maps. A tracker keeps its phase tables in a phase-sorted slice, found by
// binary search (a Byzantine sender may name any phase), and recycles them
// through a freelist on Prune and Reset, so steady-state observation, and a
// reset tracker's next instance, allocate nothing.
package echo

import (
	"cmp"
	"fmt"
	"slices"

	"resilient/internal/dense"
	"resilient/internal/msg"
	"resilient/internal/quorum"
)

// Accept describes the acceptance of subject's phase-p message with value v.
type Accept struct {
	Subject msg.ID
	Phase   msg.Phase
	Value   msg.Value
}

// String renders the acceptance.
func (a Accept) String() string {
	return fmt.Sprintf("accept(p%d, phase=%s, v=%d)", a.Subject, a.Phase, a.Value)
}

// phaseTally is one phase's dense echo state.
type phaseTally struct {
	phase msg.Phase
	// counts[subject] tallies echoes for subject's value 0 and 1.
	counts [][2]int32
	// seen has bit subject*width+column set once the echo of the sender in
	// that column was counted for the subject (the first-message rule).
	seen dense.Bitset
	// accepted has bit subject set once (subject, phase) was accepted.
	accepted dense.Bitset
}

func (t *phaseTally) reset(n, width int, phase msg.Phase) {
	t.phase = phase
	if cap(t.counts) < n {
		t.counts = make([][2]int32, n)
	} else {
		t.counts = t.counts[:n]
		clear(t.counts)
	}
	t.seen.Reset(n * width)
	t.accepted.Reset(n)
}

// Tracker counts echoes and reports acceptances. It is not safe for
// concurrent use.
type Tracker struct {
	n int
	// sample holds the senders whose echoes count, sorted; a sender's dedup
	// column is its index here, or its id when sample is nil.
	sample    []int32
	width     int // dedup columns per subject: n, or len(sample)
	threshold int32
	low       msg.Phase // phases below this have been pruned
	cur       *phaseTally
	tallies   []*phaseTally // ascending phase
	free      []*phaseTally
}

// NewTracker returns an empty tracker for an n-process system tolerating k
// malicious processes: every process's echo counts, and acceptance takes
// more than (n+k)/2 of them.
func NewTracker(n, k int) *Tracker {
	return NewSampledTracker(n, nil, quorum.EchoAcceptCount(n, k))
}

// NewSampledTracker returns an empty tracker for an n-process system that
// counts only echoes from the senders in sample, which must be sorted and
// must not be mutated while the tracker is in use, and accepts a value once
// threshold of them carry it. A nil sample counts every sender.
func NewSampledTracker(n int, sample []int32, threshold int) *Tracker {
	width := len(sample)
	if sample == nil {
		width = n
	}
	return &Tracker{
		n:         n,
		sample:    sample,
		width:     width,
		threshold: int32(threshold),
	}
}

// Reset empties the tracker for a new instance of the same shape -- n, the
// sample and the threshold stay: every phase table joins the freelist, and
// no phase is pruned any more.
func (t *Tracker) Reset() {
	t.free = append(t.free, t.tallies...)
	t.tallies = t.tallies[:0]
	t.cur = nil
	t.low = 0
}

// Threshold returns the number of matching echoes at which acceptance
// happens: the least integer strictly greater than (n+k)/2, or the sampled
// tracker's threshold.
func (t *Tracker) Threshold() int { return int(t.threshold) }

// tally returns phase p's state, creating it (from the freelist when
// possible) on first use. The single-entry cur cache makes the common case
// -- every echo lands on the machine's current phase -- search-free.
func (t *Tracker) tally(p msg.Phase) *phaseTally {
	if t.cur != nil && t.cur.phase == p {
		return t.cur
	}
	i, found := t.find(p)
	if !found {
		var pt *phaseTally
		if n := len(t.free); n > 0 {
			pt = t.free[n-1]
			t.free = t.free[:n-1]
		} else {
			pt = new(phaseTally)
		}
		pt.reset(t.n, t.width, p)
		t.tallies = slices.Insert(t.tallies, i, pt)
	}
	t.cur = t.tallies[i]
	return t.cur
}

// find returns the index of phase p's state in tallies, or the index it
// would be inserted at, and whether it is there.
func (t *Tracker) find(p msg.Phase) (int, bool) {
	return slices.BinarySearchFunc(t.tallies, p, func(pt *phaseTally, p msg.Phase) int {
		return cmp.Compare(pt.phase, p)
	})
}

// lookup returns phase p's state without creating it.
func (t *Tracker) lookup(p msg.Phase) *phaseTally {
	if t.cur != nil && t.cur.phase == p {
		return t.cur
	}
	if i, found := t.find(p); found {
		return t.tallies[i]
	}
	return nil
}

// inRange reports whether id is a real process identifier.
func (t *Tracker) inRange(id msg.ID) bool { return id >= 0 && int(id) < t.n }

// column returns sender's dedup column, or -1 when its echoes do not count:
// it is outside 0..n-1 or, for a sampled tracker, outside the sample.
func (t *Tracker) column(sender msg.ID) int {
	if t.sample != nil {
		return dense.SortedIndex(t.sample, sender)
	}
	if !t.inRange(sender) {
		return -1
	}
	return int(sender)
}

// Observe registers an echo from sender asserting that subject initiated
// value v in phase p. It returns an Accept exactly once per (subject, phase):
// on the echo that first brings a value's count to the threshold.
//
// Duplicate echoes from the same sender for the same (subject, phase) are
// ignored regardless of value, matching the pseudocode's first-message rule.
// Echoes for pruned phases, from senders whose echoes do not count, or
// naming a subject outside 0..n-1 (which no real process has), are ignored.
func (t *Tracker) Observe(sender, subject msg.ID, p msg.Phase, v msg.Value) (Accept, bool) {
	if p < t.low || !v.Valid() || !t.inRange(subject) {
		return Accept{}, false
	}
	col := t.column(sender)
	if col < 0 {
		return Accept{}, false
	}
	pt := t.tally(p)
	if pt.seen.Set(int(subject)*t.width + col) {
		return Accept{}, false
	}
	c := &pt.counts[subject]
	c[v]++
	if c[v] >= t.threshold && !pt.accepted.Set(int(subject)) {
		return Accept{Subject: subject, Phase: p, Value: v}, true
	}
	return Accept{}, false
}

// Seen reports whether an echo from sender for (subject, phase) was already
// counted.
func (t *Tracker) Seen(sender, subject msg.ID, p msg.Phase) bool {
	col := t.column(sender)
	if col < 0 || !t.inRange(subject) {
		return false
	}
	if pt := t.lookup(p); pt != nil {
		return pt.seen.Test(int(subject)*t.width + col)
	}
	return false
}

// Count returns the current echo tallies for (subject, phase).
func (t *Tracker) Count(subject msg.ID, p msg.Phase) (zeros, ones int) {
	if !t.inRange(subject) {
		return 0, 0
	}
	if pt := t.lookup(p); pt != nil {
		return int(pt.counts[subject][0]), int(pt.counts[subject][1])
	}
	return 0, 0
}

// Accepted reports whether (subject, phase) has already been accepted.
func (t *Tracker) Accepted(subject msg.ID, p msg.Phase) bool {
	if !t.inRange(subject) {
		return false
	}
	if pt := t.lookup(p); pt != nil {
		return pt.accepted.Test(int(subject))
	}
	return false
}

// Prune discards all bookkeeping for phases strictly below p and ignores
// future echoes for those phases. Wildcard state is kept by the caller, not
// the tracker, so pruning never loses post-decision messages. Pruned phase
// tables are recycled for later phases.
func (t *Tracker) Prune(p msg.Phase) {
	if p <= t.low {
		return
	}
	// The pruned phases are a prefix of tallies; they join the freelist in
	// ascending phase order.
	i, _ := t.find(p)
	for _, pt := range t.tallies[:i] {
		if t.cur == pt {
			t.cur = nil
		}
		t.free = append(t.free, pt)
	}
	t.tallies = slices.Delete(t.tallies, 0, i)
	t.low = p
}
