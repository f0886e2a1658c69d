package sample

import (
	"slices"

	"resilient/internal/dense"
	"resilient/internal/echo"
	"resilient/internal/msg"
)

// subjectTally is one (subject, phase)'s sparse echo state: value counts, an
// E-bit dedup bitset indexed by the sender's position in the receiver's
// sorted echo sample, and the accepted latch. Compare echo.phaseTally, which
// keeps an n²-bit dedup bitset and an n-row count table per phase; at
// n=10,000 that is ~12.5 MB per node per phase, while a subjectTally is two
// ints and E bits (~40 bytes under the default plan).
type subjectTally struct {
	subject  msg.ID
	counts   [2]int32
	seen     dense.Bitset
	accepted bool
}

// phaseTally maps the subjects observed in one phase to their tallies.
// Subjects are tracked sparsely: a tally exists only once some sample member
// actually echoed for that subject, so per-phase memory is proportional to
// traffic seen, not to n.
type phaseTally struct {
	phase    msg.Phase
	subjects map[msg.ID]*subjectTally
	// order records subject arrival order so pruning can release tallies to
	// the freelist deterministically (map iteration order is randomized).
	order []msg.ID
	// last is the tally the previous lookup returned: a one-shot broadcast
	// has a single subject, and a consensus phase's echoes arrive in runs per
	// subject, so most lookups skip the map. Prune clears it.
	last *subjectTally
}

// Tracker is the sample-scheme replacement for echo.Tracker: it counts only
// echoes from senders inside this receiver's echo sample and accepts a
// (subject, phase, value) at the plan's scaled threshold Ê instead of the
// full-quorum ⌊(n+k)/2⌋+1. Observe and Prune are drop-in compatible (they
// return echo.Accept), so the malicious machine runs unchanged over either
// tracker. It is not safe for concurrent use.
type Tracker struct {
	self      msg.ID
	sample    []int32 // this receiver's sorted echo sample (aliases Directory)
	threshold int32
	n         int

	low     msg.Phase
	cur     *phaseTally
	tallies map[msg.Phase]*phaseTally

	freePhases   []*phaseTally
	freeSubjects []*subjectTally
	scratch      []msg.Phase
}

// NewTracker returns an empty sparse tracker for receiver self, counting
// echoes from its sample in dir.
func NewTracker(dir *Directory, self msg.ID) *Tracker {
	return &Tracker{
		self:      self,
		sample:    dir.EchoSample(self),
		threshold: int32(dir.Plan().EchoThreshold),
		n:         dir.Plan().N,
		tallies:   make(map[msg.Phase]*phaseTally),
	}
}

// Threshold returns the acceptance threshold Ê.
func (t *Tracker) Threshold() int { return int(t.threshold) }

func (t *Tracker) inRange(id msg.ID) bool { return id >= 0 && int(id) < t.n }

func (t *Tracker) tally(p msg.Phase) *phaseTally {
	if t.cur != nil && t.cur.phase == p {
		return t.cur
	}
	pt := t.tallies[p]
	if pt == nil {
		if n := len(t.freePhases); n > 0 {
			pt = t.freePhases[n-1]
			t.freePhases = t.freePhases[:n-1]
		} else {
			//lint:allow hotalloc freelist miss: one map per phase table, recycled by Prune; steady state reuses
			pt = &phaseTally{subjects: make(map[msg.ID]*subjectTally)}
		}
		pt.phase = p
		t.tallies[p] = pt
	}
	t.cur = pt
	return pt
}

func (t *Tracker) subject(pt *phaseTally, subject msg.ID) *subjectTally {
	if st := pt.last; st != nil && st.subject == subject {
		return st
	}
	st := pt.subjects[subject]
	if st == nil {
		if n := len(t.freeSubjects); n > 0 {
			st = t.freeSubjects[n-1]
			t.freeSubjects = t.freeSubjects[:n-1]
		} else {
			st = new(subjectTally)
		}
		st.subject = subject
		st.counts = [2]int32{}
		st.seen.Reset(len(t.sample))
		st.accepted = false
		pt.subjects[subject] = st
		pt.order = append(pt.order, subject)
	}
	pt.last = st
	return st
}

// Observe registers an echo from sender asserting that subject initiated
// value v in phase p. Echoes from senders outside this receiver's echo
// sample are ignored — that is the entire message-complexity win: only E of
// the n possible echoes are ever counted, and honest senders (routed by
// Directory.EchoTargets) never even send the others. Within the sample the
// semantics mirror echo.Tracker exactly: first echo per (sender, subject,
// phase) counts regardless of value, acceptance fires once per
// (subject, phase) when a value's count reaches Ê, pruned phases are dead.
func (t *Tracker) Observe(sender, subject msg.ID, p msg.Phase, v msg.Value) (echo.Accept, bool) {
	if p < t.low || !v.Valid() || !t.inRange(sender) || !t.inRange(subject) {
		return echo.Accept{}, false
	}
	idx := SampleIndex(t.sample, sender)
	if idx < 0 {
		return echo.Accept{}, false
	}
	pt := t.tally(p)
	st := t.subject(pt, subject)
	if st.seen.Set(idx) {
		return echo.Accept{}, false
	}
	st.counts[v]++
	if !st.accepted && st.counts[v] >= t.threshold {
		st.accepted = true
		return echo.Accept{Subject: subject, Phase: p, Value: v}, true
	}
	return echo.Accept{}, false
}

func (t *Tracker) lookup(p msg.Phase) *phaseTally {
	if t.cur != nil && t.cur.phase == p {
		return t.cur
	}
	return t.tallies[p]
}

// Seen reports whether an echo from sender for (subject, phase) was counted.
// Senders outside the sample are never seen.
func (t *Tracker) Seen(sender, subject msg.ID, p msg.Phase) bool {
	idx := SampleIndex(t.sample, sender)
	if idx < 0 {
		return false
	}
	if pt := t.lookup(p); pt != nil {
		if st := pt.subjects[subject]; st != nil {
			return st.seen.Test(idx)
		}
	}
	return false
}

// Count returns the current sample-echo tallies for (subject, phase).
func (t *Tracker) Count(subject msg.ID, p msg.Phase) (zeros, ones int) {
	if pt := t.lookup(p); pt != nil {
		if st := pt.subjects[subject]; st != nil {
			return int(st.counts[0]), int(st.counts[1])
		}
	}
	return 0, 0
}

// Accepted reports whether (subject, phase) has been accepted.
func (t *Tracker) Accepted(subject msg.ID, p msg.Phase) bool {
	if pt := t.lookup(p); pt != nil {
		if st := pt.subjects[subject]; st != nil {
			return st.accepted
		}
	}
	return false
}

// Prune discards all bookkeeping for phases strictly below p and ignores
// future echoes for those phases, recycling phase tables and subject
// tallies through the freelists (in deterministic order).
func (t *Tracker) Prune(p msg.Phase) {
	if p <= t.low {
		return
	}
	t.scratch = t.scratch[:0]
	for ph := range t.tallies {
		if ph < p {
			t.scratch = append(t.scratch, ph)
		}
	}
	slices.Sort(t.scratch)
	for _, ph := range t.scratch {
		pt := t.tallies[ph]
		delete(t.tallies, ph)
		if t.cur == pt {
			t.cur = nil
		}
		for _, s := range pt.order {
			t.freeSubjects = append(t.freeSubjects, pt.subjects[s])
		}
		clear(pt.subjects)
		pt.order = pt.order[:0]
		pt.last = nil
		t.freePhases = append(t.freePhases, pt)
	}
	t.low = p
}
