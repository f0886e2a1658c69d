package runtime

import (
	"math"
	"math/bits"
	"slices"

	"resilient/internal/msg"
)

// eventQueue holds the pending deliveries in two parts: a calendar of
// 24-byte keys ordered by (at, seq), and a slab of reference-counted message
// slots the keys point into. A broadcast stores its message once (hold) and
// pushes one key per recipient (pushRef); the slot is zeroed and recycled
// when its last reference goes.
//
// The calendar files a key under its day, day = int64(at/width), without
// comparing it to any other key: each day of a power-of-two ring heads an
// unordered intrusive list of nodes, and an occupancy bitmap says which days
// have one. Keys are compared only when their day comes up: the list is
// copied into the active array and sorted by (at, seq) once, pop reads that
// array front to back, and a key pushed for the active day (or an earlier
// one) is inserted into it in order. A key whose day lies beyond the ring's
// horizon waits in a small heap, far, and moves into the ring when the
// horizon reaches it.
//
// The day is monotone in at, days are activated in increasing order and
// each is popped in (at, seq) order, so pop order is the strict total order
// (at, seq) -- seq is unique per run -- under any push sequence, exactly as
// it was for the heaps this replaced. Width and ring size only decide how
// much sorting a pop costs, never which event it returns.
type eventQueue struct {
	// The message slab; its chunks and used are promoted fields.
	slab[slot]
	// free heads the list of recycled slots, linked through slot.next. It
	// and every other list head here store ref+1, so that zero ends a list
	// and the zero eventQueue is ready to use.
	free int32

	// n counts queued keys; peak is its high-water mark.
	n, peak int

	// active[head:] are the keys of day today and of every earlier day, in
	// (at, seq) order; every key filed anywhere else belongs to a later day.
	active []eventKey
	head   int
	today  int64
	// perDay is 1/width, so a key's day is int64(at * perDay). Zero puts
	// every key on day 0: the state before the first calibration and after
	// one that found all times equal.
	perDay float64
	// ring[d&mask] heads the list of the keys of day d, for today < d <=
	// today+mask; occ has a bit set for every non-empty entry.
	ring []int32
	occ  []uint64
	mask int64
	// nodes is the slab the lists are linked through, nodeFree its free list.
	nodes    slab[node]
	nodeFree int32
	// far is a 4-ary min-heap on (at, seq) of the keys past the ring's
	// horizon: every one of its keys has day > today+mask. The sift code
	// below serves this store and nothing else.
	far []eventKey

	// calibN is the population the current width and ring were sized for
	// (zero: never calibrated). recals counts calibrations and farKeys
	// entries into far (a key that sits out a recalibration there enters
	// twice), for the run's metrics.
	calibN, recals, farKeys int
}

// eventKey is one queued delivery; ref locates its message in the slab.
type eventKey struct {
	at  float64
	seq uint64
	to  msg.ID
	ref int32
}

// slot is one message-slab entry: a message and the number of holders and
// queued keys that reference it. While a slot is on the free list refs is
// zero, m is the zero Message and next links the following free slot.
type slot struct {
	m    msg.Message
	refs int32
	next int32
}

// node is one calendar entry, 32 bytes: a key and the link to the next node
// of its day (or of the free list).
type node struct {
	key  eventKey
	next int32
}

const (
	firstChunkShift = 5
	firstChunk      = 1 << firstChunkShift
	// A ref is chunk<<chunkShift | offset, so every chunk owns maxChunk
	// refs whether or not it is large enough to use them all.
	chunkShift = 13
	maxChunk   = 1 << chunkShift

	// keysPerDay is the day length calibration aims for, in keys. Shorter
	// days mean less sorting per pop but a larger ring and more empty days
	// to skip; at 4 almost every day is insertion-sorted in a dozen
	// comparisons.
	keysPerDay = 4
	// ringSlack is how many times the ring outspans the calibrated
	// population at keysPerDay keys a day. The span is estimated from the
	// lower three quarters of the queued times (so a heavy tail cannot
	// stretch the days), which leaves the upper quarter, and any later
	// widening of the delivery window, to this margin; keys past it cost a
	// heap operation each in far. A ring entry is 4 bytes.
	ringSlack = 4
	// minRing is the smallest ring, and the one an uncalibrated queue
	// starts with: 64 bytes, one bitmap word.
	minRing = 16
	// maxRing caps the ring at 8 MiB of heads however many keys queue up;
	// beyond it days simply get longer.
	maxRing = 1 << 21
	// drift is how far the population may move from calibN, either way,
	// before width and ring are recomputed. Each recalibration relinks
	// every queued key, so a factor of 4 keeps that cost a small constant
	// per push while days stay within 4x of keysPerDay.
	drift = 4
	// calibFloor is the population below which a shrinking queue is left
	// alone: relinking 16 keys into a fresh ring buys nothing.
	calibFloor = 16
	// calibSample is how many queued times calibration sorts to find its
	// quantile; 64 puts the three-quarter mark within a few per cent.
	calibSample = 64
	// insertionMax is the longest day sorted by insertion; longer ones
	// (lockstep schedules put a whole step on one day) go to slices.SortFunc.
	insertionMax = 12
	// maxDay saturates the day of a huge at*perDay (sched.Clamp allows
	// delays of 1e12) so that differences of two days cannot overflow.
	maxDay = 1 << 61
)

// slab is a chunked array addressed by int32 refs. Chunk i has
// min(firstChunk<<i, maxChunk) entries and is never re-copied, so a small
// run (one of a log's thousands of per-slot queues) pays for 32 entries
// while a large one grows by at most maxChunk at a time. The chunks outlive
// the run: reset rewinds the slab and the next run fills them again, so a
// chunk is allocated once per recycled queue, not once per run.
type slab[T any] struct {
	chunks [][]T
	// live counts the chunks in use, chunks[:live]; the rest are kept from
	// an earlier run. used counts the entries of chunks[live-1] handed out.
	live, used int
}

func (s *slab[T]) at(ref int32) *T {
	return &s.chunks[ref>>chunkShift][ref&(maxChunk-1)]
}

// grow hands out the ref of the next unused entry, moving on to the next kept
// chunk, or adding one, when the current chunk is full.
func (s *slab[T]) grow() int32 {
	if s.live == 0 || s.used == len(s.chunks[s.live-1]) {
		if s.live == len(s.chunks) {
			size := maxChunk
			if s.live < chunkShift-firstChunkShift {
				size = firstChunk << s.live
			}
			s.chunks = append(s.chunks, make([]T, size))
		}
		s.live++
		s.used = 0
	}
	s.used++
	return int32((s.live-1)<<chunkShift | (s.used - 1))
}

// before reports whether a orders strictly before b.
func before(a, b *eventKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// reset makes q the zero eventQueue again, except that it keeps its storage:
// the chunks of both slabs, rewound to the first, and the capacity of the
// active array, the ring, its bitmap and the far heap. Nothing that reads the
// queue can tell the difference, so the next run files, calibrates and counts
// exactly as on a fresh one. A run that ends with keys still queued leaves
// their messages in the slab; the slots it used are cleared here so that a
// queue waiting on the idle list pins no Payload. Nodes hold no pointers and
// are overwritten before they are read.
func (q *eventQueue) reset() {
	for i, c := range q.chunks[:q.live] {
		if i == q.live-1 {
			c = c[:q.used]
		}
		clear(c)
	}
	*q = eventQueue{
		slab:   slab[slot]{chunks: q.chunks},
		active: q.active[:0],
		ring:   q.ring[:0],
		occ:    q.occ[:0],
		nodes:  slab[node]{chunks: q.nodes.chunks},
		far:    q.far[:0],
	}
}

// len returns the number of queued events.
func (q *eventQueue) len() int { return q.n }

// peekAt returns the delivery time of the minimum event without removing it
// or touching the message slab.
func (q *eventQueue) peekAt() (float64, bool) {
	if q.n == 0 {
		return 0, false
	}
	if q.head == len(q.active) {
		q.advance()
	}
	return q.active[q.head].at, true
}

func (q *eventQueue) slot(ref int32) *slot { return q.slab.at(ref) }

// hold stores m in the slab and returns its ref, holding one reference on
// the caller's behalf. The caller pushes any number of keys with pushRef and
// then calls release; the slot outlives the release for as long as a queued
// key references it.
func (q *eventQueue) hold(m msg.Message) int32 {
	var ref int32
	if q.free != 0 {
		ref = q.free - 1
		q.free = q.slot(ref).next
	} else {
		ref = q.slab.grow()
	}
	s := q.slot(ref)
	s.m, s.refs = m, 1
	return ref
}

// release drops one reference to ref, recycling the slot when it was the
// last. The vacated slot is zeroed so it pins no Payload.
func (q *eventQueue) release(ref int32) {
	s := q.slot(ref)
	s.refs--
	if s.refs == 0 {
		*s = slot{next: q.free}
		q.free = ref + 1
	}
}

// dayOf maps a delivery time to its day. It is monotone in at, which is all
// the pop order rests on; NaN and anything past maxDay saturate.
func (q *eventQueue) dayOf(at float64) int64 {
	d := at * q.perDay
	if !(d < maxDay) {
		return maxDay
	}
	return int64(d)
}

// pushRef queues a delivery of the held message ref to process to. A key for
// a day inside the ring is linked into that day's list with no comparison.
func (q *eventQueue) pushRef(at float64, seq uint64, to msg.ID, ref int32) {
	q.slot(ref).refs++
	q.n++
	if q.n > q.peak {
		q.peak = q.n
	}
	k := eventKey{at: at, seq: seq, to: to, ref: ref}
	d := q.dayOf(at)
	if uint64(d-q.today-1) < uint64(q.mask) {
		q.link(d, q.newNode(k))
		return
	}
	q.pushOutside(d, k)
}

// pushOutside queues a key whose day the ring does not cover: at or before
// today, past the horizon, or any day at all while there is no ring yet.
func (q *eventQueue) pushOutside(d int64, k eventKey) {
	switch {
	case len(q.ring) == 0:
		// First push: every key goes on day 0 of a minimal ring until the
		// first pop has a population to calibrate from.
		q.resizeRing(minRing)
		q.today = -1
		q.link(0, q.newNode(k))
		return
	case d <= q.today:
		q.insertActive(k)
	default:
		q.pushFar(k)
	}
	// Pushes into the ring wait for the next advance to notice growth; these
	// two cost a memmove or a sift each, so a burst of them must not outrun
	// the calibration that would have filed them in the ring.
	if q.n > drift*q.calibN {
		q.calibrate()
	}
}

// newNode takes a node off the free list, or from the slab, and stores k.
func (q *eventQueue) newNode(k eventKey) int32 {
	var ref int32
	if q.nodeFree != 0 {
		ref = q.nodeFree - 1
		q.nodeFree = q.nodes.at(ref).next
	} else {
		ref = q.nodes.grow()
	}
	q.nodes.at(ref).key = k
	return ref
}

// link puts node ref at the head of day d's list; d must be inside the ring.
func (q *eventQueue) link(d int64, ref int32) {
	i := d & q.mask
	q.nodes.at(ref).next = q.ring[i]
	q.ring[i] = ref + 1
	q.occ[i>>6] |= 1 << uint(i&63)
}

// insertActive inserts k into the active array in (at, seq) order, searching
// from the back: a key pushed for the current day is usually its latest.
func (q *eventQueue) insertActive(k eventKey) {
	a := q.active
	if len(a) == cap(a) && q.head >= (len(a)+1)/2 {
		// Reuse the popped half instead of growing: a schedule that keeps
		// everything on one day would otherwise grow this array by one key
		// per event for the whole run.
		a = a[:copy(a, a[q.head:])]
		q.head = 0
	}
	a = append(a, k)
	settle(a, q.head, len(a)-1)
	q.active = a
}

// settle moves a[i] back to its place among a[lo:i], which are in order.
func settle(a []eventKey, lo, i int) {
	k := a[i]
	for i > lo && before(&k, &a[i-1]) {
		a[i] = a[i-1]
		i--
	}
	a[i] = k
}

// pop removes and returns the minimum key. Its message stays where it lies,
// at q.slot(k.ref).m, and the key's reference to it stays held: the caller
// reads the message in place and then releases k.ref. It must not be called
// on an empty queue.
func (q *eventQueue) pop() eventKey {
	if q.head == len(q.active) {
		q.advance()
	}
	k := q.active[q.head]
	q.head++
	q.n--
	return k
}

// advance makes the earliest non-empty day the active one. It is called
// with the active array used up and at least one key queued elsewhere.
func (q *eventQueue) advance() {
	if q.n > drift*q.calibN || (q.n*drift < q.calibN && q.calibN > calibFloor) {
		q.calibrate()
	}
	a := q.active[:0]
	q.head = 0
	if q.n > len(q.far) {
		q.today = q.nextDay()
		i := q.today & q.mask
		for ref := q.ring[i]; ref != 0; {
			nd := q.nodes.at(ref - 1)
			a = append(a, nd.key)
			ref, nd.next, q.nodeFree = nd.next, q.nodeFree, ref
		}
		q.ring[i] = 0
		q.occ[i>>6] &^= 1 << uint(i&63)
	} else {
		// The ring is empty: jump to the day of the earliest far key. The
		// loop below puts it, and any other key of that day, in a.
		q.today = q.dayOf(q.far[0].at)
	}
	// The horizon moved with today: take in the far keys it now covers. One
	// that falls on today itself joins a before a is sorted.
	for len(q.far) > 0 {
		d := q.dayOf(q.far[0].at)
		if d-q.today > q.mask {
			break
		}
		if k := q.popFar(); d == q.today {
			a = append(a, k)
		} else {
			q.link(d, q.newNode(k))
		}
	}
	if len(a) <= insertionMax {
		for i := 1; i < len(a); i++ {
			settle(a, 0, i)
		}
	} else {
		slices.SortFunc(a, func(x, y eventKey) int {
			if before(&x, &y) {
				return -1
			}
			return 1 // never equal: seq is unique
		})
	}
	q.active = a
}

// nextDay returns the first non-empty day after today. The ring must hold at
// least one key; all of its keys are within mask days of today, so the
// circular distance from today+1 to the first occupied entry is the answer.
func (q *eventQueue) nextDay() int64 {
	start := (q.today + 1) & q.mask
	w := int(start >> 6)
	word := q.occ[w] >> uint(start&63) << uint(start&63)
	for word == 0 {
		// After a full turn this reads the first word again, whole: the
		// entries below start are the last days before the horizon.
		w = (w + 1) & (len(q.occ) - 1)
		word = q.occ[w]
	}
	i := int64(w<<6 + bits.TrailingZeros64(word))
	return q.today + 1 + (i-start)&q.mask
}

// resizeRing gives the ring size entries, all empty, re-slicing the arrays
// it has when they are large enough so that a queue breathing between two
// sizes allocates once.
func (q *eventQueue) resizeRing(size int) {
	words := (size + 63) >> 6
	if size <= cap(q.ring) {
		q.ring, q.occ = q.ring[:size], q.occ[:words]
		clear(q.ring)
		clear(q.occ)
	} else {
		q.ring, q.occ = make([]int32, size), make([]uint64, words)
	}
	q.mask = int64(size - 1)
}

// calibrate recomputes width and ring size from the keys queued now and
// files every key again, relinking the calendar's nodes in place. It may run
// at any time: it leaves the active array empty and today just before the
// earliest key, which is the state advance starts from.
func (q *eventQueue) calibrate() {
	q.recals++
	q.calibN = max(q.n, calibFloor)

	// Unlink every key into one chain of nodes, noting the earliest time and
	// an evenly strided sample of all of them on the way. The keys held
	// outside the ring first join one of its lists; which no longer matters.
	for _, k := range q.active[q.head:] {
		q.link(0, q.newNode(k))
	}
	q.active, q.head = q.active[:0], 0
	for _, k := range q.far {
		q.link(0, q.newNode(k))
	}
	q.far = q.far[:0]
	var sample [calibSample]float64
	taken, stride, skip := 0, q.n/calibSample+1, 0
	lo := math.Inf(1)
	var chain int32
	for w, word := range q.occ {
		for ; word != 0; word &= word - 1 {
			first := q.ring[w<<6+bits.TrailingZeros64(word)]
			for ref := first; ; {
				nd := q.nodes.at(ref - 1)
				lo = min(lo, nd.key.at)
				if skip--; skip < 0 {
					sample[taken], skip = nd.key.at, stride-1
					taken++
				}
				if nd.next == 0 {
					nd.next = chain
					break
				}
				ref = nd.next
			}
			chain = first
		}
	}
	s := sample[:taken]
	slices.Sort(s)

	// A day is keysPerDay keys long at the density of the lower three
	// quarters of the sample: hi is the sample's three-quarter mark, or the
	// first value above it that differs from lo. With none (all times
	// equal, as far as the sample shows) everything shares one day.
	q.perDay = 0
	for i := taken * 3 / 4; i < taken; i++ {
		if s[i] > lo {
			below := float64(i+1) / float64(taken) * float64(q.n)
			if perDay := below / (keysPerDay * (s[i] - lo)); !math.IsInf(perDay, 0) {
				q.perDay = perDay
			}
			break
		}
	}
	size := minRing
	if q.perDay != 0 {
		for size < ringSlack*q.n/keysPerDay && size < maxRing {
			size <<= 1
		}
	}
	q.resizeRing(size)
	q.today = q.dayOf(lo) - 1

	for ref := chain; ref != 0; {
		nd := q.nodes.at(ref - 1)
		next := nd.next
		if d := q.dayOf(nd.key.at); d-q.today <= q.mask {
			q.link(d, ref-1)
		} else {
			q.pushFar(nd.key)
			nd.next, q.nodeFree = q.nodeFree, ref
		}
		ref = next
	}
}

// pushFar adds k to the far heap, sifting it up to its position.
func (q *eventQueue) pushFar(k eventKey) {
	q.farKeys++
	q.far = append(q.far, k)
	h := q.far
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !before(&k, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
}

// popFar removes and returns the minimum of the far heap, placing the key
// displaced from its end starting from the vacated root.
func (q *eventQueue) popFar() eventKey {
	h := q.far
	top := h[0]
	n := len(h) - 1
	k := h[n]
	h = h[:n]
	q.far = h
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		least := first
		for c := first + 1; c < min(first+4, n); c++ {
			if before(&h[c], &h[least]) {
				least = c
			}
		}
		if !before(&h[least], &k) {
			break
		}
		h[i] = h[least]
		i = least
	}
	if n > 0 {
		h[i] = k
	}
	return top
}
