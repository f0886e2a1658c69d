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
// The calendar has two tiers. Tier 1 files a key under its bucket,
// b = int64(at/width), without comparing it to any other key: each bucket of
// a power-of-two ring heads a chain of fixed-size key blocks, a push appends
// to the bucket's newest block, and an occupancy bitmap says which buckets
// hold keys. Tier 2 orders a bucket when it comes due: activate
// counting-sorts its keys into fine days of about keysPerDay keys each,
// sorts each day by (at, seq), and frees the blocks. The sorted bucket is
// the active array; pop reads it front to back, and a key pushed for the
// active bucket (or an earlier one) is inserted into it in order. A key
// whose bucket lies beyond the ring's horizon waits in a small heap, far,
// and moves into the ring when the horizon reaches it.
//
// Buckets are a few keys long in a small queue and up to maxBucketKeys in a
// large one, whose pushes then write to the tails of about one open block
// per maxBucketKeys keys, few enough to stay in cache; a bucket is read back
// a block at a time instead of one dependent load per key.
//
// The bucket is monotone in at, so is the fine day within a bucket, buckets
// are activated in increasing order and each is popped in (at, seq) order:
// pop order is the strict total order (at, seq) -- seq is unique per run --
// under any push sequence, exactly as it was for the heaps this replaced.
// Width, ring size and day count only decide how much sorting a pop costs,
// never which event it returns.
type eventQueue struct {
	// The message slab; its chunks and used are promoted fields.
	slab[slot]
	// free heads the list of recycled slots, linked through slot.next. It
	// and every other list head here store ref+1, so that zero ends a list
	// and the zero eventQueue is ready to use.
	free int32

	// n counts queued keys; peak is its high-water mark.
	n, peak int

	// active[head:] are the keys of bucket today and of every earlier
	// bucket, in (at, seq) order; every key filed anywhere else belongs to a
	// later bucket.
	active []eventKey
	head   int
	today  int64
	// perBucket is 1/width, so a key's bucket is int64(at * perBucket).
	// Zero puts every key in bucket 0: the state before the first
	// calibration and after one that found all times equal.
	perBucket float64
	// ring[b&mask] holds the keys of bucket b, for today < b <= today+mask;
	// occ has a bit set for every non-empty entry.
	ring []bucket
	occ  []uint64
	mask int64
	// blocks is the slab the buckets' chains live in, blockFree its free
	// list, linked through block.next.
	blocks    slab[block]
	blockFree int32
	// far is a 4-ary min-heap on (at, seq) of the keys past the ring's
	// horizon: every one of its keys has a bucket > today+mask. The sift
	// code below serves this store and nothing else.
	far []eventKey
	// ends is activate's scratch: the end offset of each fine day.
	ends []int32

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

// bucket is one ring entry: the newest block of the bucket's chain and the
// number of keys in the chain. Every block but the newest is full, so n
// alone says how many keys the newest one holds.
type bucket struct {
	head int32
	n    int32
}

// block is blockKeys keys of one bucket and the link to the bucket's next
// older block (or to the next block of the free list). n is the number of
// keys in use while calibrate holds the block on its chain; a bucket's own
// blocks keep that count in the bucket.
type block struct {
	keys [blockKeys]eventKey
	next int32
	n    int32
}

const (
	firstChunk = 32
	// A ref is chunk<<chunkShift | offset, so every chunk owns maxChunk
	// refs whether or not it is large enough to use them all.
	chunkShift = 13
	maxChunk   = 1 << chunkShift

	// blockKeys is the size of a bucket's blocks: 384 bytes of keys, so a
	// small queue's 4-key buckets leave little of a block unused and a
	// large queue's buckets are read back 16 keys per dependent load.
	blockKeys = 16
	// keysPerDay is the length of the fine days activate sorts a bucket
	// into, in keys. At 4 almost every day is insertion-sorted in a dozen
	// comparisons.
	keysPerDay = 4
	// minBucketKeys and maxBucketKeys bound the bucket length calibration
	// aims for, population/bucketShare keys. A small queue gets buckets of
	// one fine day each, so a key pushed for the active bucket is inserted
	// among a few keys. A large one gets buckets of 64 days: pushes then
	// write to population/256 open blocks, whose tails fit in cache at the
	// half-million keys of a sampled broadcast at n = 10,000.
	minBucketKeys = keysPerDay
	maxBucketKeys = 256
	bucketShare   = 64
	// ringSlack is how many times the ring outspans the calibrated
	// population. The span is estimated from the lower three quarters of
	// the queued times (so a heavy tail cannot stretch the buckets), which
	// leaves the upper quarter, and any later widening of the delivery
	// window, to this margin; keys past it cost a heap operation each in
	// far. A ring entry is 8 bytes.
	ringSlack = 4
	// minRing is the smallest ring, and the one an uncalibrated queue
	// starts with: 128 bytes, one bitmap word.
	minRing = 16
	// maxRing caps the ring at 8 MiB however many keys queue up; beyond it
	// buckets simply get longer.
	maxRing = 1 << 20
	// drift is how far the population may move from calibN, either way,
	// before width and ring are recomputed. Each recalibration refiles
	// every queued key, so a factor of 4 keeps that cost a small constant
	// per push while buckets stay within 4x of their aim.
	drift = 4
	// calibFloor is the population below which a shrinking queue is left
	// alone: refiling 16 keys into a fresh ring buys nothing.
	calibFloor = 16
	// calibSample is how many queued times calibration sorts to find its
	// quantile; 64 puts the three-quarter mark within a few per cent.
	calibSample = 64
	// insertionMax is the longest day sorted by insertion; longer ones
	// (lockstep schedules put a whole step on one day) go to slices.SortFunc.
	insertionMax = 12
	// maxBucket saturates the bucket of a huge at*perBucket (policy.Clamp
	// allows delays of 1e12) so that differences of two buckets cannot
	// overflow.
	maxBucket = 1 << 61
)

// slab is a chunked array addressed by int32 refs. Chunk i has
// min(first<<i, limit) entries, first and limit being grow's arguments,
// and is never re-copied, so a small run (one of a log's thousands of
// per-slot queues) pays for a few entries while a large one grows by at
// most limit at a time. The chunks outlive
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
// chunk, or adding one, when the current chunk is full. A slab must always
// grow with the same first and limit, 1 <= first <= limit <= maxChunk.
func (s *slab[T]) grow(first, limit int) int32 {
	if s.live == 0 || s.used == len(s.chunks[s.live-1]) {
		if s.live == len(s.chunks) {
			size := limit
			if s.live < chunkShift {
				size = min(first<<s.live, limit)
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

// compareKeys is before as a three-way comparison, for slices.SortFunc.
func compareKeys(x, y eventKey) int {
	if before(&x, &y) {
		return -1
	}
	return 1 // never equal: seq is unique
}

// reset makes q the zero eventQueue again, except that it keeps its storage:
// the chunks of both slabs, rewound to the first, and the capacity of the
// active array, the ring, its bitmap, the far heap and activate's scratch.
// Nothing that reads the queue can tell the difference, so the next run
// files, calibrates and counts exactly as on a fresh one. A run that ends
// with keys still queued leaves their messages in the slab; the slots it
// used are cleared here so that a queue waiting on the idle list pins no
// Payload. Blocks hold no pointers and are overwritten before they are read.
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
		blocks: slab[block]{chunks: q.blocks.chunks},
		far:    q.far[:0],
		ends:   q.ends[:0],
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
		ref = q.slab.grow(firstChunk, maxChunk)
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

// bucketOf maps a delivery time to its bucket. It is monotone in at, which
// is all the pop order rests on; NaN and anything past maxBucket saturate.
func (q *eventQueue) bucketOf(at float64) int64 {
	b := at * q.perBucket
	if !(b < maxBucket) {
		return maxBucket
	}
	return int64(b)
}

// pushRef queues a delivery of the held message ref to process to. A key for
// a bucket inside the ring is appended to that bucket with no comparison.
func (q *eventQueue) pushRef(at float64, seq uint64, to msg.ID, ref int32) {
	q.slot(ref).refs++
	q.n++
	if q.n > q.peak {
		q.peak = q.n
	}
	k := eventKey{at: at, seq: seq, to: to, ref: ref}
	b := q.bucketOf(at)
	if uint64(b-q.today-1) < uint64(q.mask) {
		q.file(b, k)
		return
	}
	q.pushOutside(b, k)
}

// pushOutside queues a key whose bucket the ring does not cover: at or
// before today, past the horizon, or any bucket at all while there is no
// ring yet.
func (q *eventQueue) pushOutside(b int64, k eventKey) {
	switch {
	case len(q.ring) == 0:
		// First push: every key goes in bucket 0 of a minimal ring until
		// the first pop has a population to calibrate from.
		q.resizeRing(minRing)
		q.today = -1
		q.file(0, k)
		return
	case b <= q.today:
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

// file appends k to bucket b, which must be inside the ring (or today's,
// while advance is about to activate it), starting a new block when the
// newest one is full.
func (q *eventQueue) file(b int64, k eventKey) {
	i := b & q.mask
	e := &q.ring[i]
	used := e.n % blockKeys
	if used == 0 {
		if e.head == 0 {
			q.occ[i>>6] |= 1 << uint(i&63)
		}
		ref := q.newBlock()
		q.blocks.at(ref).next = e.head
		e.head = ref + 1
	}
	q.blocks.at(e.head - 1).keys[used] = k
	e.n++
}

// newBlock takes a block off the free list, or from the slab. Block chunks
// hold as many keys as slot chunks hold slots, 32 in the first and at most
// 8,192 (196 KiB): a queue that outgrows what an earlier run left adds a
// fraction of its blocks, not as many again.
func (q *eventQueue) newBlock() int32 {
	if q.blockFree != 0 {
		ref := q.blockFree - 1
		q.blockFree = q.blocks.at(ref).next
		return ref
	}
	return q.blocks.grow(firstChunk/blockKeys, maxChunk/blockKeys)
}

// freeBlock puts the block that head (its ref+1) names on the free list and
// returns the head of the block that followed it.
func (q *eventQueue) freeBlock(head int32) int32 {
	bl := q.blocks.at(head - 1)
	next := bl.next
	bl.next, q.blockFree = q.blockFree, head
	return next
}

// newestFill is how many keys the newest block of an n-key chain holds.
func newestFill(n int32) int { return int(n-1)%blockKeys + 1 }

// insertActive inserts k into the active array in (at, seq) order, searching
// from the back: a key pushed for the current bucket is usually its latest.
func (q *eventQueue) insertActive(k eventKey) {
	a := q.active
	if len(a) == cap(a) && q.head >= (len(a)+1)/2 {
		// Reuse the popped half instead of growing: a schedule that keeps
		// everything in one bucket would otherwise grow this array by one
		// key per event for the whole run.
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

// sortDay sorts one fine day by (at, seq).
func sortDay(a []eventKey) {
	if len(a) <= insertionMax {
		for i := 1; i < len(a); i++ {
			settle(a, 0, i)
		}
		return
	}
	slices.SortFunc(a, compareKeys)
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

// advance makes the earliest non-empty bucket the active one. It is called
// with the active array used up and at least one key queued elsewhere.
func (q *eventQueue) advance() {
	if q.n > drift*q.calibN || (q.n*drift < q.calibN && q.calibN > calibFloor) {
		q.calibrate()
	}
	if q.n > len(q.far) {
		q.today = q.nextBucket()
	} else {
		// The ring is empty: jump to the bucket of the earliest far key.
		// The loop below files it, and any other key of that bucket, in the
		// bucket activate is about to sort.
		q.today = q.bucketOf(q.far[0].at)
	}
	// The horizon moved with today: take in the far keys it now covers.
	for len(q.far) > 0 {
		b := q.bucketOf(q.far[0].at)
		if b-q.today > q.mask {
			break
		}
		q.file(b, q.popFar())
	}
	q.activate()
}

// activate empties bucket today into the active array in (at, seq) order
// and frees its blocks. A bucket of fewer than two fine days is copied and
// sorted whole; a longer one is scattered by fine day first.
func (q *eventQueue) activate() {
	i := q.today & q.mask
	e := q.ring[i]
	q.ring[i] = bucket{}
	q.occ[i>>6] &^= 1 << uint(i&63)
	n := int(e.n)
	a := slices.Grow(q.active[:0], n)[:n]
	q.active, q.head = a, 0
	if days := n / keysPerDay; days > 1 {
		q.scatter(a, e, days)
		return
	}
	// Newest block first, into the back of a: a keeps push order.
	end, fill := n, newestFill(e.n)
	for ref := e.head; ref != 0; ref, fill = q.freeBlock(ref), blockKeys {
		end -= copy(a[end-fill:], q.blocks.at(ref - 1).keys[:fill])
	}
	sortDay(a)
}

// scatter counting-sorts bucket e's keys into a by fine day, sorts each day
// and frees the blocks. ends[d] counts day d's keys, then marks the end of
// its place in a; each key placed moves it back, so it ends at the day's
// start. Placing the newest block first, each from its last key, keeps a
// day in push order, which is seq order for keys that share a time.
func (q *eventQueue) scatter(a []eventKey, e bucket, days int) {
	ends := slices.Grow(q.ends[:0], days)[:days]
	clear(ends)
	fill := newestFill(e.n)
	for ref := e.head; ref != 0; ref, fill = q.blocks.at(ref-1).next, blockKeys {
		bl := q.blocks.at(ref - 1)
		for j := range bl.keys[:fill] {
			ends[q.fineDay(bl.keys[j].at, days)]++
		}
	}
	sum := int32(0)
	for d, c := range ends {
		sum += c
		ends[d] = sum
	}
	fill = newestFill(e.n)
	for ref := e.head; ref != 0; ref, fill = q.freeBlock(ref), blockKeys {
		bl := q.blocks.at(ref - 1)
		for j := fill - 1; j >= 0; j-- {
			d := q.fineDay(bl.keys[j].at, days)
			ends[d]--
			a[ends[d]] = bl.keys[j]
		}
	}
	for d, start := range ends {
		end := int32(len(a))
		if d+1 < days {
			end = ends[d+1]
		}
		sortDay(a[start:end])
	}
	q.ends = ends
}

// fineDay maps a key of bucket today to one of the bucket's days fine days,
// monotonically in at: the bucket's span of at*perBucket is [today,
// today+1), cut into days equal parts. A key of the saturated bucket, or
// one with a NaN time, goes to the last day.
func (q *eventQueue) fineDay(at float64, days int) int {
	f := (at*q.perBucket - float64(q.today)) * float64(days)
	if !(f < float64(days)) {
		return days - 1
	}
	return max(int(f), 0)
}

// nextBucket returns the first non-empty bucket after today. The ring must
// hold at least one key; all of its keys are within mask buckets of today,
// so the circular distance from today+1 to the first occupied entry is the
// answer.
func (q *eventQueue) nextBucket() int64 {
	start := (q.today + 1) & q.mask
	w := int(start >> 6)
	word := q.occ[w] >> uint(start&63) << uint(start&63)
	for word == 0 {
		// After a full turn this reads the first word again, whole: the
		// entries below start are the last buckets before the horizon.
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
		q.ring, q.occ = make([]bucket, size), make([]uint64, words)
	}
	q.mask = int64(size - 1)
}

// calibrate recomputes width and ring size from the keys queued now and
// files every key again, a block at a time: it strings every block onto one
// chain, then reads the chain back, filing each key in the new ring (or
// far) and freeing each block as soon as it is read, so the refiled keys
// reuse the blocks they came from. The chain holds the active keys in
// order and each bucket's keys in push order, so keys that share a time and
// a source reach their new bucket in seq order, the order activate sorts
// fastest. It may run at any time: it leaves the active array empty and
// today just before the earliest key, which is the state advance starts
// from.
func (q *eventQueue) calibrate() {
	q.recals++
	q.calibN = max(q.n, calibFloor)

	// The chain takes the active keys, copied into blocks of their own,
	// then every bucket's blocks, then the far keys, copied likewise.
	var c chain
	q.stash(&c, q.active[q.head:])
	q.active, q.head = q.active[:0], 0
	for w, word := range q.occ {
		for ; word != 0; word &= word - 1 {
			e := q.ring[w<<6+bits.TrailingZeros64(word)]
			// Reverse the bucket's blocks, newest first, into oldest
			// first, noting each one's fill on the way.
			fill, oldest := newestFill(e.n), int32(0)
			for ref := e.head; ref != 0; {
				bl := q.blocks.at(ref - 1)
				bl.n, fill = int32(fill), blockKeys
				ref, bl.next, oldest = bl.next, oldest, ref
			}
			c.add(q, oldest, e.head)
		}
	}
	q.stash(&c, q.far)
	q.far = q.far[:0]

	// Note the earliest time and an evenly strided sample of all of them.
	var sample [calibSample]float64
	taken, stride, skip := 0, q.n/calibSample+1, 0
	lo := math.Inf(1)
	for ref := c.first; ref != 0; ref = q.blocks.at(ref - 1).next {
		bl := q.blocks.at(ref - 1)
		for j := range bl.keys[:bl.n] {
			at := bl.keys[j].at
			lo = min(lo, at)
			if skip--; skip < 0 {
				sample[taken], skip = at, stride-1
				taken++
			}
		}
	}
	s := sample[:taken]
	slices.Sort(s)

	// A bucket is bucketKeys keys long at the density of the lower three
	// quarters of the sample: hi is the sample's three-quarter mark, or the
	// first value above it that differs from lo. With none (all times
	// equal, as far as the sample shows) everything shares one bucket.
	bucketKeys := min(max(q.n/bucketShare, minBucketKeys), maxBucketKeys)
	q.perBucket = 0
	for i := taken * 3 / 4; i < taken; i++ {
		if s[i] > lo {
			below := float64(i+1) / float64(taken) * float64(q.n)
			if per := below / (float64(bucketKeys) * (s[i] - lo)); !math.IsInf(per, 0) {
				q.perBucket = per
			}
			break
		}
	}
	size := minRing
	if q.perBucket != 0 {
		for size < ringSlack*q.n/bucketKeys && size < maxRing {
			size <<= 1
		}
	}
	q.resizeRing(size)
	q.today = q.bucketOf(lo) - 1

	for ref := c.first; ref != 0; ref = q.freeBlock(ref) {
		bl := q.blocks.at(ref - 1)
		for _, k := range bl.keys[:bl.n] {
			if b := q.bucketOf(k.at); b-q.today <= q.mask {
				q.file(b, k)
			} else {
				q.pushFar(k)
			}
		}
	}
}

// chain is calibrate's list of blocks, linked through block.next from
// first to last; both are list heads, zero while it is empty.
type chain struct{ first, last int32 }

// add appends the blocks linked from first to last.
func (c *chain) add(q *eventQueue, first, last int32) {
	if c.last == 0 {
		c.first = first
	} else {
		q.blocks.at(c.last - 1).next = first
	}
	c.last = last
}

// stash copies keys, in order, into new blocks added to c.
func (q *eventQueue) stash(c *chain, keys []eventKey) {
	for len(keys) > 0 {
		ref := q.newBlock()
		bl := q.blocks.at(ref)
		used := copy(bl.keys[:], keys)
		bl.n, bl.next = int32(used), 0
		keys = keys[used:]
		c.add(q, ref+1, ref+1)
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
