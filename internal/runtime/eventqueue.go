package runtime

import "resilient/internal/msg"

// eventQueue holds the pending deliveries in two parts: a 4-ary min-heap of
// 24-byte keys ordered by (at, seq), and a slab of reference-counted message
// slots the keys point into. The heap moves only keys, so a sift level
// compares four children that share one or two cache lines, and the key
// array holds no pointers for the collector to scan. A broadcast stores its
// message once (hold) and pushes one key per recipient (pushRef); the slot
// is zeroed and recycled when its last reference goes.
//
// The ordering key (at, seq) is a strict total order -- seq is unique per
// run -- so pop order is identical to the binary container/heap of whole
// events this replaced: neither the heap arity nor where the message lives
// changes which event is the minimum.
type eventQueue struct {
	keys []eventKey
	// chunks is the slab. Chunk i has min(firstChunk<<i, maxChunk) slots
	// and is never re-copied, so a small run (or one of RunMulti's
	// thousands of per-slot queues) pays for 32 slots while a large one
	// grows by at most maxChunk slots at a time.
	chunks [][]slot
	// used counts the slots of the last chunk handed out so far.
	used int
	// free heads the list of recycled slots, linked through slot.next. Both
	// fields store ref+1, so that zero ends the list and the zero
	// eventQueue is ready to use.
	free int32
}

// eventKey is one heap entry; ref locates its message in the slab.
type eventKey struct {
	at  float64
	seq uint64
	to  msg.ID
	ref int32
}

// slot is one slab entry: a message and the number of holders and queued
// keys that reference it. While a slot is on the free list refs is zero, m
// is the zero Message and next links the following free slot.
type slot struct {
	m    msg.Message
	refs int32
	next int32
}

const (
	firstKeys       = 32
	firstChunkShift = 5
	firstChunk      = 1 << firstChunkShift
	// A ref is chunk<<chunkShift | offset, so every chunk owns maxChunk
	// refs whether or not it is large enough to use them all.
	chunkShift = 13
	maxChunk   = 1 << chunkShift
)

// before reports whether a orders strictly before b.
func before(a, b *eventKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// len returns the number of queued events.
func (q *eventQueue) len() int { return len(q.keys) }

// peekAt returns the delivery time of the minimum event without removing it
// or touching the slab.
func (q *eventQueue) peekAt() (float64, bool) {
	if len(q.keys) == 0 {
		return 0, false
	}
	return q.keys[0].at, true
}

func (q *eventQueue) slot(ref int32) *slot {
	return &q.chunks[ref>>chunkShift][ref&(maxChunk-1)]
}

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
		last := len(q.chunks) - 1
		if last < 0 || q.used == len(q.chunks[last]) {
			last++
			size := maxChunk
			if last < chunkShift-firstChunkShift {
				size = firstChunk << last
			}
			q.chunks = append(q.chunks, make([]slot, size))
			q.used = 0
		}
		ref = int32(last<<chunkShift | q.used)
		q.used++
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

// pushRef queues a delivery of the held message ref to process to, sifting
// its key up to its heap position.
func (q *eventQueue) pushRef(at float64, seq uint64, to msg.ID, ref int32) {
	q.slot(ref).refs++
	i := len(q.keys)
	if i == cap(q.keys) {
		// Doubled by hand: append's 1.25x regrowth of a large array
		// re-copies it about five times over for the same final size.
		grown := make([]eventKey, i, max(firstKeys, 2*i))
		copy(grown, q.keys)
		q.keys = grown
	}
	q.keys = q.keys[:i+1]
	h := q.keys
	k := eventKey{at: at, seq: seq, to: to, ref: ref}
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

// pop removes and returns the minimum event, dropping its reference to the
// message slot. It must not be called on an empty queue.
func (q *eventQueue) pop() event {
	top := q.keys[0]
	n := len(q.keys) - 1
	k := q.keys[n]
	q.keys = q.keys[:n]
	if n > 0 {
		q.siftDown(k)
	}
	e := event{at: top.at, seq: top.seq, to: top.to, m: q.slot(top.ref).m}
	q.release(top.ref)
	return e
}

// siftDown places k, the key displaced from the end of the heap, starting
// from the vacated root.
func (q *eventQueue) siftDown(k eventKey) {
	h := q.keys
	n := len(h)
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
	h[i] = k
}
