package netxport

import (
	"sync"
	"sync/atomic"

	"resilient/internal/msg"
	"resilient/internal/transport"
)

// Inbox sizing. An instance of the n=7 log receives ~112 messages per slot,
// so the ring starts at inboxMinLen and doubles on demand; inboxBound is the
// most messages one inbox buffers before route blocks, pushing back on the
// sending peer's socket -- a flooding peer stalls itself instead of growing
// the receiver's memory. maxFreeInboxes bounds the closed inboxes' parts
// (ring and wake-up channels) an endpoint keeps for reuse (a log holds about
// one live instance per pipeline slot).
const (
	inboxMinLen    = 64
	inboxBound     = 1024
	maxFreeInboxes = 8
)

// inbox is one instance's buffer of messages sent to it but not yet received
// (the paper's Section 2.1 message buffer): a FIFO ring with any number of
// producers (the per-peer read loops and local sends) and consumers.
//
// ready and space are wake-up tokens, not counters: a goroutine that finds
// the ring empty (full) sleeps on ready (space) and re-checks the ring under
// mu when it wakes. A woken goroutine that leaves its condition still true
// passes the token on, so several sleepers on one side all get through; a
// stale token costs one extra look. No channel operation happens under mu.
//
// close sets closed and detaches the ring in one critical section of mu, and
// put checks closed and writes its slot in one: a put that raced with close
// either landed before it (and is discarded with the rest) or sees closed and
// drops, so it can never write into an array that has since been recycled
// into another instance. closed is atomic only so that Send's advisory check
// stays off the lock the read loops are contending for.
//
// The wake-up channels are recycled too, but only from an inbox that nobody
// sleeps on when it closes (sleepers == 0): a goroutine that finds the inbox
// closed under mu never sleeps on it, so the channels' only later users are
// the next inbox's goroutines and the token a put or get may still leave
// after it unlocked -- one extra look for the next claimant. An inbox closed
// under a sleeper keeps its channels, which that sleeper still needs to be
// woken through.
type inbox struct {
	mu       sync.Mutex
	ring     []msg.Message // power-of-two length; nil once closed
	head     int           // index of the oldest buffered message
	n        int           // buffered messages
	sleepers int           // goroutines asleep (or about to be) on ready or space
	closed   atomic.Bool   // set once, under mu

	ready chan struct{} // cap 1: the ring may be non-empty, or closed
	space chan struct{} // cap 1: the ring may be below the bound, or closed
}

// inboxParts is what a closed inbox hands on to the next one: its ring,
// zeroed, and its wake-up channels, nil when a sleeper still needed them.
type inboxParts struct {
	ring         []msg.Message
	ready, space chan struct{}
}

// putResult is what became of a message handed to put.
type putResult int

const (
	putOK       putResult = iota
	putClosed             // the inbox was closed: message dropped
	putShutdown           // done fired while blocked at the bound
)

// init readies a zero inbox over p's ring, whose length is a power of two,
// and p's wake-up channels, making new ones when p has none.
func (q *inbox) init(p inboxParts) {
	q.ring, q.ready, q.space = p.ring, p.ready, p.space
	if q.ready == nil {
		q.ready = make(chan struct{}, 1)
		q.space = make(chan struct{}, 1)
	}
}

// awake uncounts a sleeper that leaves without taking mu to re-check the
// ring.
func (q *inbox) awake() {
	q.mu.Lock()
	q.sleepers--
	q.mu.Unlock()
}

// wake leaves a token in a wake-up channel unless one is already there.
func wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// put appends m, blocking while the ring holds inboxBound messages.
func (q *inbox) put(m msg.Message, done <-chan struct{}) putResult {
	woken := false
	for {
		q.mu.Lock()
		if woken {
			q.sleepers-- // every turn after the first follows a sleep
		}
		if q.closed.Load() {
			q.mu.Unlock()
			if woken {
				wake(q.space) // release the next producer blocked at the bound
			}
			return putClosed
		}
		if q.n < inboxBound {
			if q.n == len(q.ring) {
				q.grow()
			}
			q.ring[(q.head+q.n)&(len(q.ring)-1)] = m
			q.n++
			room := q.n < inboxBound
			q.mu.Unlock()
			wake(q.ready)
			if woken && room {
				wake(q.space)
			}
			return putOK
		}
		q.sleepers++
		q.mu.Unlock()
		select {
		case <-q.space:
			woken = true
		case <-done:
			q.awake()
			return putShutdown
		}
	}
}

// grow doubles the ring, unrolling it to start at index 0. Called with mu
// held and the ring full.
func (q *inbox) grow() {
	next := make([]msg.Message, 2*len(q.ring))
	k := copy(next, q.ring[q.head:])
	copy(next[k:], q.ring[:q.head])
	q.ring, q.head = next, 0
}

// get removes the oldest message, blocking while the ring is empty. It
// returns transport.ErrClosed once the inbox is closed or done has fired.
func (q *inbox) get(done <-chan struct{}) (msg.Message, error) {
	woken := false
	for {
		select {
		case <-done:
			if woken {
				q.awake()
			}
			return msg.Message{}, transport.ErrClosed
		default:
		}
		q.mu.Lock()
		if woken {
			q.sleepers-- // every turn after the first follows a sleep
		}
		if q.closed.Load() {
			q.mu.Unlock()
			if woken {
				wake(q.ready) // release the next blocked consumer
			}
			return msg.Message{}, transport.ErrClosed
		}
		if q.n > 0 {
			m := q.ring[q.head]
			q.ring[q.head] = msg.Message{} // a read slot must not pin its Payload
			q.head = (q.head + 1) & (len(q.ring) - 1)
			q.n--
			wasFull := q.n == inboxBound-1
			more := q.n > 0
			q.mu.Unlock()
			if wasFull {
				wake(q.space)
			}
			if woken && more {
				wake(q.ready)
			}
			return m, nil
		}
		q.sleepers++
		q.mu.Unlock()
		select {
		case <-q.ready:
			woken = true
		case <-done:
			q.awake()
			return msg.Message{}, transport.ErrClosed
		}
	}
}

// close marks the inbox closed, discards what is buffered and wakes every
// blocked put and get. The first call returns the inbox's parts for reuse by
// another inbox (the ring zeroed; the channels only if nobody sleeps on
// them); later calls return zero parts.
func (q *inbox) close() inboxParts {
	q.mu.Lock()
	if q.closed.Load() {
		q.mu.Unlock()
		return inboxParts{}
	}
	q.closed.Store(true)
	p := inboxParts{ring: q.ring}
	for i := 0; i < q.n; i++ {
		p.ring[(q.head+i)&(len(p.ring)-1)] = msg.Message{}
	}
	q.ring, q.head, q.n = nil, 0, 0
	asleep := q.sleepers > 0
	if !asleep {
		p.ready, p.space = q.ready, q.space
	}
	q.mu.Unlock()
	if asleep {
		wake(q.ready)
		wake(q.space)
	}
	return p
}
