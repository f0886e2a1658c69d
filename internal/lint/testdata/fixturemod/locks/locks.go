// Package locks exercises the lockblock rule: each blocking shape appears
// once — a channel send, time.Sleep, a configured blocking function, and
// calls that reach a blocking operation through helpers (one helper with two
// blocking callees, whose finding must name the same callee on every run) —
// alongside the blessed idioms: sync.Cond.Wait backpressure, defer-guarded
// and early-return unlocks, goroutine handoff (including a method value as
// the entry point), and an annotated deliberate flush-under-lock, all of
// which must stay legal.
package locks

import (
	"net"
	"sync"
	"time"

	"fixture/core"
)

// Queue is a fixture send queue; Queue.mu is one lock class shared by every
// instance.
type Queue struct {
	mu   sync.Mutex
	cond *sync.Cond
	ch   chan core.Msg
	out  core.Sender
	n    int
}

// Table is a second lock class, taken as a read lock.
type Table struct {
	mu sync.RWMutex
	m  map[int]int
}

// SendUnderLock sends on a channel while Queue.mu is held: lockblock finding.
func (q *Queue) SendUnderLock(m core.Msg) {
	q.mu.Lock()
	q.ch <- m
	q.mu.Unlock()
}

// SleepUnderLock sleeps inside the critical section: lockblock finding.
func (q *Queue) SleepUnderLock() {
	q.mu.Lock()
	defer q.mu.Unlock()
	time.Sleep(time.Millisecond)
}

// ConnUnderLock performs the configured blocking send (core.Sender.Send)
// while the lock is held: lockblock finding.
func (q *Queue) ConnUnderLock(m core.Msg) {
	q.mu.Lock()
	defer q.mu.Unlock()
	_ = q.out.Send(m)
}

// DialDeep reaches net.Dial through a helper two calls down: the transitive
// summary reports lockblock at the outer call.
func (q *Queue) DialDeep() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.redial()
}

func (q *Queue) redial() { _, _ = dial() }

func dial() (net.Conn, error) { return net.Dial("tcp", "localhost:0") }

// TwoWaysUnderLock calls, under the lock, a helper that reaches two
// blocking callees: one lockblock finding, whose message names the same
// callee on every run.
func (q *Queue) TwoWaysUnderLock() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.twoWays()
}

func (q *Queue) twoWays() {
	sleepy()
	q.chatty()
}

func sleepy() { time.Sleep(time.Millisecond) }

func (q *Queue) chatty() { q.ch <- core.Msg{} }

// Wait blocks on the condition variable with the lock held: sync.Cond.Wait
// releases the mutex while waiting (the blessed backpressure idiom), so no
// finding.
func (q *Queue) Wait() {
	q.mu.Lock()
	for q.n == 0 {
		q.cond.Wait()
	}
	q.n--
	q.mu.Unlock()
}

// SendAfterUnlock releases the lock before the channel send: no finding.
func (q *Queue) SendAfterUnlock(m core.Msg) {
	q.mu.Lock()
	q.n++
	q.mu.Unlock()
	q.ch <- m
}

// EarlyReturn unlocks on every path before blocking, exercising the
// branch-merge logic: no finding.
func (q *Queue) EarlyReturn(m core.Msg) bool {
	q.mu.Lock()
	if q.n == 0 {
		q.mu.Unlock()
		return false
	}
	q.n--
	q.mu.Unlock()
	q.ch <- m
	return true
}

// Spawn starts the pump under the lock: the goroutine body runs on its own
// stack, so its blocking receive is not charged to this critical section.
func (q *Queue) Spawn() {
	q.mu.Lock()
	go q.pump()
	q.mu.Unlock()
}

// PumpValue uses the pump method value as the goroutine entry point; the
// driver must parse the shape and still not charge pump's blocking to the
// critical section.
func (q *Queue) PumpValue() {
	q.mu.Lock()
	f := q.pump
	q.mu.Unlock()
	go f()
}

// pump drains the channel; it blocks, but never under a lock.
func (q *Queue) pump() {
	for m := range q.ch {
		q.n += m.Value
	}
}

// FlushLocked deliberately writes under the lock — the coalescing-flush
// idiom — behind a reasoned allow: suppressed.
func (q *Queue) FlushLocked(m core.Msg) {
	q.mu.Lock()
	defer q.mu.Unlock()
	//lint:allow lockblock fixture demo: deliberate coalescing flush under the link lock
	_ = q.out.Send(m)
}

// Get takes the read lock with a defer guard: no finding.
func (t *Table) Get(k int) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.m[k]
}
