package runtime

import (
	"bytes"
	"container/heap"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"resilient/internal/msg"
)

// event is one delivery as the oracle tests see it: a key with the message
// it refers to.
type event struct {
	at  float64
	seq uint64
	to  msg.ID
	m   msg.Message
}

// popEvent pops the minimum key, reads its message from the key's slot and
// releases the key's reference, as runner.stepNext does around a step.
func (q *eventQueue) popEvent() event {
	k := q.pop()
	e := event{at: k.at, seq: k.seq, to: k.to, m: q.slot(k.ref).m}
	q.release(k.ref)
	return e
}

// push queues e on a message slot of its own, as runner.dispatch does for a
// unicast.
func (q *eventQueue) push(e event) {
	ref := q.hold(e.m)
	q.pushRef(e.at, e.seq, e.to, ref)
	q.release(ref)
}

// each calls f for every queued key, in no particular order. It is the one
// place a test may know where the queue keeps its keys.
func (q *eventQueue) each(f func(eventKey)) {
	for _, k := range q.active[q.head:] {
		f(k)
	}
	for _, e := range q.ring {
		if e.n == 0 {
			continue
		}
		fill := newestFill(e.n)
		for ref := e.head; ref != 0; ref = q.blocks.at(ref - 1).next {
			for _, k := range q.blocks.at(ref - 1).keys[:fill] {
				f(k)
			}
			fill = blockKeys
		}
	}
	for _, k := range q.far {
		f(k)
	}
}

// slotCounts walks the slab: how many slots were ever handed out, how many
// of those are referenced, and how long the free list is.
func (q *eventQueue) slotCounts() (allocated, live, free int) {
	for i, c := range q.chunks[:q.live] {
		n := len(c)
		if i == q.live-1 {
			n = q.used
		}
		allocated += n
		for j := range c[:n] {
			if c[j].refs > 0 {
				live++
			}
		}
	}
	for f := q.free; f != 0 && free <= allocated; f = q.slot(f - 1).next {
		free++
	}
	return allocated, live, free
}

// refHeap is the container/heap implementation the typed queue replaced,
// kept here as the ordering oracle.
type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestEventQueueMatchesContainerHeap drives the queue and the
// container/heap oracle with identical interleaved push/pop sequences,
// including duplicate timestamps (where the seq tiebreak decides), and
// requires identical pop orders.
func TestEventQueueMatchesContainerHeap(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		var q eventQueue
		var ref refHeap
		var seq uint64
		for op := 0; op < 5000; op++ {
			if q.len() != ref.Len() {
				t.Fatalf("seed %d op %d: len %d vs %d", seed, op, q.len(), ref.Len())
			}
			if rng.IntN(3) != 0 || ref.Len() == 0 {
				seq++
				// Coarse timestamps force frequent at-ties.
				e := event{at: float64(rng.IntN(50)), seq: seq}
				q.push(e)
				heap.Push(&ref, e)
				continue
			}
			got := q.popEvent()
			want := heap.Pop(&ref).(event)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("seed %d op %d: popped (at=%v seq=%d), oracle (at=%v seq=%d)",
					seed, op, got.at, got.seq, want.at, want.seq)
			}
		}
		for ref.Len() > 0 {
			got, want := q.popEvent(), heap.Pop(&ref).(event)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("seed %d drain: popped seq=%d, oracle seq=%d", seed, got.seq, want.seq)
			}
		}
		if q.len() != 0 {
			t.Fatalf("seed %d: queue not drained", seed)
		}
	}
}

func TestEventQueuePeek(t *testing.T) {
	var q eventQueue
	if _, ok := q.peekAt(); ok {
		t.Fatal("peekAt on empty queue returned ok")
	}
	q.push(event{at: 2, seq: 1})
	q.push(event{at: 1, seq: 2})
	if at, ok := q.peekAt(); !ok || at != 1 {
		t.Fatalf("peekAt = (%v, %v), want 1", at, ok)
	}
	if q.len() != 2 {
		t.Fatalf("peek consumed an event: len=%d", q.len())
	}
}

// TestEventQueuePushPopNoAllocs locks in the reason the typed queue exists:
// steady-state push/pop traffic must not allocate (container/heap boxed
// every event through any).
func TestEventQueuePushPopNoAllocs(t *testing.T) {
	var q eventQueue
	for i := 0; i < 1024; i++ { // pre-grow the backing array
		q.push(event{at: float64(i), seq: uint64(i)})
	}
	for q.len() > 0 {
		q.popEvent()
	}
	var seq uint64
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 512; i++ {
			seq++
			q.push(event{at: float64(seq % 97), seq: seq})
		}
		for q.len() > 0 {
			q.popEvent()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocated %.1f times per round", allocs)
	}

	// A reset queue serves the population it once held from the storage it
	// kept, and a small run on it stays inside the first chunks.
	allocs = testing.AllocsPerRun(100, func() {
		q.reset()
		for i := 0; i < 1024; i++ {
			q.push(event{at: float64(i), seq: uint64(i)})
		}
		for q.len() > 512 {
			q.popEvent()
		}
	})
	if allocs != 0 {
		t.Fatalf("refilling a reset queue allocated %.1f times per round", allocs)
	}
	q.reset()
	for i := 0; i < firstChunk; i++ {
		q.push(event{at: float64(i), seq: uint64(i)})
	}
	if q.live != 1 || q.blocks.live != 1 || len(q.chunks) < 2 {
		t.Fatalf("%d keys on a reset queue use %d of %d slot chunks and %d block chunks, want the first of each",
			firstChunk, q.live, len(q.chunks), q.blocks.live)
	}
}

// TestEventQueueSharedSlotsMatchOracle interleaves unicast pushes, broadcasts
// that share one slot among 0..5 keys, and pops, against the container/heap
// oracle of whole events. Every pop must return the oracle's (at, seq, to, m),
// and after every operation each slot ever handed out is either referenced
// by a queued key or on the free list.
func TestEventQueueSharedSlotsMatchOracle(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 11))
		var q eventQueue
		var ref refHeap
		var seq uint64
		queued := map[msg.Phase]int{} // keys outstanding per message, by its unique Phase
		var nextMsg msg.Phase
		newMessage := func() msg.Message {
			nextMsg++
			m := msg.Message{Kind: msg.KindEcho, From: msg.ID(rng.IntN(31)), Phase: nextMsg}
			if rng.IntN(4) == 0 {
				m.Payload = []byte{byte(nextMsg), byte(nextMsg >> 8)}
			}
			return m
		}
		newEvent := func(m msg.Message) event {
			seq++
			return event{at: float64(rng.IntN(50)), seq: seq, to: msg.ID(rng.IntN(31)), m: m}
		}
		for op := 0; op < 5000; op++ {
			switch c := rng.IntN(6); {
			case c < 2:
				e := newEvent(newMessage())
				q.push(e)
				heap.Push(&ref, e)
				queued[e.m.Phase]++
			case c == 2:
				m := newMessage()
				held := q.hold(m)
				for i := rng.IntN(6); i > 0; i-- { // zero keys: the hold alone must not leak
					e := newEvent(m)
					q.pushRef(e.at, e.seq, e.to, held)
					heap.Push(&ref, e)
					queued[m.Phase]++
				}
				q.release(held)
			case ref.Len() > 0:
				got, want := q.popEvent(), heap.Pop(&ref).(event)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d: popped %+v, oracle %+v", seed, op, got, want)
				}
				if queued[want.m.Phase]--; queued[want.m.Phase] == 0 {
					delete(queued, want.m.Phase)
				}
			}
			if q.len() != ref.Len() {
				t.Fatalf("seed %d op %d: len %d vs %d", seed, op, q.len(), ref.Len())
			}
			allocated, live, free := q.slotCounts()
			if live != len(queued) || live+free != allocated {
				t.Fatalf("seed %d op %d: %d slots allocated, %d live (want %d), %d free",
					seed, op, allocated, live, len(queued), free)
			}
		}
	}
}

// TestEventQueueZeroesVacatedSlot checks that a slot whose last reference
// goes holds a zero Message, so a recycled slot pins no Payload.
func TestEventQueueZeroesVacatedSlot(t *testing.T) {
	var q eventQueue
	m := msg.Message{Kind: msg.KindGraph, From: 3, Payload: []byte("pinned")}
	ref := q.hold(m)
	q.pushRef(1, 1, 0, ref)
	q.pushRef(2, 2, 1, ref)
	q.release(ref)
	q.popEvent()
	if s := q.slot(ref); s.refs != 1 || s.m.Payload == nil {
		t.Fatalf("slot with a queued key left was vacated: %+v", *s)
	}
	if e := q.popEvent(); string(e.m.Payload) != "pinned" || e.m.From != 3 {
		t.Fatalf("last pop returned %+v", e.m)
	}
	if s := q.slot(ref); s.refs != 0 || !reflect.DeepEqual(s.m, msg.Message{}) {
		t.Fatalf("vacated slot not zeroed: %+v", *s)
	}
}

// TestEventQueueChunkGrowthAndReuse fills the slab past a chunk boundary,
// checks that refs stay valid across it, and that after a full drain the
// same load is served from the free list without growing the slab.
func TestEventQueueChunkGrowthAndReuse(t *testing.T) {
	var q eventQueue
	const load = firstChunk + firstChunk/2
	fill := func() {
		for i := 0; i < load; i++ {
			q.push(event{at: float64(i), seq: uint64(i), m: msg.Message{Phase: msg.Phase(i)}})
		}
	}
	drain := func(label string) {
		for i := 0; i < load; i++ {
			if e := q.popEvent(); e.seq != uint64(i) || e.m.Phase != msg.Phase(i) {
				t.Fatalf("%s: pop %d returned seq %d with message %d", label, i, e.seq, e.m.Phase)
			}
		}
	}
	fill()
	if len(q.chunks) != 2 || len(q.chunks[1]) != 2*firstChunk {
		t.Fatalf("after %d slots: %d chunks, want 2 with the second doubled", load, len(q.chunks))
	}
	drain("first fill")
	if allocated, live, free := q.slotCounts(); allocated != load || live != 0 || free != load {
		t.Fatalf("after drain: %d allocated, %d live, %d free, want %d/0/%d", allocated, live, free, load, load)
	}
	fill()
	if allocated, live, free := q.slotCounts(); len(q.chunks) != 2 || allocated != load || live != load || free != 0 {
		t.Fatalf("refill grew the slab: %d chunks, %d allocated, %d live, %d free", len(q.chunks), allocated, live, free)
	}
	drain("refill")
}

// queuePair drives the queue and the container/heap oracle with the same
// operations. Every pop must return the oracle's (at, seq, to, m), and after
// every operation the two agree on length and each slot ever handed out is
// either referenced by a queued key or on the free list.
type queuePair struct {
	t       testing.TB
	q       eventQueue
	ref     refHeap
	seq     uint64
	nextMsg msg.Phase
	queued  map[msg.Phase]int // keys outstanding per message, by its unique Phase
	last    float64           // time of the latest pop
	checks  int
}

func newQueuePair(t testing.TB) *queuePair {
	return &queuePair{t: t, queued: map[msg.Phase]int{}}
}

// send queues one message for delivery at each of the given times, as a
// broadcast does: one slot, one key per time (none: the hold alone must not
// leak).
func (p *queuePair) send(ats ...float64) {
	p.nextMsg++
	m := msg.Message{Kind: msg.KindEcho, From: msg.ID(p.nextMsg % 31), Phase: p.nextMsg}
	held := p.q.hold(m)
	for _, at := range ats {
		p.seq++
		e := event{at: at, seq: p.seq, to: msg.ID(p.seq % 29), m: m}
		p.q.pushRef(e.at, e.seq, e.to, held)
		heap.Push(&p.ref, e)
		p.queued[m.Phase]++
	}
	p.q.release(held)
	p.check()
}

func (p *queuePair) pop() {
	p.t.Helper()
	wantAt := p.ref[0].at
	if at, ok := p.q.peekAt(); !ok || at != wantAt {
		p.t.Fatalf("peekAt = (%v, %v), oracle %v", at, ok, wantAt)
	}
	got, want := p.q.popEvent(), heap.Pop(&p.ref).(event)
	if !reflect.DeepEqual(got, want) {
		p.t.Fatalf("popped %+v, oracle %+v", got, want)
	}
	if p.queued[want.m.Phase]--; p.queued[want.m.Phase] == 0 {
		delete(p.queued, want.m.Phase)
	}
	p.last = want.at
	p.check()
}

// reset recycles the queue as Run does between two runs, with whatever keys
// are still queued, and starts the oracle afresh. seq and last carry on, so
// the next pushes land on a zero queue at times far from zero.
func (p *queuePair) reset() {
	p.t.Helper()
	p.q.reset()
	p.ref = p.ref[:0]
	clear(p.queued)
	p.check()
}

func (p *queuePair) drain() {
	p.t.Helper()
	for p.ref.Len() > 0 {
		p.pop()
	}
	if _, ok := p.q.peekAt(); ok {
		p.t.Fatal("peekAt on drained queue returned ok")
	}
}

func (p *queuePair) check() {
	p.t.Helper()
	if p.q.len() != p.ref.Len() {
		p.t.Fatalf("len %d, oracle %d", p.q.len(), p.ref.Len())
	}
	if p.checks++; p.q.live > 6 && p.checks%1024 != 0 {
		return // past 2,016 slots the walk below is sampled
	}
	allocated, live, free := p.q.slotCounts()
	if live != len(p.queued) || live+free != allocated {
		p.t.Fatalf("%d slots allocated, %d live (want %d), %d free", allocated, live, len(p.queued), free)
	}
	keys := 0
	p.q.each(func(eventKey) { keys++ })
	if keys != p.ref.Len() {
		p.t.Fatalf("%d keys filed, %d queued", keys, p.ref.Len())
	}
}

// TestEventQueueLockstep is the degenerate calendar: every queued time is
// equal, so there is no width to compute and one bucket holds everything; then
// a lockstep schedule (each delivery sends for exactly one step later) keeps
// the queue on two distinct times for the rest of the run.
func TestEventQueueLockstep(t *testing.T) {
	p := newQueuePair(t)
	rng := rand.New(rand.NewPCG(3, 3))
	for i := 0; i < 1000; i++ {
		p.send(1)
	}
	for step := 0; step < 20000 && p.ref.Len() > 0; step++ {
		p.pop()
		switch rng.IntN(4) {
		case 0:
		case 1:
			p.send(p.last+1, p.last+1, p.last+1)
		default:
			p.send(p.last + 1)
		}
	}
	p.drain()
}

// TestEventQueueNonMonotonePushes pushes keys that order before the last
// popped one (the engine never does; the queue's order must not depend on
// that), onto the active bucket, and exactly on the last popped time.
func TestEventQueueNonMonotonePushes(t *testing.T) {
	p := newQueuePair(t)
	rng := rand.New(rand.NewPCG(5, 5))
	for i := 0; i < 400; i++ {
		p.send(100 + rng.Float64())
	}
	for i := 0; i < 100; i++ {
		p.pop()
	}
	for op := 0; op < 3000; op++ {
		switch rng.IntN(6) {
		case 0:
			p.send(p.last - rng.Float64()*100) // far below: a bucket long gone
		case 1:
			p.send(p.last - 1e-9*rng.Float64()) // just below: the active bucket or the one before
		case 2:
			p.send(p.last, p.last) // ties with the last pop: seq decides
		case 3:
			p.send(p.last + rng.Float64())
		default:
			if p.ref.Len() > 0 {
				p.pop()
			}
		}
	}
	p.drain()
}

// tailDelay draws Uniform[0.1, 1), except that one draw in oneIn is
// 1e9..1e12 (policy.Clamp's ceiling): a key for the overflow store.
func tailDelay(rng *rand.Rand, oneIn int) float64 {
	if rng.IntN(oneIn) == 0 {
		return math.Pow(10, 9+3*rng.Float64())
	}
	return 0.1 + 0.9*rng.Float64()
}

// TestEventQueueHeavyTail interleaves pops with pushes whose delay is
// Uniform[0.1, 1) except for 1 % at 1e9..1e12 (policy.Clamp's ceiling). The
// tail must wait in the overflow store without stretching the buckets of the
// rest, and come back in order once the bulk has drained.
func TestEventQueueHeavyTail(t *testing.T) {
	p := newQueuePair(t)
	rng := rand.New(rand.NewPCG(7, 7))
	delay := func() float64 { return tailDelay(rng, 100) }
	for i := 0; i < 500; i++ {
		p.send(delay())
	}
	for op := 0; op < 40000; op++ {
		if rng.IntN(5) < 2 && p.ref.Len() > 0 {
			p.pop()
			continue
		}
		p.send(p.last+delay(), p.last+delay())
	}
	if p.q.farKeys == 0 {
		t.Fatal("no key ever reached the overflow store")
	}
	p.send(1e12, 1e12, p.last+1e12) // the ceiling itself, twice on one time
	p.drain()
}

// TestEventQueueResetMidRun resets a queue that holds keys in the active
// array, the ring and the overflow store at once -- a run that ends on its
// last decision leaves all three populated -- and then drives it against a
// fresh oracle: no key of the abandoned run may come back, and the new ones
// must pop in order from a calendar calibrated for them alone.
func TestEventQueueResetMidRun(t *testing.T) {
	p := newQueuePair(t)
	rng := rand.New(rand.NewPCG(13, 13))
	delay := func() float64 { return tailDelay(rng, 20) }
	for round := 0; round < 4; round++ {
		for i := 0; i < 2000>>round; i++ {
			p.send(p.last+delay(), p.last+delay())
			if i%3 == 0 {
				p.pop()
			}
		}
		// A pop that takes the last key of the active bucket leaves the
		// array empty; pop on to a bucket that has keys left.
		for len(p.q.active) == p.q.head {
			p.pop()
		}
		ringed := slices.ContainsFunc(p.q.occ, func(w uint64) bool { return w != 0 })
		if len(p.q.active) == p.q.head || !ringed || len(p.q.far) == 0 {
			t.Fatalf("round %d: %d active keys, ring occupied %v, %d overflow keys; want some in each",
				round, len(p.q.active)-p.q.head, ringed, len(p.q.far))
		}
		p.reset()
		if p.q.recals != 0 || p.q.farKeys != 0 || p.q.peak != 0 {
			t.Fatalf("round %d: reset queue reports %d calibrations, %d overflow keys, peak %d",
				round, p.q.recals, p.q.farKeys, p.q.peak)
		}
	}
	for i := 0; i < 300; i++ {
		p.send(p.last+delay(), p.last+delay(), p.last+delay())
		p.pop()
	}
	p.drain()
}

// TestEventQueueGrowthAndShrink takes the population 10 -> 1e5 -> 10 and up
// again, so that width and ring are recalibrated in both directions with
// keys in every store.
func TestEventQueueGrowthAndShrink(t *testing.T) {
	p := newQueuePair(t)
	rng := rand.New(rand.NewPCG(9, 9))
	at := func() float64 { return p.last + rng.Float64() }
	for p.ref.Len() < 10 {
		p.send(at())
	}
	p.pop()
	for p.ref.Len() < 100_000 {
		p.send(at(), at(), at(), at(), at(), at(), at())
		p.pop()
	}
	grown := p.q.recals
	if grown < 4 {
		t.Fatalf("%d calibrations on the way to 1e5 keys, want one per 4x", grown)
	}
	for p.ref.Len() > 10 {
		p.pop()
	}
	if p.q.recals-grown < 4 {
		t.Fatalf("%d calibrations on the way back to 10 keys, want one per 4x", p.q.recals-grown)
	}
	for p.ref.Len() < 1000 {
		p.send(at(), at())
	}
	p.drain()
}

// TestEventQueueOverflowKeyOnActivatedDay empties the ring while the
// overflow store holds several keys of one bucket: the jump to that bucket
// must take all of them into it before it is sorted, not only the first.
// Enough keys wait there that the drained ring is no reason to recalibrate.
func TestEventQueueOverflowKeyOnActivatedDay(t *testing.T) {
	p := newQueuePair(t)
	rng := rand.New(rand.NewPCG(11, 11))
	for i := 0; i < 100; i++ {
		p.send(rng.Float64())
	}
	p.pop() // calibrated: buckets are a few hundredths long, the horizon a few units
	for i := 0; i < 10; i++ {
		base := 1000 + float64(i)/2
		p.send(base+0.001, base, base+0.06, base, base+0.0005)
	}
	if p.q.farKeys != 50 {
		t.Fatalf("%d keys in the overflow store, want 50", p.q.farKeys)
	}
	for p.last < 1000 {
		p.pop()
	}
	if p.q.recals != 1 {
		t.Fatalf("%d calibrations before the jump, want the first one only", p.q.recals)
	}
	p.drain()
}

// spread sends n keys at Uniform[0, span) and pops one, which calibrates
// the queue for them.
func (p *queuePair) spread(rng *rand.Rand, n int, span float64) {
	for i := 0; i < n; i++ {
		p.send(span * rng.Float64())
	}
	p.pop()
}

// bucketEdge returns the earliest time in bucket b of q's calibration.
func bucketEdge(q *eventQueue, b int64) float64 {
	at := float64(b) / q.perBucket
	for q.bucketOf(at) >= b {
		at = math.Nextafter(at, math.Inf(-1))
	}
	for q.bucketOf(at) < b {
		at = math.Nextafter(at, math.Inf(1))
	}
	return at
}

// dayEdge returns the earliest time in fine day d of bucket b when
// activate cuts it into days fine days.
func dayEdge(q *eventQueue, b int64, days, d int) float64 {
	c := eventQueue{perBucket: q.perBucket, today: b}
	at := (float64(b) + float64(d)/float64(days)) / q.perBucket
	for c.fineDay(at, days) >= d {
		at = math.Nextafter(at, math.Inf(-1))
	}
	for c.fineDay(at, days) < d {
		at = math.Nextafter(at, math.Inf(1))
	}
	return at
}

// TestEventQueueBucketAndDayEdges puts keys on the first and last time of
// buckets and on both sides of fine-day boundaries, with ties, and checks
// that each edge is where the queue cuts. A key's bucket and fine day are
// computed in floating point, so an edge is where rounding decides which
// side a key falls on; either side must pop in (at, seq) order.
func TestEventQueueBucketAndDayEdges(t *testing.T) {
	p := newQueuePair(t)
	rng := rand.New(rand.NewPCG(17, 17))
	p.spread(rng, 2000, 10)
	const added = 8
	first := p.q.bucketOf(5)
	for b := first; b < first+4; b++ {
		if b-p.q.today > p.q.mask {
			t.Fatalf("bucket %d is past the horizon %d+%d", b, p.q.today, p.q.mask)
		}
		edge, next := bucketEdge(&p.q, b), bucketEdge(&p.q, b+1)
		last := math.Nextafter(next, math.Inf(-1))
		if p.q.bucketOf(math.Nextafter(edge, math.Inf(-1))) != b-1 || p.q.bucketOf(last) != b {
			t.Fatalf("bucket %d: the edges found are not where bucketOf cuts", b)
		}
		days := (int(p.q.ring[b&p.q.mask].n) + added) / keysPerDay
		c := eventQueue{perBucket: p.q.perBucket, today: b}
		ats := []float64{edge, edge, last, last}
		for _, d := range []int{1, days - 1} {
			at := dayEdge(&p.q, b, days, d)
			below := math.Nextafter(at, math.Inf(-1))
			if c.fineDay(at, days) != d || c.fineDay(below, days) != d-1 {
				t.Fatalf("bucket %d: day %d of %d does not start where fineDay cuts", b, d, days)
			}
			ats = append(ats, at, below)
		}
		p.send(ats[:added]...)
	}
	for p.last < bucketEdge(&p.q, first+4) {
		p.pop()
	}
	if p.q.recals != 1 {
		t.Fatalf("%d calibrations before the edges were popped, want the first one only", p.q.recals)
	}
	p.drain()
}

// TestEventQueuePushesIntoActiveBucket pushes exponential delays, as
// -policy exp does, onto a queue whose buckets are tens of keys long: many
// keys belong to the bucket being popped and are inserted into it.
func TestEventQueuePushesIntoActiveBucket(t *testing.T) {
	p := newQueuePair(t)
	rng := rand.New(rand.NewPCG(19, 19))
	p.spread(rng, 4000, 4)
	active := 0
	for op := 0; op < 20000; op++ {
		if rng.IntN(2) == 0 {
			p.pop()
			continue
		}
		at := p.last + rng.ExpFloat64()/1000
		if p.q.bucketOf(at) <= p.q.today {
			active++
		}
		p.send(at)
	}
	if active < 1000 {
		t.Fatalf("%d of 10,000 pushes were for the active bucket, want 1,000 or more", active)
	}
	p.drain()
}

// TestEventQueueOneTimeBucket puts more than insertionMax keys on one time
// into one bucket, twice: pushed straight into the ring, where they arrive
// in seq order, and parked in the overflow store until a calibration
// refiles them in heap order. Both must pop in seq order.
func TestEventQueueOneTimeBucket(t *testing.T) {
	p := newQueuePair(t)
	rng := rand.New(rand.NewPCG(23, 23))
	p.spread(rng, 1000, 10)
	const ties = 3 * insertionMax
	for i := 0; i < ties; i++ {
		p.send(5, 5)
	}
	far := 1000 + rng.Float64()
	for i := 0; i < ties; i++ {
		p.send(far)
	}
	if p.q.farKeys < ties {
		t.Fatalf("%d keys in the overflow store, want the %d on one far time", p.q.farKeys, ties)
	}
	// Growing the population past drift times its calibration refiles the
	// overflow store together with everything else.
	recals := p.q.recals
	for p.ref.Len() <= drift*p.q.calibN {
		p.send(10+100*rng.Float64(), 10+1000*rng.Float64())
	}
	if p.q.recals == recals {
		t.Fatal("the population grew past its calibration without a recalibration")
	}
	p.drain()
}

// TestEventQueueBlockChain overloads one bucket of a small queue with keys
// at distinct times until its chain is several blocks long; activate must
// read every block and scatter the keys over the bucket's fine days.
func TestEventQueueBlockChain(t *testing.T) {
	p := newQueuePair(t)
	rng := rand.New(rand.NewPCG(29, 29))
	p.spread(rng, 200, 10)
	b := p.q.bucketOf(5)
	lo, hi := bucketEdge(&p.q, b), bucketEdge(&p.q, b+1)
	for i := 0; i < 5*blockKeys; i++ {
		p.send(lo + (hi-lo)*rng.Float64())
	}
	e := p.q.ring[b&p.q.mask]
	blocks := 0
	for ref := e.head; ref != 0; ref = p.q.blocks.at(ref - 1).next {
		blocks++
	}
	if int(e.n) < 5*blockKeys || blocks < 5 {
		t.Fatalf("bucket %d holds %d keys in %d blocks, want %d or more in 5 or more", b, e.n, blocks, 5*blockKeys)
	}
	p.drain()
}

// TestEventQueueFarKeysJoinActivatedBucket jumps to the overflow store's
// earliest bucket with hundreds of keys waiting there over a few buckets,
// so the bucket activated is filled from the overflow store and long
// enough to be scattered by fine day; then it pushes into that bucket and
// the next while they are popped.
func TestEventQueueFarKeysJoinActivatedBucket(t *testing.T) {
	p := newQueuePair(t)
	rng := rand.New(rand.NewPCG(31, 31))
	p.spread(rng, 2000, 10)
	width := 1 / p.q.perBucket
	const farKeys = 600 // more than a quarter of the calibration: no recalibration
	for i := 0; i < farKeys/2; i++ {
		at := 1000 + 3*width*rng.Float64()
		p.send(at, at)
	}
	if p.q.farKeys != farKeys {
		t.Fatalf("%d keys in the overflow store, want %d", p.q.farKeys, farKeys)
	}
	for p.last < 1000 {
		p.pop()
	}
	if p.q.recals != 1 || len(p.q.active)-p.q.head < 2*keysPerDay {
		t.Fatalf("after the jump: %d calibrations, %d active keys; want the first calibration only and a bucket of several days",
			p.q.recals, len(p.q.active)-p.q.head)
	}
	for i := 0; i < 200; i++ {
		p.send(p.last+width*rng.Float64(), p.last)
		p.pop()
	}
	p.drain()
}

// queueOps interprets a byte stream as queue operations on a queuePair; it
// is FuzzEventQueue's body. Each operation is an opcode byte followed by one
// time byte per key: the time byte's top two bits pick a coarse absolute
// time (ties, non-monotone), a fraction past the last pop, a 1e9..1e12
// delay, or a time at or below the last pop. The opcode opReset takes no
// keys: it resets the queue where it stands. The opcode opEdge takes one
// byte, v: it sends two keys on the earliest time of bucket today+1+v%16
// and one on the time just before it (on a calibrated queue; otherwise
// three on the last pop's time).
const (
	opEdge  = 0xfc
	opReset = 0xfd
)

func queueOps(p *queuePair, data []byte) {
	at := func(b byte) float64 {
		v := float64(b & 63)
		switch b >> 6 {
		case 0:
			return v
		case 1:
			return p.last + v/64
		case 2:
			return p.last + 1e9*(1+16*v)
		default:
			return p.last - v/8
		}
	}
	for len(data) > 0 {
		op := data[0]
		data = data[1:]
		if op&3 == 3 {
			if p.ref.Len() > 0 {
				p.pop()
			}
			continue
		}
		if op == opReset {
			p.reset()
			continue
		}
		if op == opEdge && len(data) > 0 {
			b := p.q.today + 1 + int64(data[0]%16)
			data = data[1:]
			if p.q.perBucket == 0 || b >= maxBucket {
				p.send(p.last, p.last, p.last)
				continue
			}
			edge := bucketEdge(&p.q, b)
			p.send(edge, edge, math.Nextafter(edge, math.Inf(-1)))
			continue
		}
		fanout := 1
		if op&3 == 2 {
			fanout = int(op>>2) % 6
		}
		fanout = min(fanout, len(data))
		ats := make([]float64, fanout)
		for i := range ats {
			ats[i] = at(data[i])
		}
		data = data[fanout:]
		p.send(ats...)
	}
	p.drain()
}

// FuzzEventQueue checks the queue against the oracle under arbitrary
// push/broadcast/pop sequences; the seed corpus is the shape of each oracle
// test above.
func FuzzEventQueue(f *testing.F) {
	const pop, push, fan5 = 3, 0, 2 | 5<<2
	repeat := func(n int, ops ...byte) []byte { return bytes.Repeat(ops, n) }
	// Lockstep: 40 keys on one time, then pop one, push one a step later.
	f.Add(append(repeat(40, push, 1), repeat(60, pop, push, 64|63)...))
	// Non-monotone: spread keys, pop a few, push at and below the last pop.
	f.Add(append(append(repeat(30, push, 64|17, push, 64|43), repeat(10, pop)...),
		repeat(20, push, 192|0, push, 192|9, pop, push, 5)...))
	// Heavy tail: near-future traffic with a 1e9..1e12 delay now and then.
	f.Add(repeat(25, push, 64|9, push, 64|50, push, 64|33, pop, push, 128|7, fan5, 64|1, 64|60, 128|63, 64|20, 64|40, pop))
	// Growth then shrink: 500 keys in, 490 out, 100 in.
	f.Add(append(append(repeat(100, fan5, 64|3, 64|19, 64|34, 64|47, 64|62), repeat(490, pop)...), repeat(50, push, 64|7, push, 64|55)...))
	// Overflow keys sharing the bucket the queue jumps to once the ring is empty.
	f.Add(append(append(repeat(20, push, 64|11, push, 64|37), pop), repeat(4, fan5, 128|2, 128|2, 128|3, 128|2, 128|40)...))
	// Reset with keys in the active array, the ring and the overflow store,
	// three times over, each followed by the same traffic on the recycled queue.
	f.Add(repeat(3, append(repeat(25, push, 64|9, fan5, 64|1, 64|60, 128|63, 64|20, 128|5, pop, push, 64|33), opReset)...))
	// The new seeds start from spread: 400 keys spread over a second or so
	// of calibrated queue, buckets several keys long.
	spread := append(repeat(100, fan5, 64|3, 64|19, 64|34, 64|47, 64|62, pop), pop)
	// Keys on bucket edges, with ties and the time just before each.
	f.Add(slices.Concat(spread, repeat(8, opEdge, 0, opEdge, 1, opEdge, 7, pop), repeat(20, pop)))
	// Pushes into the active bucket: at and just past the last pop.
	f.Add(slices.Concat(spread, repeat(100, push, 64|0, push, 64|1, pop, push, 192|0, pop)))
	// More than insertionMax keys on one time, twice: straight into one
	// bucket, and parked in the overflow store through a recalibration.
	f.Add(slices.Concat(spread, repeat(40, push, 64|32), repeat(40, push, 128|5),
		repeat(400, fan5, 64|3, 64|19, 64|34, 64|47, 64|62), repeat(10, pop)))
	// A chain of several blocks: a hundred keys on a few times of one bucket.
	f.Add(slices.Concat(spread, repeat(20, fan5, 64|40, 64|40, 64|41, 64|40, 64|41)))
	// Hundreds of overflow keys over a few buckets, more than a quarter of
	// the population: the jump activates a bucket filled from far, long
	// enough to scatter, and pushes follow into it.
	f.Add(slices.Concat(spread, repeat(40, fan5, 128|2, 128|2, 128|3, 128|2, 128|3), repeat(499, pop), repeat(30, push, 64|0, pop)))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The per-operation walk makes a run quadratic in its length; past
		// a few thousand operations that buys no new queue state per second.
		queueOps(newQueuePair(t), data[:min(len(data), 8192)])
	})
}

// BenchmarkEventQueue measures raw queue throughput. fanout=1 and fanout=31
// push 1e5 events with colliding timestamps, then pop them all: fanout=1
// gives every event a slot of its own, fanout=31 shares one slot among the 31
// keys of a broadcast. lockstep and heavytail hold a population of 1e4 and
// turn it over 1e5 times, each pop sending one message: a step later for
// lockstep (every queued time equal to one of two values), after
// Uniform[0.1, 1) with 1 % at 1e9..1e12 for heavytail. uniform-500k holds
// 5e5 keys, about the peak of a sampled broadcast at n = 10,000, and turns
// them over 1e6 times after Uniform[0.1, 1): a queue far larger than the
// caches, where filing and reading back a key is a memory access of its own.
func BenchmarkEventQueue(b *testing.B) {
	const size = 100_000
	rng := rand.New(rand.NewPCG(42, 0))
	at := make([]float64, size)
	for i := range at {
		at[i] = float64(rng.IntN(1000))
	}
	for _, fanout := range []int{1, 31} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			var q eventQueue
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < size; {
					ref := q.hold(msg.Message{Phase: msg.Phase(j)})
					for f := 0; f < fanout && j < size; f++ {
						q.pushRef(at[j], uint64(j), msg.ID(f), ref)
						j++
					}
					q.release(ref)
				}
				for q.len() > 0 {
					q.popEvent()
				}
			}
		})
	}

	const population = 10_000
	tail := make([]float64, size)
	for i := range tail {
		tail[i] = 0.1 + 0.9*rng.Float64()
		if rng.IntN(100) == 0 {
			tail[i] = math.Pow(10, 9+3*rng.Float64())
		}
	}
	step := make([]float64, size)
	for i := range step {
		step[i] = 1
	}
	uniform := make([]float64, 10*size)
	for i := range uniform {
		uniform[i] = 0.1 + 0.9*rng.Float64()
	}
	for _, hold := range []struct {
		name       string
		population uint64
		delay      []float64
	}{{"lockstep", population, step}, {"heavytail", population, tail}, {"uniform-500k", 500_000, uniform}} {
		b.Run(hold.name, func(b *testing.B) {
			var q eventQueue
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var seq uint64
				for ; seq < hold.population; seq++ {
					q.push(event{at: hold.delay[seq], seq: seq})
				}
				for _, d := range hold.delay {
					e := q.popEvent()
					seq++
					q.push(event{at: e.at + d, seq: seq})
				}
				for q.len() > 0 {
					q.popEvent()
				}
			}
		})
	}
}
