package runtime

import (
	"container/heap"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"resilient/internal/msg"
)

// push queues e on a message slot of its own, as runner.dispatch does for a
// unicast.
func (q *eventQueue) push(e event) {
	ref := q.hold(e.m)
	q.pushRef(e.at, e.seq, e.to, ref)
	q.release(ref)
}

// slotCounts walks the slab: how many slots were ever handed out, how many
// of those are referenced, and how long the free list is.
func (q *eventQueue) slotCounts() (allocated, live, free int) {
	for i, c := range q.chunks {
		n := len(c)
		if i == len(q.chunks)-1 {
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

// TestEventQueueMatchesContainerHeap drives the 4-ary queue and the
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
			got := q.pop()
			want := heap.Pop(&ref).(event)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("seed %d op %d: popped (at=%v seq=%d), oracle (at=%v seq=%d)",
					seed, op, got.at, got.seq, want.at, want.seq)
			}
		}
		for ref.Len() > 0 {
			got, want := q.pop(), heap.Pop(&ref).(event)
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
		q.pop()
	}
	var seq uint64
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 512; i++ {
			seq++
			q.push(event{at: float64(seq % 97), seq: seq})
		}
		for q.len() > 0 {
			q.pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocated %.1f times per round", allocs)
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
				got, want := q.pop(), heap.Pop(&ref).(event)
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
	q.pop()
	if s := q.slot(ref); s.refs != 1 || s.m.Payload == nil {
		t.Fatalf("slot with a queued key left was vacated: %+v", *s)
	}
	if e := q.pop(); string(e.m.Payload) != "pinned" || e.m.From != 3 {
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
			if e := q.pop(); e.seq != uint64(i) || e.m.Phase != msg.Phase(i) {
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

// BenchmarkEventQueue measures raw queue throughput: push 1e5 events with
// colliding timestamps, then pop them all. fanout=1 gives every event a slot
// of its own; fanout=31 shares one slot among the 31 keys of a broadcast.
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
					q.pop()
				}
			}
		})
	}
}
