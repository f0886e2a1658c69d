package netxport

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resilient/internal/metrics"
	"resilient/internal/msg"
	"resilient/internal/transport"
)

// TestInstanceChurnRace stresses the demux table under concurrent instance
// churn: receiver-side instances are claimed, drained, and closed in a tight
// loop while the sender keeps blasting frames at every id, so the read loop
// demuxes into conns that are being claimed and released under it. Run with
// -race this pins the table's lock-free reads beside in-place claims and
// releases; the closing assertions pin that Close releases ids (re-claim
// succeeds) and that the table does not grow with churn.
func TestInstanceChurnRace(t *testing.T) {
	eps := mesh(t, 2)
	sender, receiver := eps[0], eps[1]

	const (
		ids    = 8  // instance ids cycled by both sides
		rounds = 40 // claim/drain/close rounds per receiver worker
	)

	// Sender side: one long-lived instance conn per id, each hammering the
	// receiver for the whole test.
	var stop atomic.Bool
	var senderWG sync.WaitGroup
	for i := 1; i <= ids; i++ {
		conn, err := sender.Instance(uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		senderWG.Add(1)
		go func(c transport.Conn, v msg.Value) {
			defer senderWG.Done()
			m := msg.Val(0, 0, v)
			for !stop.Load() {
				if err := c.Send(1, m); err != nil {
					return
				}
			}
		}(conn, msg.Value(uint8(i%2)))
	}

	// Receiver side: workers churn through the ids -- claim, receive a few
	// frames, close, re-claim. Different workers fight over the same id
	// space, so claims legitimately fail while another worker holds the id.
	var churnWG sync.WaitGroup
	var claims, rejects atomic.Int64
	for w := 0; w < 4; w++ {
		churnWG.Add(1)
		go func(w int) {
			defer churnWG.Done()
			for r := 0; r < rounds; r++ {
				id := uint32(1 + (w+r)%ids)
				conn, err := receiver.Instance(id)
				if err != nil {
					rejects.Add(1)
					runtime.Gosched() // another worker holds the id right now
					continue
				}
				claims.Add(1)
				for k := 0; k < 2; k++ {
					if _, err := conn.Recv(); err != nil {
						break
					}
				}
				conn.Close()
			}
		}(w)
	}
	churnWG.Wait()
	stop.Store(true)
	senderWG.Wait()

	if claims.Load() == 0 {
		t.Fatal("no receiver-side claim ever succeeded")
	}
	// Close released every id: the table is empty again and every id is
	// immediately claimable.
	if n := claimed(t, receiver); n != 0 {
		t.Fatalf("demux table holds %d entries after every instance closed", n)
	}
	for i := 1; i <= ids; i++ {
		conn, err := receiver.Instance(uint32(i))
		if err != nil {
			t.Fatalf("re-claim instance %d after churn: %v", i, err)
		}
		conn.Close()
	}
}

// TestInstanceCloseReleasesID pins the claim/release contract sequentially:
// a claimed id rejects duplicates, Close releases it, a fresh claim gets a
// working conn, and the stale conn stays dead.
func TestInstanceCloseReleasesID(t *testing.T) {
	eps := mesh(t, 2)
	a, b := eps[0], eps[1]

	first, err := b.Instance(7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Instance(7); err == nil {
		t.Fatal("duplicate claim of a live id must fail")
	}
	first.Close()
	if _, err := first.Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("stale conn Recv = %v, want ErrClosed", err)
	}

	second, err := b.Instance(7)
	if err != nil {
		t.Fatalf("re-claim after Close: %v", err)
	}
	src, err := a.Instance(7)
	if err != nil {
		t.Fatal(err)
	}
	want := msg.Val(0, 3, msg.V1)
	if err := src.Send(1, want); err != nil {
		t.Fatal(err)
	}
	got, err := second.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != want.Kind || got.Phase != want.Phase || got.Value != want.Value || got.From != 0 {
		t.Fatalf("re-claimed conn received %+v", got)
	}
	// Closing the STALE conn again must not evict the new claimant.
	first.Close()
	if n := claimed(t, b); n != 1 {
		t.Fatalf("stale double-close changed the table: %d entries, want 1", n)
	}
	second.Close()
	src.Close()
}

// TestRecycledInboxNoCrossTalk pins the one hazard ring recycling adds: a
// frame that route looked up for instance X just before X closed must be
// dropped, never written into X's old array after that array has become
// instance Y's inbox. Receiver workers churn claim -> receive -> Close over a
// window of ids (each Close hands its ring to the next claim, usually
// another id's) while two remote senders and the receiver itself keep
// writing to every id in the window -- so to ids just closed and ids just
// re-claimed. Every message carries its instance id in Phase; a receiver
// must only ever see its own.
func TestRecycledInboxNoCrossTalk(t *testing.T) {
	eps := mesh(t, 3)
	receiver := eps[2]
	reg := metrics.NewRegistry()
	receiver.SetMetrics(reg)

	const (
		ids     = 6  // the window of instance ids
		workers = 3  // receiver-side churners, two ids each
		rounds  = 60 // claim/receive/close rounds per worker
		perConn = 5  // messages checked per claim
	)

	var stop atomic.Bool
	var senders sync.WaitGroup
	for id := 1; id <= ids; id++ {
		m := msg.Val(0, msg.Phase(id), msg.V1)
		sendLoop := func(send func() error) {
			defer senders.Done()
			for !stop.Load() && send() == nil {
			}
		}
		for _, ep := range eps[:2] {
			conn, err := ep.Instance(uint32(id))
			if err != nil {
				t.Fatal(err)
			}
			senders.Add(1)
			go sendLoop(func() error { return conn.Send(receiver.id, m) })
		}
		// The receiver's own conns for these ids belong to the churners, so
		// its self-sends (route without a socket) use the tagged send path.
		inst := uint32(id)
		senders.Add(1)
		go sendLoop(func() error { return receiver.send(receiver.id, inst, m) })
	}

	var churn sync.WaitGroup
	var seen atomic.Int64
	for w := 0; w < workers; w++ {
		churn.Add(1)
		go func(w int) {
			defer churn.Done()
			for r := 0; r < rounds; r++ {
				id := 1 + (2*w+r%2)%ids
				conn, err := receiver.Instance(uint32(id))
				if err != nil {
					t.Errorf("claim %d: %v", id, err)
					return
				}
				for k := 0; k < perConn; k++ {
					m, err := conn.Recv()
					if err != nil {
						t.Errorf("instance %d recv: %v", id, err)
						break
					}
					if int(m.Phase) != id {
						t.Errorf("instance %d received a frame sent to instance %d", id, m.Phase)
					}
					seen.Add(1)
				}
				conn.Close()
			}
		}(w)
	}
	churn.Wait()
	stop.Store(true)
	senders.Wait()

	if want := int64(workers * rounds * perConn); seen.Load() != want {
		t.Errorf("checked %d messages, want %d", seen.Load(), want)
	}
	// The senders never paused, so frames did arrive for closed ids; they
	// must have been dropped and counted, not delivered elsewhere.
	if drops := reg.Snapshot().Counters["net.mux_drops"]; drops == 0 {
		t.Error("no frame was ever dropped: the test never raced a Close")
	}
	receiver.mu.Lock()
	free := len(receiver.free)
	receiver.mu.Unlock()
	if free == 0 || free > maxFreeInboxes {
		t.Errorf("free list holds %d rings after churn, want 1..%d", free, maxFreeInboxes)
	}
}

// asleep waits until exactly one goroutine sleeps on q with no token left in
// its ready channel.
func asleep(t *testing.T, q *inbox) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		q.mu.Lock()
		sleepers := q.sleepers
		q.mu.Unlock()
		if sleepers == 1 && len(q.ready) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("inbox has %d sleepers and %d tokens, want 1 and 0", sleepers, len(q.ready))
		}
		runtime.Gosched()
	}
}

// TestRecycledWakeChannels pins what handing a closed inbox's wake-up
// channels to the next claim may cost that claim. A token the released
// instance leaves behind -- a put or get that unlocked just before Close
// wakes after it -- is one extra look at the new, empty ring, after which
// the new instance's Recv sleeps; a frame still addressed to the released id
// is dropped, never delivered to the new instance; and the sleeping Recv
// wakes on the next put. An instance closed under a sleeping Recv keeps its
// channels for that sleeper, and the next claim gets new ones.
func TestRecycledWakeChannels(t *testing.T) {
	ep := mesh(t, 1)[0]
	reg := metrics.NewRegistry()
	ep.SetMetrics(reg)

	first, err := ep.Instance(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Send(0, msg.Val(0, 1, msg.V1)); err != nil {
		t.Fatal(err)
	}
	first.Close() // with the message unread
	old := &first.(*instConn).inbox
	wake(old.ready)
	wake(old.space)

	second, err := ep.Instance(2)
	if err != nil {
		t.Fatal(err)
	}
	q := &second.(*instConn).inbox
	if q.ready != old.ready || q.space != old.space {
		t.Fatal("the next claim did not get the released instance's wake-up channels")
	}
	if err := ep.send(0, 1, msg.Val(0, 1, msg.V0)); err != nil {
		t.Fatal(err)
	}
	if drops := reg.Snapshot().Counters["net.mux_drops"]; drops != 1 {
		t.Fatalf("mux_drops = %d after a frame for the released id, want 1", drops)
	}

	got := make(chan msg.Message, 1)
	go func() {
		m, err := second.Recv()
		if err != nil {
			t.Error(err)
		}
		got <- m
	}()
	asleep(t, q)
	select {
	case m := <-got:
		t.Fatalf("Recv on an empty recycled inbox returned %+v", m)
	default:
	}
	if err := second.Send(0, msg.Val(0, 2, msg.V1)); err != nil {
		t.Fatal(err)
	}
	if m := <-got; m.Phase != 2 {
		t.Fatalf("recycled inbox delivered phase %d, want the new instance's 2", m.Phase)
	}
	second.Close()

	third, err := ep.Instance(3)
	if err != nil {
		t.Fatal(err)
	}
	q3 := &third.(*instConn).inbox
	recvErr := make(chan error, 1)
	go func() {
		_, err := third.Recv()
		recvErr <- err
	}()
	asleep(t, q3)
	third.Close()
	if err := <-recvErr; !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Recv asleep across Close = %v, want ErrClosed", err)
	}
	fourth, err := ep.Instance(4)
	if err != nil {
		t.Fatal(err)
	}
	if q4 := &fourth.(*instConn).inbox; q4.ready == q3.ready || q4.space == q3.space {
		t.Fatal("channels a sleeper held at Close were handed to the next claim")
	}
	fourth.Close()
}
