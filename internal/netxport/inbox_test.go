package netxport

import (
	"errors"
	"testing"
	"time"

	"resilient/internal/metrics"
	"resilient/internal/msg"
	"resilient/internal/transport"
)

// TestInboxRingFIFOGrowthAndZeroing drives one inbox through wrap-around and
// two doublings and checks the three things recycling relies on: order
// survives growth of a wrapped ring, a read slot is zeroed at once, and close
// hands back an array with no message (so no Payload) left in it.
func TestInboxRingFIFOGrowthAndZeroing(t *testing.T) {
	var q inbox
	q.init(inboxParts{ring: make([]msg.Message, inboxMinLen)})
	done := make(chan struct{})
	payload := []byte{1, 2, 3}

	next, want := 0, 0
	put := func(count int) {
		for i := 0; i < count; i++ {
			if r := q.put(msg.Graph(0, msg.Phase(next), payload), done); r != putOK {
				t.Fatalf("put %d = %v", next, r)
			}
			next++
		}
	}
	get := func(count int) {
		for i := 0; i < count; i++ {
			m, err := q.get(done)
			if err != nil || m.Phase != msg.Phase(want) {
				t.Fatalf("get = phase %d, %v; want phase %d", m.Phase, err, want)
			}
			want++
		}
	}
	put(40)
	get(30) // head is now mid-ring
	put(3*inboxMinLen + 7)
	if len(q.ring) != 4*inboxMinLen {
		t.Fatalf("ring has %d slots after buffering %d messages, want %d", len(q.ring), q.n, 4*inboxMinLen)
	}
	get(100)
	live := 0
	for _, m := range q.ring {
		if m.Payload != nil {
			live++
		}
	}
	if live != q.n {
		t.Fatalf("%d slots hold a payload with %d messages buffered: a read slot was not zeroed", live, q.n)
	}

	ring := q.close().ring
	if len(ring) != 4*inboxMinLen {
		t.Fatalf("close returned %d slots, want the grown ring of %d", len(ring), 4*inboxMinLen)
	}
	for i, m := range ring {
		if m.Kind != 0 || m.Payload != nil {
			t.Fatalf("slot %d of the retired ring still holds %+v", i, m)
		}
	}
	if q.close().ring != nil {
		t.Error("second close returned a ring")
	}
	if _, err := q.get(done); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("get after close = %v, want ErrClosed", err)
	}
	if r := q.put(msg.Val(0, 0, msg.V0), done); r != putClosed {
		t.Errorf("put after close = %v, want putClosed", r)
	}
}

// TestInboxBoundBackpressure pins that the recycled ring kept the old
// channel's bound: frames for an instance nobody reads stop at inboxBound
// buffered messages with the peer's read loop parked inside route -- nothing
// dropped, nothing grown past the bound -- and arrive in order once Recv
// starts. Closing an instance whose router is parked releases the router and
// counts every frame that no longer has a reader as net.mux_drops.
func TestInboxBoundBackpressure(t *testing.T) {
	eps := mesh(t, 2)
	reg := metrics.NewRegistry()
	eps[1].SetMetrics(reg)
	const extra = 40
	src, err := eps[0].Instance(9)
	if err != nil {
		t.Fatal(err)
	}
	flood := func() {
		t.Helper()
		for i := 0; i < inboxBound+extra; i++ {
			if err := src.Send(1, msg.Val(0, msg.Phase(i), msg.V1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// parked waits until the read loop has taken exactly one frame more than
	// the inbox holds (waitCounter fails if it ever takes another), gives a
	// reader that was NOT parked time to run on, and checks it did not.
	parked := func(c *instConn, framesBefore int64) {
		t.Helper()
		waitCounter(t, reg, "net.frames_received", framesBefore+inboxBound+1)
		time.Sleep(50 * time.Millisecond)
		waitCounter(t, reg, "net.frames_received", framesBefore+inboxBound+1)
		c.inbox.mu.Lock()
		n, slots := c.inbox.n, len(c.inbox.ring)
		c.inbox.mu.Unlock()
		if n != inboxBound || slots != inboxBound {
			t.Fatalf("parked inbox holds %d messages in %d slots, want %d in %d", n, slots, inboxBound, inboxBound)
		}
	}

	dst, err := eps[1].Instance(9)
	if err != nil {
		t.Fatal(err)
	}
	conn := dst.(*instConn)
	flood()
	parked(conn, 0)
	for i := 0; i < inboxBound+extra; i++ {
		m, err := conn.Recv()
		if err != nil || m.Phase != msg.Phase(i) {
			t.Fatalf("frame %d: phase %d, %v (lost or reordered at the bound)", i, m.Phase, err)
		}
	}
	if drops := reg.Snapshot().Counters["net.mux_drops"]; drops != 0 {
		t.Fatalf("mux_drops = %d while the instance was open", drops)
	}

	flood()
	parked(conn, inboxBound+extra)
	conn.Close()
	// The parked frame and the extra-1 behind it have no reader any more.
	waitCounter(t, reg, "net.mux_drops", extra)
	waitCounter(t, reg, "net.frames_received", 2*(inboxBound+extra))
}
