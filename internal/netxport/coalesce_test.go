package netxport

import (
	"errors"
	"testing"
	"time"

	"resilient/internal/metrics"
	"resilient/internal/msg"
	"resilient/internal/transport"
)

// drainOrdered receives count messages from ep and checks their phases run
// 0..count-1 -- any frame lost, duplicated, or reordered trips it.
func drainOrdered(t *testing.T, ep *Endpoint, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		got := recvWithTimeout(t, ep)
		if got.Phase != msg.Phase(i) {
			t.Fatalf("frame %d arrived with phase %d (lost/duplicated/reordered)", i, got.Phase)
		}
	}
}

// waitCounter polls a registry until the counter reaches want; the writer and
// read loops update counters asynchronously to Send/Recv.
func waitCounter(t *testing.T, reg *metrics.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if got := reg.Snapshot().Counters[name]; got >= want {
			if got != want {
				t.Fatalf("%s = %d, want %d", name, got, want)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", name, reg.Snapshot().Counters[name], want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescedAccountingAndBatching is TestTransportMetricsAccounting under
// a burst: every frame is counted exactly once on both sides, and the flush
// count proves many frames shared a syscall.
func TestCoalescedAccountingAndBatching(t *testing.T) {
	eps := mesh(t, 2)
	sender := metrics.NewRegistry()
	receiver := metrics.NewRegistry()
	eps[0].SetMetrics(sender)
	eps[1].SetMetrics(receiver)
	// A generous linger guarantees the burst below lands in few batches
	// regardless of scheduling.
	eps[0].linger = 5 * time.Millisecond

	const frames = 400
	for i := 0; i < frames; i++ {
		if err := eps[0].Send(1, msg.Val(0, msg.Phase(i), msg.V1)); err != nil {
			t.Fatal(err)
		}
	}
	drainOrdered(t, eps[1], frames)

	waitCounter(t, sender, "net.frames_sent", frames)
	waitCounter(t, receiver, "net.frames_received", frames)
	s := sender.Snapshot().Counters
	if s["net.flushes"] >= frames/2 {
		t.Errorf("flushes = %d for %d frames: writer is not coalescing", s["net.flushes"], frames)
	}
	if s["net.flushes"] < 1 {
		t.Error("no flush recorded")
	}
	if s["net.bytes_sent"] <= 0 {
		t.Error("bytes_sent never counted")
	}
	if s["net.flush_frame_drops"] != 0 {
		t.Errorf("flush_frame_drops = %d on a healthy link", s["net.flush_frame_drops"])
	}
	if s["net.dials"] != 1 {
		t.Errorf("dials = %d, want 1 (one socket for the whole burst)", s["net.dials"])
	}
}

// TestQueueFullBackpressure pins the bounded-queue contract: with a tiny cap
// and a slow writer, Send must block (not drop, not grow without bound) until
// the writer drains -- and every frame still arrives, in order.
func TestQueueFullBackpressure(t *testing.T) {
	eps := mesh(t, 2)
	// ~31 bytes per frame: a 512-byte cap fits ~16 frames, so 300 frames
	// force many block/drain cycles; the 5ms linger makes each cycle long
	// enough that the sender demonstrably waited.
	eps[0].queueCap = 512
	eps[0].linger = 5 * time.Millisecond

	const frames = 300
	start := time.Now()
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for i := 0; i < frames; i++ {
			if err := eps[0].Send(1, msg.Val(0, msg.Phase(i), msg.V0)); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	drainOrdered(t, eps[1], frames)
	<-sent
	// 300 frames through a ~16-frame window gated by a 5ms linger cannot
	// finish in one window: the sender must have blocked across several
	// drain cycles.
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("burst finished in %v: queue cap did not apply backpressure", elapsed)
	}
}

// TestCloseFlushesPendingFrames pins flush-on-close: frames enqueued but not
// yet flushed when Close is called must still reach the peer before the
// sockets come down.
func TestCloseFlushesPendingFrames(t *testing.T) {
	eps := mesh(t, 2)
	// A long linger parks the writer mid-window with the whole burst still
	// pending, so Close races a full queue, not an empty one.
	eps[0].linger = 200 * time.Millisecond

	const frames = 100
	for i := 0; i < frames; i++ {
		if err := eps[0].Send(1, msg.Val(0, msg.Phase(i), msg.V0)); err != nil {
			t.Fatal(err)
		}
	}
	eps[0].Close()
	// Close returned, so the writer has flushed and exited; the frames are
	// on the wire (or already in the peer's inbox).
	drainOrdered(t, eps[1], frames)

	// After Close the endpoint must reject new frames instead of queueing
	// them into the void.
	if err := eps[0].Send(1, msg.Val(0, 0, msg.V0)); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("send after close: %v, want transport.ErrClosed", err)
	}
}

// TestEvictionMidFlushRedials breaks the established socket under the
// writer, then checks the interrupted batch is retried on a fresh dial with
// no frame lost or duplicated.
func TestEvictionMidFlushRedials(t *testing.T) {
	eps := mesh(t, 2)
	reg := metrics.NewRegistry()
	eps[0].SetMetrics(reg)

	// Establish the connection and let the writer go idle.
	if err := eps[0].Send(1, msg.Val(0, 0, msg.V0)); err != nil {
		t.Fatal(err)
	}
	recvWithTimeout(t, eps[1])
	waitCounter(t, reg, "net.frames_sent", 1)

	// Sever the socket out from under the link. The next flush's write
	// fails locally (nothing reaches the peer), forcing the evict-redial-
	// retry path for the whole batch.
	l := &eps[0].links[1]
	l.mu.Lock()
	conn := l.conn
	l.mu.Unlock()
	conn.Close()

	const frames = 50
	for i := 0; i < frames; i++ {
		if err := eps[0].Send(1, msg.Val(0, msg.Phase(i), msg.V1)); err != nil {
			t.Fatal(err)
		}
	}
	drainOrdered(t, eps[1], frames)

	c := reg.Snapshot().Counters
	if c["net.conn_evictions"] == 0 {
		t.Error("severed connection was never evicted")
	}
	if c["net.flush_frame_drops"] != 0 {
		t.Errorf("flush_frame_drops = %d: batch was dropped instead of retried", c["net.flush_frame_drops"])
	}
	if c["net.dials"] < 2 {
		t.Errorf("dials = %d, want >= 2 (redial after eviction)", c["net.dials"])
	}
}

// recvConn is recvWithTimeout for a transport.Conn (instance views).
func recvConn(t *testing.T, c transport.Conn) msg.Message {
	t.Helper()
	type res struct {
		m   msg.Message
		err error
	}
	ch := make(chan res, 1)
	go func() {
		m, err := c.Recv()
		ch <- res{m, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.m
	case <-time.After(10 * time.Second):
		t.Fatal("recv timed out")
		return msg.Message{}
	}
}

// TestInstanceMuxIsolation checks the demux contract: traffic tagged with an
// instance id is visible only to that instance's conn, and the endpoint's
// own stream (instance 0) is unaffected.
func TestInstanceMuxIsolation(t *testing.T) {
	eps := mesh(t, 2)
	send1, err := eps[0].Instance(1)
	if err != nil {
		t.Fatal(err)
	}
	send2, err := eps[0].Instance(2)
	if err != nil {
		t.Fatal(err)
	}
	recv1, err := eps[1].Instance(1)
	if err != nil {
		t.Fatal(err)
	}
	recv2, err := eps[1].Instance(2)
	if err != nil {
		t.Fatal(err)
	}

	if err := send1.Send(1, msg.Val(0, 10, msg.V0)); err != nil {
		t.Fatal(err)
	}
	if err := send2.Send(1, msg.Val(0, 20, msg.V1)); err != nil {
		t.Fatal(err)
	}
	if err := eps[0].Send(1, msg.Val(0, 30, msg.V0)); err != nil {
		t.Fatal(err)
	}

	if got := recvConn(t, recv1); got.Phase != 10 {
		t.Errorf("instance 1 saw phase %d", got.Phase)
	}
	if got := recvConn(t, recv2); got.Phase != 20 {
		t.Errorf("instance 2 saw phase %d", got.Phase)
	}
	if got := recvWithTimeout(t, eps[1]); got.Phase != 30 {
		t.Errorf("endpoint stream saw phase %d", got.Phase)
	}
	if send1.ID() != 0 || recv2.ID() != 1 {
		t.Errorf("instance IDs %d/%d, want the endpoint's", send1.ID(), recv2.ID())
	}
}

// TestInstanceClaimRules: instance 0 is reserved, duplicates are rejected,
// and a detached (closed) instance's frames are dropped and counted while
// the endpoint keeps serving the rest.
func TestInstanceClaimRules(t *testing.T) {
	eps := mesh(t, 2)
	if _, err := eps[0].Instance(0); err == nil {
		t.Error("instance 0 claim accepted")
	}
	c, err := eps[0].Instance(7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eps[0].Instance(7); err == nil {
		t.Error("duplicate instance claim accepted")
	}

	// Closed instance: its Recv unblocks, its inbound frames drop.
	reg := metrics.NewRegistry()
	eps[1].SetMetrics(reg)
	c.Close()
	if _, err := c.Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("recv on closed instance: %v", err)
	}
	if err := c.Send(1, msg.Val(0, 0, msg.V0)); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("send on closed instance: %v", err)
	}

	// Frames for an instance the receiver never registered are dropped and
	// counted; the endpoint stream still works afterwards.
	send9, err := eps[0].Instance(9)
	if err != nil {
		t.Fatal(err)
	}
	if err := send9.Send(1, msg.Val(0, 1, msg.V0)); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, reg, "net.mux_drops", 1)
	if err := eps[0].Send(1, msg.Val(0, 2, msg.V1)); err != nil {
		t.Fatal(err)
	}
	if got := recvWithTimeout(t, eps[1]); got.Phase != 2 {
		t.Errorf("endpoint stream got phase %d after a mux drop", got.Phase)
	}

	// Endpoint close takes every instance down with it.
	c2, err := eps[1].Instance(3)
	if err != nil {
		t.Fatal(err)
	}
	eps[1].Close()
	if _, err := c2.Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("recv on instance of closed endpoint: %v", err)
	}
	if _, err := eps[1].Instance(4); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("instance claim on closed endpoint: %v", err)
	}
}
