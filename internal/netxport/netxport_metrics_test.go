package netxport

import (
	"testing"

	"resilient/internal/metrics"
	"resilient/internal/msg"
)

// TestTransportMetricsAccounting sends frames both across sockets and via
// the local fast path and checks the net.* counters add up on both sides.
func TestTransportMetricsAccounting(t *testing.T) {
	eps := mesh(t, 2)
	sender := metrics.NewRegistry()
	receiver := metrics.NewRegistry()
	eps[0].SetMetrics(sender)
	eps[1].SetMetrics(receiver)

	const frames = 5
	for i := 0; i < frames; i++ {
		if err := eps[0].Send(1, msg.Val(0, msg.Phase(i), msg.V1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < frames; i++ {
		recvWithTimeout(t, eps[1])
	}
	// Local fast path: self-sends never hit the socket.
	if err := eps[0].Send(0, msg.Val(0, 0, msg.V0)); err != nil {
		t.Fatal(err)
	}
	recvWithTimeout(t, eps[0])

	// The writer counts a batch after its write returns, which may trail
	// the peer's receipt of it.
	waitCounter(t, sender, "net.frames_sent", frames)
	s := sender.Snapshot().Counters
	if s["net.local_frames"] != 1 {
		t.Errorf("local_frames = %d, want 1", s["net.local_frames"])
	}
	if s["net.bytes_sent"] <= 0 {
		t.Error("bytes_sent never counted")
	}
	if s["net.dials"] != 1 {
		t.Errorf("dials = %d, want 1 (connection reused)", s["net.dials"])
	}

	waitCounter(t, receiver, "net.frames_received", frames)
	if receiver.Snapshot().Counters["net.bytes_received"] <= 0 {
		t.Error("bytes_received never counted")
	}
}

// TestDialRetriesCounted points an endpoint at a dead address and checks
// the failed attempts are recorded as retries and errors: the writer runs
// one dial schedule out, then drops the frame it could not deliver.
func TestDialRetriesCounted(t *testing.T) {
	eps := mesh(t, 2)
	reg := metrics.NewRegistry()
	eps[0].SetMetrics(reg)
	// A port nothing listens on: reserve one, then close it.
	dead := eps[1].Addr()
	eps[1].Close()
	eps[0].SetPeerAddr(1, dead)

	if err := eps[0].Send(1, msg.Val(0, 0, msg.V0)); err != nil {
		t.Fatalf("send to dead peer must queue, got %v", err)
	}
	waitCounter(t, reg, "net.flush_frame_drops", 1)
	c := reg.Snapshot().Counters
	if c["net.dial_errors"] != 1 {
		t.Errorf("dial_errors = %d, want 1", c["net.dial_errors"])
	}
	if c["net.dial_retries"] != dialAttempts-1 {
		t.Errorf("dial_retries = %d, want %d", c["net.dial_retries"], dialAttempts-1)
	}
	if c["net.frames_sent"] != 0 {
		t.Errorf("frames_sent = %d after a failed dial, want 0", c["net.frames_sent"])
	}
}
