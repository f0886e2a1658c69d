package netxport

import (
	"testing"
	"time"

	"resilient/internal/metrics"
	"resilient/internal/msg"
)

// setFails presets a link's consecutive-failure count, which scales its
// dial backoff (6 or more puts it at the maxDialBackoff cap).
func setFails(ep *Endpoint, peer msg.ID, fails int) {
	l := &ep.links[peer]
	l.mu.Lock()
	l.fails = fails
	l.mu.Unlock()
}

// TestDeadPeerDoesNotBlockHealthyPeer pins the per-peer isolation contract:
// while one peer's writer is stuck in the dial-retry backoff toward a dead
// address, a Send to that peer still returns at once (the frame queues; the
// drop is TestDialRetriesCounted's subject) and a Send to a healthy peer on
// the same endpoint is delivered without waiting out the backoff.
func TestDeadPeerDoesNotBlockHealthyPeer(t *testing.T) {
	eps := mesh(t, 3)
	reg := metrics.NewRegistry()
	eps[0].SetMetrics(reg)
	dead := eps[2].Addr()
	eps[2].Close()
	eps[0].SetPeerAddr(2, dead)
	setFails(eps[0], 2, 8) // backoff at the cap: long enough to observe

	if err := eps[0].Send(2, msg.Val(0, 0, msg.V0)); err != nil {
		t.Fatalf("send to dead peer must queue, got %v", err)
	}
	waitCounter(t, reg, "net.dial_retries", 1) // the writer is inside its backoff schedule

	start := time.Now()
	if err := eps[0].Send(2, msg.Val(0, 0, msg.V0)); err != nil {
		t.Fatal(err)
	}
	if err := eps[0].Send(1, msg.Val(0, 1, msg.V1)); err != nil {
		t.Fatal(err)
	}
	recvWithTimeout(t, eps[1])
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("healthy-peer delivery took %v while the dead peer's writer was dialing", d)
	}
}

// TestEvictionAndRedial kills a peer under an established connection, then
// brings it back on a fresh port: the broken socket must be evicted (not
// poison the link forever) and a later Send must redial and get through.
func TestEvictionAndRedial(t *testing.T) {
	eps := mesh(t, 2)
	reg := metrics.NewRegistry()
	eps[0].SetMetrics(reg)

	if err := eps[0].Send(1, msg.Val(0, 0, msg.V0)); err != nil {
		t.Fatal(err)
	}
	recvWithTimeout(t, eps[1])

	eps[1].Close()
	// The established connection is now broken. TCP may buffer a write or
	// two before the kernel reports the reset, so keep sending until the
	// writer's flush fails and the conn is evicted.
	deadline := time.Now().Add(10 * time.Second)
	for reg.Snapshot().Counters["net.conn_evictions"] == 0 {
		if err := eps[0].Send(1, msg.Val(0, 1, msg.V0)); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("broken connection was never evicted")
		}
		time.Sleep(time.Millisecond)
	}

	// Restart the peer on a new ephemeral port.
	addrs := []string{eps[0].Addr(), "127.0.0.1:0"}
	ep1, err := Listen(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep1.Close() })
	eps[0].SetPeerAddr(1, ep1.Addr())

	// The link carries failure history and frames queued before the restart
	// may be dropped with the old address's retry budget, so keep sending
	// until one sent after the restart lands.
	got := make(chan msg.Message, 1)
	go func() {
		for {
			m, err := ep1.Recv()
			if err != nil {
				return
			}
			if m.Phase == 2 {
				got <- m
				return
			}
		}
	}()
	deadline = time.Now().Add(10 * time.Second)
	for {
		if err := eps[0].Send(1, msg.Val(0, 2, msg.V1)); err != nil {
			t.Fatal(err)
		}
		select {
		case m := <-got:
			if m.From != 0 {
				t.Errorf("recovered send delivered %+v", m)
			}
			return
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("send never recovered after peer restart")
		}
	}
}

// TestCloseUnblocksBackoffSleep: an endpoint closing while a writer sleeps
// in a near-cap dial backoff -- with a second batch queued behind the one it
// is retrying -- must abort the sleep and drop both batches instead of
// serving out each one's schedule of dialAttempts dials: the first batch
// stops at the two dials it had made, the second after its first.
func TestCloseUnblocksBackoffSleep(t *testing.T) {
	eps := mesh(t, 2)
	reg := metrics.NewRegistry()
	eps[0].SetMetrics(reg)
	dead := eps[1].Addr()
	eps[1].Close()
	eps[0].SetPeerAddr(1, dead)
	setFails(eps[0], 1, 8)
	if err := eps[0].Send(1, msg.Val(0, 0, msg.V0)); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, reg, "net.dial_retries", 1) // asleep before its last attempt now
	if err := eps[0].Send(1, msg.Val(0, 1, msg.V0)); err != nil {
		t.Fatal(err)
	}
	eps[0].Close()
	c := reg.Snapshot().Counters
	if c["net.dials"] >= 2*dialAttempts {
		t.Errorf("dials = %d: Close let both batches run out their retry schedules", c["net.dials"])
	}
	if c["net.flush_frame_drops"] != 2 {
		t.Errorf("flush_frame_drops = %d after Close, want both queued frames", c["net.flush_frame_drops"])
	}
}
