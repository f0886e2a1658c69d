package netxport

import (
	"errors"
	"net"
	"testing"
	"time"

	"resilient/internal/msg"
	"resilient/internal/transport"
)

// deadAddr returns a loopback address that actively refuses connections: the
// port was just bound and released, so nothing listens there.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestDialAbortsAfterClose pins the dial-context wiring: once Close has run,
// a dial must fail immediately with ErrClosed instead of attempting a TCP
// connect. Before the context-bounded dialer, an in-flight connect to a
// blackholed address could run out the OS connect timeout (minutes) with
// the link lock held, stalling Close's flush phase behind it.
func TestDialAbortsAfterClose(t *testing.T) {
	// 203.0.113.1 is TEST-NET-3 (RFC 5737): never routed, so any real
	// connect attempt would hang until a timeout. The canceled context must
	// prevent the attempt from starting at all.
	e, err := Listen(0, []string{"127.0.0.1:0", "203.0.113.1:9"})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	start := time.Now()
	_, err = e.dial(1, 0)
	if !errors.Is(err, transport.ErrClosed) {
		t.Errorf("dial after Close: %v, want transport.ErrClosed", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("dial after Close took %v; the canceled context must abort it immediately", elapsed)
	}
}

// TestCloseAbortsDialRetryStorm pins flush-phase liveness: Close must return
// promptly even while a writer is mid-retry-storm against an unreachable
// peer (the e.done select aborts the backoff sleeps, and pending frames to a
// dead peer are dropped, not waited on).
func TestCloseAbortsDialRetryStorm(t *testing.T) {
	e, err := Listen(0, []string{"127.0.0.1:0", deadAddr(t)})
	if err != nil {
		t.Fatal(err)
	}
	// Park frames on the dead peer's queue; the writer goroutine enters its
	// dial-retry loop against the refusing address.
	for i := 0; i < 4; i++ {
		if err := e.Send(1, msg.Val(0, msg.Phase(i), msg.V0)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(10 * time.Millisecond) // let the writer start dialing
	start := time.Now()
	e.Close()
	// The full undisturbed retry budget is dialAttempts dials with backoff
	// per flush attempt; Close must cut through it, not run it out.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Close took %v with a writer in a dial-retry storm", elapsed)
	}
}

// TestCloseDoesNotWaitForLateAccept closes an endpoint while a peer's
// connection is arriving. Whichever side of Close the accept falls on, Close
// must close that connection itself: a whole cluster closes its endpoints
// one after another, so the peer keeps its end open until this Close has
// returned. A connection registered after Close had swept the accepted list
// used to leave its reader, and with it Close, waiting on the peer for ever.
func TestCloseDoesNotWaitForLateAccept(t *testing.T) {
	for i := 0; i < 300; i++ {
		e, err := Listen(0, []string{"127.0.0.1:0", "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		peer, err := net.Dial("tcp", e.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := peer.Write([]byte{0, 0, 0, 1}); err != nil { // hello from p1
			t.Fatal(err)
		}
		closed := make(chan struct{})
		go func() {
			e.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatalf("attempt %d: Close is waiting for a peer that has not closed", i)
		}
		peer.Close()
	}
}
