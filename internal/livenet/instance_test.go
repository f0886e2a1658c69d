package livenet

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"resilient/internal/msg"
	"resilient/internal/transport"
)

// countingConn counts the Close calls its conn receives.
type countingConn struct {
	transport.Conn
	closes atomic.Int32
}

func (c *countingConn) Close() error {
	c.closes.Add(1)
	return c.Conn.Close()
}

// countedMemConns returns one counting conn per process of a fresh in-memory
// system, both as themselves and as the slice RunInstance takes (and
// consumes).
func countedMemConns(t *testing.T, n int) ([]*countingConn, []transport.Conn) {
	t.Helper()
	mem := transport.NewMem(n)
	counted := make([]*countingConn, n)
	conns := make([]transport.Conn, n)
	for i := range conns {
		c, err := mem.Conn(msg.ID(i))
		if err != nil {
			t.Fatal(err)
		}
		counted[i] = &countingConn{Conn: c}
		conns[i] = counted[i]
	}
	return counted, conns
}

// TestRunInstanceClosesEveryConn pins RunInstance's contract on the paths
// that used to break it: both validation refusals returned with every conn
// still open, and a conn handed in for a process that does not run was
// closed only by a goroutine that could outlive the call. On every path each
// non-nil conn is closed exactly once by the time the call returns.
func TestRunInstanceClosesEveryConn(t *testing.T) {
	n, k := 5, 2
	all := []bool{true, true, true, true, true}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	closedOnce := func(t *testing.T, counted []*countingConn) {
		t.Helper()
		for i, c := range counted {
			if got := c.closes.Load(); got != 1 {
				t.Errorf("conn %d closed %d times, want 1", i, got)
			}
		}
	}

	t.Run("length mismatch", func(t *testing.T) {
		counted, conns := countedMemConns(t, n-1)
		if _, err := RunInstance(ctx, failstopMachines(t, n, k, mixed(n)), conns, all, nil); err == nil {
			t.Fatal("4 conns for 5 machines accepted")
		}
		closedOnce(t, counted)
	})

	t.Run("running process without a conn", func(t *testing.T) {
		counted, conns := countedMemConns(t, n)
		conns[2] = nil
		if _, err := RunInstance(ctx, failstopMachines(t, n, k, mixed(n)), conns, all, nil); err == nil {
			t.Fatal("a running process with a nil conn accepted")
		}
		closedOnce(t, append(counted[:2:2], counted[3:]...))
	})

	t.Run("conn for a process that does not run", func(t *testing.T) {
		counted, conns := countedMemConns(t, n)
		run := []bool{true, true, true, true, false}
		out, err := RunInstance(ctx, failstopMachines(t, n, k, mixed(n)), conns, run, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out.Decided != n-1 || !out.Agreement {
			t.Fatalf("outcome %+v, want %d agreeing decisions", out, n-1)
		}
		closedOnce(t, counted)
	})
}
