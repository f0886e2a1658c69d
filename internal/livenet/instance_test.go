package livenet

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"resilient/internal/core"
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

// stub is a machine that, when it decides, decides value at Start and halts;
// one that does not decide sends nothing and waits until its conn closes.
type stub struct {
	id      msg.ID
	value   msg.Value
	decides bool
}

func (m *stub) ID() msg.ID                            { return m.id }
func (m *stub) Start() []core.Outbound                { return nil }
func (m *stub) OnMessage(msg.Message) []core.Outbound { return nil }
func (m *stub) Decided() (msg.Value, bool)            { return m.value, m.decides }
func (m *stub) Halted() bool                          { return m.decides }
func (m *stub) Phase() msg.Phase                      { return 0 }

// memConns returns one conn per process of a fresh in-memory system.
func memConns(t *testing.T, n int) []transport.Conn {
	t.Helper()
	_, conns := countedMemConns(t, n)
	return conns
}

// TestRunInstanceFoldMatchesClusterRun pins RunInstance's outcome, folded
// without Cluster.Run's decision record, against that record: the same
// value, agreement and decision count for agreeing Figure-1 instances on
// either input, and for two scripted processes deciding 0 and 1.
func TestRunInstanceFoldMatchesClusterRun(t *testing.T) {
	const n, k = 5, 2
	all := []bool{true, true, true, true, true}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, v := range []msg.Value{msg.V0, msg.V1} {
		inputs := []msg.Value{v, v, v, v, v}
		cluster, err := NewMemCluster(failstopMachines(t, n, k, inputs))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := cluster.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		out, err := RunInstance(ctx, failstopMachines(t, n, k, inputs), memConns(t, n), all, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out.Value != rep.Value || out.Agreement != rep.Agreement || out.Decided != len(rep.Decisions) {
			t.Errorf("inputs %d: outcome %+v, Cluster.Run value %d agreement %v decisions %d",
				v, out, rep.Value, rep.Agreement, len(rep.Decisions))
		}
		if !out.Agreement || out.Value != v || out.Decided != n {
			t.Errorf("inputs %d: outcome %+v, want %d agreeing decisions on %d", v, out, n, v)
		}
	}

	split := func() []core.Machine {
		return []core.Machine{&stub{id: 0, value: msg.V0, decides: true}, &stub{id: 1, value: msg.V1, decides: true}}
	}
	cluster, err := NewMemCluster(split())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cluster.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunInstance(ctx, split(), memConns(t, 2), []bool{true, true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Agreement || out.Decided != 2 || rep.Agreement || len(rep.Decisions) != 2 {
		t.Errorf("split decisions: outcome %+v, Cluster.Run agreement %v decisions %d; want no agreement, 2 decisions",
			out, rep.Agreement, len(rep.Decisions))
	}
}

// TestRunInstanceDeadlineCounts pins the deadline path of the fold: with one
// of three processes decided when the context expires, RunInstance returns
// the deadline error with the counts Cluster.Run's record gave it, and the
// one decision in the outcome.
func TestRunInstanceDeadlineCounts(t *testing.T) {
	machines := []core.Machine{&stub{id: 0, value: msg.V1, decides: true}, &stub{id: 1}, &stub{id: 2}}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	out, err := RunInstance(ctx, machines, memConns(t, 3), []bool{true, true, true}, nil)
	if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "1/3 decisions before deadline") {
		t.Fatalf("err = %v, want the 1/3 deadline error", err)
	}
	if out.Decided != 1 || !out.Agreement || out.Value != msg.V1 {
		t.Fatalf("outcome %+v, want one decision on 1", out)
	}
}
