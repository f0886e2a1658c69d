package livenet

import (
	"context"
	"testing"
	"time"

	"resilient/internal/byzantine"
	"resilient/internal/core"
	"resilient/internal/failstop"
	"resilient/internal/majority"
	"resilient/internal/malicious"
	"resilient/internal/msg"
	"resilient/internal/netxport"
	"resilient/internal/policy"
	"resilient/internal/transport"
)

func failstopMachines(t *testing.T, n, k int, inputs []msg.Value) []core.Machine {
	t.Helper()
	ms := make([]core.Machine, n)
	for i := range ms {
		m, err := failstop.New(core.Config{N: n, K: k, Self: msg.ID(i), Input: inputs[i]}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	return ms
}

func mixed(n int) []msg.Value {
	in := make([]msg.Value, n)
	for i := range in {
		in[i] = msg.Value(i % 2)
	}
	return in
}

func TestMemClusterFailStop(t *testing.T) {
	cluster, err := NewMemCluster(failstopMachines(t, 5, 2, mixed(5)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := cluster.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Decisions) != 5 || !rep.Agreement {
		t.Fatalf("decisions %d agreement %v", len(rep.Decisions), rep.Agreement)
	}
}

func TestMemClusterMalicious(t *testing.T) {
	n, k := 7, 2
	ms := make([]core.Machine, n)
	for i := range ms {
		m, err := malicious.New(core.Config{N: n, K: k, Self: msg.ID(i), Input: msg.Value(i % 2)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	cluster, err := NewMemCluster(ms)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := cluster.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Decisions) != n || !rep.Agreement {
		t.Fatalf("decisions %d agreement %v", len(rep.Decisions), rep.Agreement)
	}
}

func TestJitterClusterNonHaltingProtocol(t *testing.T) {
	// The majority variant never halts and -- on a balanced input -- can
	// livelock under near-deterministic FIFO delivery, which is precisely
	// why the paper postulates probabilistic message-system behaviour
	// (Section 2.3). A uniform link policy over the in-memory transport
	// provides it; the cluster must then return once everyone has decided.
	n, k := 7, 2
	ms := make([]core.Machine, n)
	for i := range ms {
		m, err := majority.New(core.Config{N: n, K: k, Self: msg.ID(i), Input: msg.Value(i % 2)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	cluster, err := NewMemCluster(ms)
	if err != nil {
		t.Fatal(err)
	}
	cluster.Policy = policy.Uniform{Min: 0, Max: 1}
	cluster.Unit = 2 * time.Millisecond
	cluster.Seed = 42
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := cluster.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Decisions) != n || !rep.Agreement {
		t.Fatalf("decisions %d agreement %v", len(rep.Decisions), rep.Agreement)
	}
}

func TestMemClusterValidity(t *testing.T) {
	inputs := []msg.Value{1, 1, 1, 1, 1}
	cluster, err := NewMemCluster(failstopMachines(t, 5, 2, inputs))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := cluster.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Agreement || rep.Value != msg.V1 {
		t.Fatalf("validity: agreement %v value %d", rep.Agreement, rep.Value)
	}
}

func TestMemClusterRejectsMismatchedIDs(t *testing.T) {
	ms := failstopMachines(t, 3, 1, mixed(3))
	ms[0], ms[1] = ms[1], ms[0]
	if _, err := NewMemCluster(ms); err == nil {
		t.Error("mismatched ids accepted")
	}
}

func TestClusterRejectsLengthMismatch(t *testing.T) {
	ms := failstopMachines(t, 3, 1, mixed(3))
	if _, err := NewCluster(ms, nil); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestClusterDeadlineExpires(t *testing.T) {
	// One machine that never decides: a cluster of majority machines with
	// an impossible quorum is overkill; instead use a context that is
	// already cancelled and verify the error path.
	cluster, err := NewMemCluster(failstopMachines(t, 3, 1, mixed(3)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = cluster.Run(ctx)
	if err == nil {
		t.Log("run finished before cancellation was observed (acceptable race)")
	}
}

// crashConn wraps a Conn and kills the process after a fixed number of
// receives: the live-engine analogue of a fail-stop death.
type crashConn struct {
	inner interface {
		ID() msg.ID
		Send(msg.ID, msg.Message) error
		Recv() (msg.Message, error)
		Close() error
	}
	recvLeft int
}

func (c *crashConn) ID() msg.ID { return c.inner.ID() }
func (c *crashConn) Send(to msg.ID, m msg.Message) error {
	if c.recvLeft <= 0 {
		return nil // dead: messages silently vanish
	}
	return c.inner.Send(to, m)
}
func (c *crashConn) Recv() (msg.Message, error) {
	if c.recvLeft <= 0 {
		// Dead: behave like a closed endpoint so the driver exits.
		c.inner.Close()
		return c.inner.Recv()
	}
	c.recvLeft--
	return c.inner.Recv()
}
func (c *crashConn) Close() error { return c.inner.Close() }

func TestLiveClusterSurvivesCrashes(t *testing.T) {
	// n=7, k=3 Figure 1; two processes die mid-run (after a few receives),
	// one never starts receiving at all. The survivors must still decide.
	n, k := 7, 3
	inputs := mixed(n)
	machines := failstopMachines(t, n, k, inputs)
	mem := transport.NewMem(n)
	conns := make([]transport.Conn, n)
	for i := 0; i < n; i++ {
		c, err := mem.Conn(msg.ID(i))
		if err != nil {
			t.Fatal(err)
		}
		switch i {
		case 4:
			conns[i] = &crashConn{inner: c, recvLeft: 0}
		case 5:
			conns[i] = &crashConn{inner: c, recvLeft: 5}
		case 6:
			conns[i] = &crashConn{inner: c, recvLeft: 12}
		default:
			conns[i] = c
		}
	}
	cluster, err := NewCluster(machines, conns)
	if err != nil {
		t.Fatal(err)
	}
	// A short deadline: the survivors decide within milliseconds, and the
	// run can only end by deadline because the dead processes never report.
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	rep, runErr := cluster.Run(ctx)
	_ = runErr
	if len(rep.Decisions) < n-k {
		t.Fatalf("only %d decisions, want >= %d", len(rep.Decisions), n-k)
	}
	if !rep.Agreement {
		t.Fatalf("disagreement under live crashes: %+v", rep.Decisions)
	}
}

func TestTCPByzantineLiveCluster(t *testing.T) {
	// A live TCP cluster with a real Byzantine member: p3 equivocates over
	// actual sockets. The three correct processes (k = 1) must still agree.
	n, k := 4, 1
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	endpoints := make([]*netxport.Endpoint, n)
	for i := 0; i < n; i++ {
		ep, err := netxport.Listen(msg.ID(i), addrs)
		if err != nil {
			t.Fatal(err)
		}
		endpoints[i] = ep
		t.Cleanup(func() { ep.Close() })
	}
	for _, ep := range endpoints {
		for j, other := range endpoints {
			ep.SetPeerAddr(msg.ID(j), other.Addr())
		}
	}
	machines := make([]core.Machine, n)
	conns := make([]transport.Conn, n)
	for i := 0; i < n; i++ {
		cfg := core.Config{N: n, K: k, Self: msg.ID(i), Input: msg.Value(i % 2)}
		if i == 3 {
			machines[i] = byzantine.NewEquivocator(malicious.NewUnsafe(cfg, nil), n)
		} else {
			m, err := malicious.New(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			machines[i] = m
		}
		conns[i] = endpoints[i]
	}
	cluster, err := NewCluster(machines, conns)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	rep, _ := cluster.Run(ctx)
	correct := 0
	var val msg.Value
	first := true
	for id, v := range rep.Decisions {
		if id == 3 {
			continue // the equivocator's "decision" carries no weight
		}
		correct++
		if first {
			val, first = v, false
		} else if v != val {
			t.Fatalf("correct processes disagreed over TCP: %+v", rep.Decisions)
		}
	}
	if correct != n-1 {
		t.Fatalf("%d correct decisions, want %d", correct, n-1)
	}
}
