package livenet

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"resilient/internal/adversary"
	"resilient/internal/faults"
	"resilient/internal/msg"
	"resilient/internal/policy"
	"resilient/internal/transport"
)

// TestMemClusterCrashPlan runs the same kind of fail-stop fault plan the
// simulator executes -- one initially-dead process, two crash-at-phase
// deaths (one mid-broadcast) -- on the live engine: the survivors must
// still decide and the report must account for the dead.
func TestMemClusterCrashPlan(t *testing.T) {
	n, k := 7, 3
	cluster, err := NewMemCluster(failstopMachines(t, n, k, mixed(n)))
	if err != nil {
		t.Fatal(err)
	}
	cluster.Crashes = faults.Plan{
		4: {Process: 4, Phase: 0, AfterSends: 0}, // initially dead
		5: {Process: 5, Phase: 1, AfterSends: 3}, // dies mid-broadcast
		6: {Process: 6, Phase: 2, AfterSends: 0}, // dies at a phase boundary
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := cluster.Run(ctx)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.AllDecided {
		t.Fatalf("survivors did not all decide: %+v", rep)
	}
	if !rep.Agreement {
		t.Fatalf("disagreement under crash plan: %+v", rep.Decisions)
	}
	// The run ends when the survivors have decided, which the two mid-run
	// crash points may or may not have been reached by: only the initially
	// dead process is certain to be reported, and nobody outside the plan.
	if !slices.Contains(rep.Crashed, 4) {
		t.Fatalf("crashed %v misses the initially dead p4", rep.Crashed)
	}
	for _, id := range rep.Crashed {
		if _, planned := cluster.Crashes[id]; !planned {
			t.Fatalf("p%d crashed outside the plan: %v", id, rep.Crashed)
		}
	}
	for id := range rep.Decisions {
		if id >= 4 {
			t.Fatalf("crash-planned p%d decided: %v", id, rep.Decisions)
		}
	}
	if len(rep.Decisions) != n-k {
		t.Fatalf("%d decisions, want %d", len(rep.Decisions), n-k)
	}
}

// TestMemClusterLinkPolicyDelays runs a cluster whose links are jittered by
// the shared policy layer (the same Uniform policy the simulator defaults
// to, interpreted in wall-clock units).
func TestMemClusterLinkPolicyDelays(t *testing.T) {
	n, k := 5, 2
	cluster, err := NewMemCluster(failstopMachines(t, n, k, mixed(n)))
	if err != nil {
		t.Fatal(err)
	}
	cluster.Policy = policy.Uniform{Min: 0.1, Max: 1}
	cluster.Unit = 200 * time.Microsecond
	cluster.Seed = 7
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := cluster.Run(ctx)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.AllDecided || !rep.Agreement {
		t.Fatalf("jittered cluster failed: %+v", rep)
	}
}

// TestMemClusterPartitionPolicyStalls pins the live-engine version of the
// Theorem 1 construction: a partition that leaves neither side with n-k
// correct processes must prevent global decision, and cancellation must
// still tear the cluster down promptly (no driver stuck in Recv).
func TestMemClusterPartitionPolicyStalls(t *testing.T) {
	n, k := 7, 3
	cluster, err := NewMemCluster(failstopMachines(t, n, k, mixed(n)))
	if err != nil {
		t.Fatal(err)
	}
	// Halves(2): a 2-process group and a 5-process group. The small group
	// can never gather n-k=4 phase messages, so at least two processes
	// never decide.
	cluster.Policy = policy.Partition{GroupOf: adversary.Halves(2)}
	cluster.Unit = 100 * time.Microsecond
	ctx, cancel := context.WithTimeout(context.Background(), 800*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	var rep *Report
	var runErr error
	go func() {
		rep, runErr = cluster.Run(ctx)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cluster.Run hung after context expiry (Recv not unblocked)")
	}
	if runErr == nil {
		t.Fatalf("partitioned run completed: %+v", rep)
	}
	if rep.AllDecided {
		t.Fatal("partitioned run reported AllDecided")
	}
}

// TestClusterRunClosesConnsOnCancel is the regression test for drivers
// hanging in conn.Recv after the caller cancels: machines that have decided
// nothing and receive no traffic sit in Recv forever unless cancellation
// closes their connections.
func TestClusterRunClosesConnsOnCancel(t *testing.T) {
	n, k := 5, 2
	// Drop every message: no driver will ever leave Recv on its own.
	cluster, err := NewMemCluster(failstopMachines(t, n, k, mixed(n)))
	if err != nil {
		t.Fatal(err)
	}
	cluster.Policy = policy.Drop{P: 1}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		_, _ = cluster.Run(ctx)
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cluster.Run did not return after cancellation")
	}
}

// TestMemClusterByzantineExcluded checks the simulator-aligned accounting:
// a process marked Byzantine neither blocks AllDecided nor contributes a
// decision to the report.
func TestMemClusterByzantineExcluded(t *testing.T) {
	n, k := 5, 2
	inputs := []msg.Value{1, 1, 1, 1, 0}
	cluster, err := NewMemCluster(failstopMachines(t, n, k, inputs))
	if err != nil {
		t.Fatal(err)
	}
	cluster.Byzantine = map[msg.ID]bool{4: true}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := cluster.Run(ctx)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.AllDecided || !rep.Agreement {
		t.Fatalf("byzantine-excluded run failed: %+v", rep)
	}
	if _, ok := rep.Decisions[4]; ok {
		t.Fatalf("byzantine decision recorded: %v", rep.Decisions)
	}
	if len(rep.Decisions) != n-1 {
		t.Fatalf("decisions %v, want %d entries", rep.Decisions, n-1)
	}
}

// TestRunRejectedPlanClosesConns: Run owns its connections on every return
// path, the plan-validation refusal included -- a receiver parked on one of
// them is released instead of leaking with its socket.
func TestRunRejectedPlanClosesConns(t *testing.T) {
	n, k := 5, 2
	cluster, err := NewMemCluster(failstopMachines(t, n, k, mixed(n)))
	if err != nil {
		t.Fatal(err)
	}
	cluster.Crashes = faults.Plan{9: {Process: 9}}
	if rep, err := cluster.Run(context.Background()); err == nil || rep != nil {
		t.Fatalf("crash plan for p9 accepted at n=%d: %+v", n, rep)
	}
	for i, c := range cluster.conns {
		if _, err := c.Recv(); !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("conn %d after a rejected run: %v, want transport.ErrClosed", i, err)
		}
	}
}

// TestPolicyConnSaturatesLongDelays: a delay whose wall-clock length passes
// the largest time.Duration must wait (as good as) forever. Converted
// without saturating it wraps negative and the timer delivers at once.
func TestPolicyConnSaturatesLongDelays(t *testing.T) {
	for _, tc := range []struct {
		pol  policy.LinkPolicy
		unit time.Duration
	}{
		{policy.Constant{D: 1e10}, time.Second},
		{policy.Constant{D: 1e12}, 10 * time.Millisecond},
	} {
		net := transport.NewMem(2)
		from, err := net.Conn(0)
		if err != nil {
			t.Fatal(err)
		}
		to, err := net.Conn(1)
		if err != nil {
			t.Fatal(err)
		}
		conn := newPolicyConn(from, tc.pol, tc.unit, time.Now(), 1)
		if err := conn.Send(1, msg.Message{Kind: msg.KindState, Value: msg.V1}); err != nil {
			t.Fatal(err)
		}
		got := make(chan error, 1)
		go func() {
			_, err := to.Recv()
			got <- err
		}()
		select {
		case err := <-got:
			t.Errorf("%+v at unit %v: Recv returned (err %v) before the delay", tc.pol, tc.unit, err)
		case <-time.After(50 * time.Millisecond):
		}
		// Closing ends the pending Recv; got is buffered, so it exits.
		_ = conn.Close()
		net.Close()
	}
}
