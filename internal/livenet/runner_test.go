package livenet

import (
	"context"
	"errors"
	"testing"
	"time"

	"resilient/internal/core"
	"resilient/internal/msg"
	"resilient/internal/transport"
)

// errInjected is what a failConn's receive returns.
var errInjected = errors.New("injected receive failure")

// failConn is a conn whose every receive fails with errInjected, so the
// driver on it returns an error.
type failConn struct{ id msg.ID }

func (c failConn) ID() msg.ID                     { return c.id }
func (c failConn) Send(msg.ID, msg.Message) error { return nil }
func (c failConn) Recv() (msg.Message, error)     { return msg.Message{}, errInjected }
func (c failConn) Close() error                   { return nil }

// quietConn is a conn that carries nothing and can be closed any number of
// times, for machines that decide at their start and never receive.
type quietConn struct{ id msg.ID }

func (c quietConn) ID() msg.ID                     { return c.id }
func (c quietConn) Send(msg.ID, msg.Message) error { return nil }
func (c quietConn) Recv() (msg.Message, error)     { return msg.Message{}, transport.ErrClosed }
func (c quietConn) Close() error                   { return nil }

// TestRunnerReuseCarriesNothing runs, on one Runner, instances that fail
// alternating with clean ones. A failing instance has one process deciding 1
// at its start and three drivers failing on their first receive: the run
// ends on the first failure and leaves the other two, and possibly the
// decision, for the shutdown to drain. The clean instance after it on the
// same storage -- Figure 1, unanimous on 0, same n, so the same channels --
// must end cleanly with every process deciding 0: a left-over error would
// fail it and a left-over decision would break its agreement.
func TestRunnerReuseCarriesNothing(t *testing.T) {
	const n, k = 4, 1
	all := []bool{true, true, true, true}
	zeros := make([]msg.Value, n)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var r Runner
	for round := 0; round < 5; round++ {
		failing := []core.Machine{&stub{id: 0, value: msg.V1, decides: true}, &stub{id: 1}, &stub{id: 2}, &stub{id: 3}}
		conns := []transport.Conn{quietConn{0}, failConn{1}, failConn{2}, failConn{3}}
		if _, err := r.RunInstance(ctx, failing, conns, all, nil); !errors.Is(err, errInjected) {
			t.Fatalf("round %d: failing instance returned %v, want the injected failure", round, err)
		}
		out, err := r.RunInstance(ctx, failstopMachines(t, n, k, zeros), memConns(t, n), all, nil)
		if err != nil {
			t.Fatalf("round %d: clean instance after a failing one: %v", round, err)
		}
		if want := (InstanceOutcome{Value: msg.V0, Agreement: true, Decided: n}); out != want {
			t.Fatalf("round %d: clean instance after a failing one: outcome %+v, want %+v", round, out, want)
		}
	}
}

// runnerAllocCeiling bounds what a warm Runner allocates to run an n = 7
// instance whose machines decide at their start: one goroutine start per
// driver, and one more for the runtime. Measured: 7 per run on a warm
// Runner; 12 on the fresh storage RunInstance gives each call (the Runner,
// its drivers and both channels); 21 when the loop built every driver
// apart, a cancellation context and a wait group for each run.
const runnerAllocCeiling = 8

// TestRunnerReuseAllocations pins that a Runner keeps its drivers and
// channels: on a warm Runner an instance allocates only its goroutine
// starts, where RunInstance's fresh storage allocates them all again.
func TestRunnerReuseAllocations(t *testing.T) {
	const n = 7
	machines := make([]core.Machine, n)
	conns := make([]transport.Conn, n)
	run := make([]bool, n)
	for i := range machines {
		machines[i] = &stub{id: msg.ID(i), value: msg.V1, decides: true}
		conns[i] = quietConn{msg.ID(i)}
		run[i] = true
	}
	ctx := context.Background()
	var r Runner
	instance := func(run func() (InstanceOutcome, error)) func() {
		return func() {
			if out, err := run(); err != nil || out.Decided != n {
				t.Fatalf("outcome %+v, err %v; want %d decisions", out, err, n)
			}
		}
	}
	warm := testing.AllocsPerRun(100, instance(func() (InstanceOutcome, error) {
		return r.RunInstance(ctx, machines, conns, run, nil)
	}))
	fresh := testing.AllocsPerRun(100, instance(func() (InstanceOutcome, error) {
		return RunInstance(ctx, machines, conns, run, nil)
	}))
	t.Logf("%v allocations per instance on a warm Runner, %v on fresh storage", warm, fresh)
	if warm > runnerAllocCeiling {
		t.Fatalf("a warm Runner allocates %v times per instance, ceiling %d", warm, runnerAllocCeiling)
	}
}
