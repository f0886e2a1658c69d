package livenet

import (
	"context"
	"fmt"

	"resilient/internal/core"
	"resilient/internal/metrics"
	"resilient/internal/msg"
	"resilient/internal/transport"
)

// InstanceOutcome is the result of one multi-instance consensus slot run via
// RunInstance.
type InstanceOutcome struct {
	// Value is the first decision's value; with Agreement it is the slot's
	// decided value.
	Value msg.Value
	// Agreement reports whether every decision carried the same value.
	Agreement bool
	// Decided counts the processes that decided.
	Decided int
}

// decide folds one decision with DecisionRecord.Decide's agreement rule.
func (o *InstanceOutcome) decide(nt note) {
	if o.Decided == 0 {
		o.Value = nt.value
	} else if nt.value != o.Value {
		o.Agreement = false
	}
	o.Decided++
}

// crash is a no-op: RunInstance's cluster has no crash plan, and an outcome
// does not list the dead.
func (o *InstanceOutcome) crash(msg.ID) {}

func (o *InstanceOutcome) decided() int { return o.Decided }

// RunInstance runs one consensus instance -- one slot of a replicated log --
// on fresh storage: it is Runner.RunInstance on a Runner of its own.
func RunInstance(ctx context.Context, machines []core.Machine, conns []transport.Conn, run []bool, reg *metrics.Registry) (InstanceOutcome, error) {
	return new(Runner).RunInstance(ctx, machines, conns, run, reg)
}

// RunInstance runs one consensus instance -- one slot of a replicated log --
// through Cluster.Run's loop on r's storage: machines[i] runs over conns[i]
// for every i with run[i] set, sharing the conns' underlying transport with
// every other in-flight instance. Processes with run[i] unset (dead for
// this slot under a slot-boundary fault plan) never start and may have nil
// conns; traffic addressed to them is dropped by the transport, exactly as
// for a crashed process. Decisions fold straight into the outcome, with no
// per-process record. A log keeps one Runner per replica set, so its slots
// reuse the drivers and channels of earlier ones.
//
// The call returns once every running machine has decided, a driver fails,
// or ctx expires, and only after every driver has exited: every machine is
// quiescent once the call returns, so the caller may read it, and reset it
// for another instance, with no engine goroutine left to step it or to hold
// a slice one of its steps returned; and r is ready for the next instance.
// It owns conns' entries from the call on: every non-nil conn is closed on
// return, on every path, releasing its transport resources (for a netxport
// instance conn, its demux id). The slice itself is the caller's again once
// the call returns, to fill for another instance.
func (r *Runner) RunInstance(ctx context.Context, machines []core.Machine, conns []transport.Conn, run []bool, reg *metrics.Registry) (InstanceOutcome, error) {
	n := len(machines)
	if len(conns) != n || len(run) != n {
		CloseConns(conns)
		return InstanceOutcome{}, fmt.Errorf("livenet: %d machines, %d conns, %d run flags", n, len(conns), len(run))
	}
	// To Cluster.Run a nil conn is what marks a process absent, so a conn
	// handed in for a process that does not run is released here.
	for i, c := range conns {
		switch {
		case run[i] && c == nil:
			CloseConns(conns)
			return InstanceOutcome{}, fmt.Errorf("livenet: running process %d has nil conn", i)
		case !run[i] && c != nil:
			c.Close()
			conns[i] = nil
		}
	}
	cluster := Cluster{machines: machines, conns: conns, Metrics: reg}
	r.out = InstanceOutcome{Agreement: true}
	_, _, err := cluster.run(ctx, &r.out, r)
	return r.out, err
}
