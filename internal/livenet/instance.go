package livenet

import (
	"context"
	"fmt"
	"sync"

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

// RunInstance drives one consensus instance -- one slot of a replicated log
// -- over caller-supplied connections: machines[i] runs over conns[i] for
// every i with run[i] set, sharing the conns' underlying transport with
// every other in-flight instance. Processes with run[i] unset (dead for
// this slot under a slot-boundary fault plan) never start and may have nil
// conns; traffic addressed to them is dropped by the transport, exactly as
// for a crashed process.
//
// The call returns once every running machine has decided, a driver fails,
// or ctx expires. All non-nil conns are closed on return, releasing their
// transport resources (for a netxport instance conn, its demux id).
func RunInstance(ctx context.Context, machines []core.Machine, conns []transport.Conn, run []bool, reg *metrics.Registry) (InstanceOutcome, error) {
	n := len(machines)
	if len(conns) != n || len(run) != n {
		return InstanceOutcome{}, fmt.Errorf("livenet: %d machines, %d conns, %d run flags", n, len(conns), len(run))
	}
	met := newLiveMetrics(reg)
	awaited := 0
	for i := range machines {
		if run[i] {
			if conns[i] == nil {
				return InstanceOutcome{}, fmt.Errorf("livenet: running process %d has nil conn", i)
			}
			awaited++
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	decCh := make(chan Decision, n)
	errCh := make(chan error, n)
	var wg sync.WaitGroup
	for i := range machines {
		if !run[i] {
			continue
		}
		d := NewDriver(machines[i], conns[i], n)
		d.met = met
		d.OnDecide = func(dec Decision) { decCh <- dec }
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := d.Run(runCtx); err != nil {
				errCh <- err
			}
		}()
	}
	// Close every conn the moment the instance ends -- decision, error, or
	// cancellation -- so no driver hangs in Recv and the transport resources
	// (mux ids, mailboxes) are released promptly.
	go func() {
		<-runCtx.Done()
		closeConns(conns)
	}()

	out := InstanceOutcome{Agreement: true}
	var runErr error
collect:
	for out.Decided < awaited {
		select {
		case dec := <-decCh:
			if out.Decided == 0 {
				out.Value = dec.Value
			} else if dec.Value != out.Value {
				out.Agreement = false
			}
			out.Decided++
		case err := <-errCh:
			runErr = err
			break collect
		case <-ctx.Done():
			runErr = fmt.Errorf("livenet: instance %d/%d decisions before deadline: %w",
				out.Decided, awaited, ctx.Err())
			break collect
		}
	}
	cancel()
	wg.Wait()
	// Drain decisions that raced with shutdown.
	for {
		select {
		case dec := <-decCh:
			if out.Decided == 0 {
				out.Value = dec.Value
			} else if dec.Value != out.Value {
				out.Agreement = false
			}
			out.Decided++
			continue
		default:
		}
		break
	}
	return out, runErr
}
