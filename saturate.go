package resilient

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"resilient/internal/msg"
	"resilient/internal/netxport"
	"resilient/internal/spawn"
)

// SaturationOptions configures a TCP saturation run: a loopback mesh pushed
// as hard as the transport allows, with no protocol on top. It is the
// transport's throughput probe, run by cmd/bench's
// netxport.loopback_msgs_per_s measurement.
type SaturationOptions struct {
	// N is the mesh size (default 7). Every endpoint sends concurrently,
	// round-robin over its n-1 peers -- the shape of a broadcast storm.
	N int
	// Messages is the total message budget across all senders (default
	// 200000).
	Messages int
}

// SaturationReport is the outcome of one saturation run.
type SaturationReport struct {
	// Messages is the number of messages actually delivered end to end.
	Messages int
	// Elapsed is the wall-clock duration from first send to last delivery.
	Elapsed time.Duration
	// MsgsPerSec is the aggregate throughput.
	MsgsPerSec float64
}

// RunTCPSaturation floods a loopback TCP mesh with header-only
// consensus-shaped frames and reports the aggregate throughput. The context
// bounds the run; on expiry the report covers what was delivered before the
// deadline, returned alongside the context's error.
func RunTCPSaturation(ctx context.Context, opts SaturationOptions) (*SaturationReport, error) {
	n := opts.N
	if n <= 0 {
		n = 7
	}
	if n < 2 {
		return nil, fmt.Errorf("resilient: saturation needs n >= 2, got %d", n)
	}
	total := opts.Messages
	if total <= 0 {
		total = 200000
	}

	endpoints, err := spawn.TCPMesh(n, nil)
	if err != nil {
		return nil, err
	}
	defer spawn.CloseMesh(endpoints)

	proto := msg.Val(0, 0, msg.V1) // one representative message, reused

	var received atomic.Int64
	for _, ep := range endpoints {
		go func(ep *netxport.Endpoint) {
			for {
				if _, err := ep.Recv(); err != nil {
					return
				}
				received.Add(1)
			}
		}(ep)
	}

	// Split the budget across the n senders, remainder to the low ids.
	quota := make([]int, n)
	for i := 0; i < n; i++ {
		quota[i] = total / n
		if i < total%n {
			quota[i]++
		}
	}
	var sent atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			ep := endpoints[self]
			for k := 0; k < quota[self]; k++ {
				if k%1024 == 0 && ctx.Err() != nil {
					return
				}
				to := msg.ID((self + 1 + k%(n-1)) % n) // round-robin over peers
				if err := ep.Send(to, proto); err != nil {
					return
				}
				sent.Add(1)
			}
		}(i)
	}
	wg.Wait()

	// Drain: every sent frame must come out the other side.
	var ctxErr error
	for received.Load() < sent.Load() {
		if err := ctx.Err(); err != nil {
			ctxErr = fmt.Errorf("resilient: saturation drained %d/%d before deadline: %w",
				received.Load(), sent.Load(), err)
			break
		}
		runtime.Gosched()
	}
	elapsed := time.Since(start)

	delivered := int(received.Load())
	rep := &SaturationReport{Messages: delivered, Elapsed: elapsed}
	if secs := elapsed.Seconds(); secs > 0 {
		rep.MsgsPerSec = float64(delivered) / secs
	}
	if ctxErr == nil && delivered < total {
		ctxErr = fmt.Errorf("resilient: saturation sent %d/%d before cancellation: %w",
			delivered, total, ctx.Err())
	}
	return rep, ctxErr
}
