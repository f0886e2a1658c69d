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
)

// SaturationOptions configures a TCP saturation run: a loopback mesh pushed
// as hard as the transport allows, with no protocol logic on top. It is the
// live-path throughput probe behind `consensus-sim -engine tcp -saturate`
// and the CI bench-live lane.
type SaturationOptions struct {
	// N is the mesh size (default 7). Every endpoint sends concurrently,
	// round-robin over its n-1 peers -- the shape of a broadcast storm.
	N int
	// Messages is the total message budget across all senders (default
	// 200000).
	Messages int
	// Payload is the per-message payload size in bytes (default 0:
	// header-only frames, the protocols' common case).
	Payload int
	// Metrics, when non-nil, receives the endpoints' "net." accounting.
	Metrics *MetricsRegistry
}

// SaturationReport is the outcome of one saturation run.
type SaturationReport struct {
	// Messages is the number of messages actually delivered end to end.
	Messages int
	// Bytes is the wire volume those messages occupied (length prefix and
	// instance header included).
	Bytes int64
	// Elapsed is the wall-clock duration from first send to last delivery.
	Elapsed time.Duration
	// MsgsPerSec and MBPerSec are the aggregate throughput headlines.
	MsgsPerSec float64
	MBPerSec   float64
}

func (r *SaturationReport) String() string {
	return fmt.Sprintf("%d msgs in %v: %.0f msgs/s, %.1f MB/s",
		r.Messages, r.Elapsed.Round(time.Millisecond), r.MsgsPerSec, r.MBPerSec)
}

// wireFrameLen is the on-the-wire size of one message: 4-byte length prefix,
// 4-byte instance id, msg encoding.
func wireFrameLen(m msg.Message) int64 { return int64(msg.EncodedLen(m)) + 8 }

// RunTCPSaturation floods a loopback TCP mesh with consensus-shaped frames
// and reports the aggregate throughput. The context bounds the run; on
// expiry the report covers what was delivered before the deadline, returned
// alongside the context's error.
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
	if opts.Payload < 0 || opts.Payload > msg.MaxPayload {
		return nil, fmt.Errorf("resilient: payload %d outside [0, %d]", opts.Payload, msg.MaxPayload)
	}

	endpoints, err := tcpMeshEndpoints(n, opts.Metrics)
	if err != nil {
		return nil, err
	}
	defer closeEndpoints(endpoints)

	var payload []byte
	if opts.Payload > 0 {
		payload = make([]byte, opts.Payload)
	}
	proto := msg.Graph(0, 0, payload) // one representative message, reused
	if payload == nil {
		proto = msg.Val(0, 0, msg.V1)
	}

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
	rep := &SaturationReport{
		Messages: delivered,
		Bytes:    int64(delivered) * wireFrameLen(proto),
		Elapsed:  elapsed,
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rep.MsgsPerSec = float64(delivered) / secs
		rep.MBPerSec = float64(rep.Bytes) / secs / 1e6
	}
	if ctxErr == nil && delivered < total {
		ctxErr = fmt.Errorf("resilient: saturation sent %d/%d before cancellation: %w",
			delivered, total, ctx.Err())
	}
	return rep, ctxErr
}
