package resilient

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"resilient/internal/spawn"
)

// Defaults for the open-loop log workload.
const (
	// DefaultWorkloadOps is the number of operations generated.
	DefaultWorkloadOps = 4096
	// DefaultWorkloadOpBytes is the operation payload size.
	DefaultWorkloadOpBytes = 16
	// workloadOpHeader is the fixed op prefix: sequence (8) + client (4).
	workloadOpHeader = 12
	// workloadClients is the population the client stamp is drawn from.
	workloadClients = 64
)

// LogWorkloadOptions configures an open-loop replicated-log workload: a
// generator submits operations on a paced arrival schedule regardless of
// commit progress (open loop -- queueing delay is measured, not hidden),
// the log's dispatcher folds arrivals into slot batches (a batch closes
// when full OR when the pipeline has a free slot for it), and the log
// pipeline commits them.
type LogWorkloadOptions struct {
	// Log configures the underlying replicated log.
	Log LogOptions
	// Ops is the total operations to submit (0 = DefaultWorkloadOps).
	Ops int
	// Rate is the target arrival rate in ops/sec with exponential
	// inter-arrival times. 0 submits every operation up front (unpaced:
	// the closed-loop maximum-throughput shape).
	Rate float64
	// OpBytes is each operation's payload size, at least the 12-byte
	// sequence+client header (0 = DefaultWorkloadOpBytes).
	OpBytes int
}

// genWorkloadOps deterministically generates the workload's operations:
// a sequence number, a client stamp drawn from the seeded RNG, and padding
// to OpBytes.
func genWorkloadOps(seed uint64, count, opBytes int) [][]byte {
	rng := spawn.Rand(seed ^ 0xc2b2ae3d27d4eb4f)
	ops := make([][]byte, count)
	buf := make([]byte, count*opBytes)
	for i := range ops {
		op := buf[i*opBytes : (i+1)*opBytes]
		binary.BigEndian.PutUint64(op[0:8], uint64(i))
		binary.BigEndian.PutUint32(op[8:12], uint32(rng.IntN(workloadClients)))
		for j := workloadOpHeader; j < opBytes; j++ {
			op[j] = byte(i >> (j % 8))
		}
		ops[i] = op
	}
	return ops
}

// RunLogWorkload drives the replicated log with a generated workload and
// reports committed throughput and commit-latency percentiles. With Rate 0,
// or on EngineSim (whose clock is virtual), the workload degenerates to the
// closed-loop RunLog over the same deterministically generated operations.
func RunLogWorkload(ctx context.Context, opts LogWorkloadOptions) (*LogReport, error) {
	count := opts.Ops
	if count == 0 {
		count = DefaultWorkloadOps
	}
	if count < 1 {
		return nil, fmt.Errorf("resilient: workload ops %d < 1", count)
	}
	opBytes := opts.OpBytes
	if opBytes == 0 {
		opBytes = DefaultWorkloadOpBytes
	}
	if opBytes < workloadOpHeader {
		return nil, fmt.Errorf("resilient: workload op size %d < %d-byte header", opBytes, workloadOpHeader)
	}
	if opts.Rate < 0 {
		return nil, fmt.Errorf("resilient: workload rate %v < 0", opts.Rate)
	}

	ops := genWorkloadOps(opts.Log.Seed, count, opBytes)
	r, err := newLogRun(opts.Log)
	if err != nil {
		return nil, err
	}
	return r.run(ctx, ops, opts.Rate)
}

// arrivalGaps returns the arrival schedule as a generator of successive
// inter-arrival gaps: exponential at rate ops/sec, or all zero at rate 0 --
// every operation due at once, the closed-loop shape. The schedule never
// waits for commits: if the pipeline falls behind, the dispatcher's backlog
// grows and the delay shows up in commit latency, which is the point of an
// open-loop driver.
func arrivalGaps(seed uint64, rate float64) func() time.Duration {
	if rate == 0 {
		return func() time.Duration { return 0 }
	}
	rng := spawn.Rand(seed ^ 0x9e3779b97f4a7c15)
	return func() time.Duration {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return time.Duration(-math.Log(u) / rate * float64(time.Second))
	}
}
