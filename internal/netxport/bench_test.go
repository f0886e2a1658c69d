package netxport

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"resilient/internal/msg"
)

// drainEndpoint consumes an endpoint's inbox until it closes, counting into
// got.
func drainEndpoint(ep *Endpoint, got *atomic.Int64) {
	for {
		if _, err := ep.Recv(); err != nil {
			return
		}
		got.Add(1)
	}
}

// benchLoopback pushes b.N messages through an n-endpoint loopback mesh --
// every endpoint sending round-robin to its peers concurrently, the shape of
// a consensus broadcast storm -- and reports aggregate msgs/s.
func benchLoopback(b *testing.B, n int) {
	eps := mesh(b, n)
	var got atomic.Int64
	for _, ep := range eps {
		go drainEndpoint(ep, &got)
	}

	// Split b.N messages across the n senders, remainder to the low ids.
	quota := make([]int, n)
	for i := 0; i < n; i++ {
		quota[i] = b.N / n
		if i < b.N%n {
			quota[i]++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			ep := eps[self]
			for k := 0; k < quota[self]; k++ {
				to := msg.ID((self + 1 + k%(n-1)) % n) // round-robin over peers
				if err := ep.Send(to, msg.Val(0, msg.Phase(k), msg.V1)); err != nil {
					b.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for got.Load() < int64(b.N) {
		runtime.Gosched()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
}

// BenchmarkNetxportLoopback is the live-path throughput headline tracked by
// the CI bench lane: messages per second over real loopback sockets at
// cluster sizes n=7/13/21.
func BenchmarkNetxportLoopback(b *testing.B) {
	for _, n := range []int{7, 13, 21} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchLoopback(b, n) })
	}
}

// maxTransportAllocsPerMessage is the transport hot path's allocation
// ceiling, the socket-path sibling of the simulator's
// BenchmarkSimulateZeroAlloc gate. A sent message crosses Send -> enqueue ->
// writer flush -> peer read loop -> decoder -> inbox; in steady state (warm
// buffers, established connection) that whole chain is append/reuse only.
// The allowance above zero absorbs runtime jitter (netpoll, timer churn),
// not a per-message allocation.
const maxTransportAllocsPerMessage = 0.5

// BenchmarkNetxportZeroAlloc FAILS, not just reports, when the steady-state
// socket path allocates more than the ceiling per message (sender and
// receiver goroutines included -- AllocsPerRun counts the whole process).
func BenchmarkNetxportZeroAlloc(b *testing.B) {
	eps := mesh(b, 2)
	var got atomic.Int64
	go drainEndpoint(eps[1], &got)
	m := msg.Val(0, 1, msg.V1)

	send := func(count int) {
		start := got.Load()
		for i := 0; i < count; i++ {
			if err := eps[0].Send(1, m); err != nil {
				b.Fatal(err)
			}
		}
		// Quiesce: the writer's flush and the peer's decode must land inside
		// the measured window to be attributed.
		for got.Load() < start+int64(count) {
			runtime.Gosched()
		}
	}
	send(2000) // warm: dial, grow the pending/spare/decoder buffers

	const batch = 5000
	allocs := testing.AllocsPerRun(3, func() { send(batch) })
	perMessage := allocs / batch
	if perMessage > maxTransportAllocsPerMessage {
		b.Fatalf("%.4f allocs per message (%.0f allocs / %d messages), ceiling %.2f",
			perMessage, allocs, batch, maxTransportAllocsPerMessage)
	}

	b.ReportAllocs()
	b.ResetTimer()
	send(b.N)
	b.StopTimer()
	b.ReportMetric(perMessage, "allocs/msg")
}

// maxChurnBytesPerInstance is the allocation ceiling for one instance's whole
// life on a warm endpoint: claim, a log slot's worth of traffic, Close. What
// is left is the conn itself, 96 B measured on amd64, and the ceiling is the
// next size class: the inbox ring and its wake-up channels must come from
// the endpoint's free list and the demux table must change in place (two
// fresh channels alone are about 200 B, a fresh ring 3.5 KiB).
const maxChurnBytesPerInstance = 128

// slotMessages is about what one replica receives during one n=7 Figure-2
// log slot.
const slotMessages = 112

// BenchmarkNetxportInstanceChurn FAILS, not just reports, when opening and
// closing an instance in steady state allocates more than the ceiling. The
// traffic is self-addressed, so it takes route's local path into the inbox
// and no socket buffers blur the count.
func BenchmarkNetxportInstanceChurn(b *testing.B) {
	ep := mesh(b, 1)[0]
	m := msg.Val(0, 1, msg.V1)
	churn := func(rounds int) {
		for i := 0; i < rounds; i++ {
			c, err := ep.Instance(uint32(i + 1))
			if err != nil {
				b.Fatal(err)
			}
			for k := 0; k < slotMessages; k++ {
				if err := c.Send(0, m); err != nil {
					b.Fatal(err)
				}
			}
			for k := 0; k < slotMessages; k++ {
				if _, err := c.Recv(); err != nil {
					b.Fatal(err)
				}
			}
			c.Close()
		}
	}
	churn(16) // warm: the first claim allocates (and grows) the ring that recycles

	const rounds = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	churn(rounds)
	runtime.ReadMemStats(&after)
	perInstance := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	if perInstance > maxChurnBytesPerInstance {
		b.Fatalf("%.0f B allocated per instance, ceiling %d", perInstance, maxChurnBytesPerInstance)
	}

	b.ReportAllocs()
	b.ResetTimer()
	churn(b.N)
	b.StopTimer()
	b.ReportMetric(perInstance, "B/instance")
}
