package echo_test

import (
	"fmt"
	"runtime"
	"testing"

	"resilient/internal/echo"
	"resilient/internal/msg"
	"resilient/internal/sample"
)

// heapDelta runs fill and returns the live heap it retained, in bytes.
func heapDelta(fill func() any) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := fill()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(kept)
	return after.HeapAlloc - before.HeapAlloc
}

// reportPerNode reports the live heap of a tracker built by newTracker for
// process i and faulted in with one echo, so it holds one phase table.
func reportPerNode(b *testing.B, newTracker func(i int) *echo.Tracker) {
	const batch = 8
	b.ReportAllocs()
	var total uint64
	for range b.N {
		total += heapDelta(func() any {
			trackers := make([]*echo.Tracker, batch)
			for i := range trackers {
				trackers[i] = newTracker(i)
			}
			return trackers
		})
	}
	b.ReportMetric(float64(total)/float64(batch*b.N), "B/node")
}

// BenchmarkTrackerMemory pins a tracker's per-node footprint with one phase
// table: the count table is 8n bytes and the dedup set one bit per
// (subject, counted sender), so a full tracker costs ~n²/8 + 9n bytes --
// ~133 KB at n=1,000, ~12.6 MB at n=10,000 -- and a sampled one, counting
// only its E-member echo sample, ~n·E/8 + 9n bytes. The sampled row also
// reports the run-wide directory (every sample and reverse map) amortized
// over the n processes that share it, as dir-B/node. DESIGN §13 quotes these
// figures.
func BenchmarkTrackerMemory(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			reportPerNode(b, func(int) *echo.Tracker {
				tr := echo.NewTracker(n, n/10)
				tr.Observe(0, 0, 0, msg.V0)
				return tr
			})
		})
	}
	b.Run("sampled/n=1000", func(b *testing.B) {
		const n = 1000
		p, err := sample.NewPlan(n, n/10, sample.DefaultEps)
		if err != nil {
			b.Fatal(err)
		}
		dirBytes := heapDelta(func() any { return sample.NewDirectory(p, 1) })
		dir := sample.NewDirectory(p, 1)
		reportPerNode(b, func(i int) *echo.Tracker {
			tr := sample.NewTracker(dir, msg.ID(i))
			tr.Observe(msg.ID(dir.EchoSample(msg.ID(i))[0]), 0, 0, msg.V0)
			return tr
		})
		b.ReportMetric(float64(dirBytes)/n, "dir-B/node")
	})
}
