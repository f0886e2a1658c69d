// Package sweep runs independent jobs concurrently with bounded
// parallelism, preserving result order and failing fast on the first error.
// The experiment harness and the mc ensemble layer use it to spread seeded
// trials -- which are deterministic per (row, trial) index and therefore
// order-independent -- across cores.
//
// Workers claim indices in contiguous chunks of ~n/(workers*8) from a single
// atomic cursor, so for short jobs the scheduling cost is one atomic add per
// chunk rather than one mutex acquisition per index, while the 8x
// oversubscription keeps the tail balanced when job durations vary.
package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Run executes job(0..n-1) using at most workers goroutines (0 = GOMAXPROCS)
// and returns the results in index order. The first error cancels the
// remaining jobs (already-started jobs finish) and is returned. Result
// content is independent of the worker count: results[i] always holds the
// value job(i) returned.
func Run[T any](n, workers int, job func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	results := make([]T, n)
	if err := run(0, results, workers, 8, job); err != nil {
		return nil, err
	}
	return results, nil
}

// foldBlock is how many results per worker Fold holds at a time.
const foldBlock = 64

// Fold executes job(0..n-1) as Run does and hands each result to add, in
// index order, on the calling goroutine. It runs the jobs a block of
// foldBlock per worker at a time and holds only that block's results, so a
// fold over many jobs keeps no per-job result. Workers claim one index at a
// time, so a block's tail leaves a worker idle for at most one job.
func Fold[T any](n, workers int, job func(i int) (T, error), add func(T)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	block := make([]T, min(max(n, 0), foldBlock*workers))
	for lo := 0; lo < n; lo += len(block) {
		results := block[:min(len(block), n-lo)]
		if err := run(lo, results, workers, foldBlock, job); err != nil {
			return err
		}
		for _, r := range results {
			add(r)
		}
	}
	return nil
}

// run executes job(lo..lo+len(results)-1) into results, job(i) into
// results[i-lo], with Run's error rules; workers claim the indices in
// contiguous chunks, about chunks of them per worker.
func run[T any](lo int, results []T, workers, chunks int, job func(i int) (T, error)) error {
	if job == nil {
		return fmt.Errorf("sweep: nil job")
	}
	n := len(results)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := range results {
			r, err := job(lo + i)
			if err != nil {
				return fmt.Errorf("sweep job %d: %w", lo+i, err)
			}
			results[i] = r
		}
		return nil
	}

	chunk := n / (workers * chunks)
	if chunk < 1 {
		chunk = 1
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64 // cursor into 0..n-1, claimed chunk-at-a-time
		stop     atomic.Bool
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stop.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				start := int(next.Add(int64(chunk))) - chunk
				if start >= n {
					return
				}
				end := start + chunk
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					if stop.Load() {
						return
					}
					r, err := job(lo + i)
					if err != nil {
						fail(fmt.Errorf("sweep job %d: %w", lo+i, err))
						return
					}
					results[i] = r
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
