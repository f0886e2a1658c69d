package sweep

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRunOrderPreserved(t *testing.T) {
	got, err := Run(100, 8, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d", i, v)
		}
	}
}

func TestRunSerialPath(t *testing.T) {
	got, err := Run(10, 1, func(i int) (int, error) { return i, nil })
	if err != nil || len(got) != 10 {
		t.Fatalf("%v %v", got, err)
	}
}

func TestRunEmpty(t *testing.T) {
	got, err := Run[int](0, 4, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("%v %v", got, err)
	}
}

func TestRunNilJob(t *testing.T) {
	if _, err := Run[int](3, 2, nil); err == nil {
		t.Fatal("nil job accepted")
	}
}

func TestRunErrorFailsFast(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	_, err := Run(1000, 4, func(i int) (int, error) {
		ran.Add(1)
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v", err)
	}
	if ran.Load() >= 1000 {
		t.Error("no early cancellation")
	}
}

func TestRunEveryJobOnce(t *testing.T) {
	f := func(seed uint8) bool {
		n := int(seed%50) + 1
		var count atomic.Int64
		seen := make([]atomic.Bool, n)
		_, err := Run(n, 7, func(i int) (struct{}, error) {
			count.Add(1)
			if seen[i].Swap(true) {
				return struct{}{}, errors.New("duplicate")
			}
			return struct{}{}, nil
		})
		return err == nil && count.Load() == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestChunkedClaimingCoversAllShapes(t *testing.T) {
	// Chunk sizes that divide n, leave remainders, exceed n, and collapse
	// to 1 must all produce every result exactly once, in order.
	for _, n := range []int{1, 2, 7, 31, 64, 100, 1000, 1024} {
		for _, workers := range []int{1, 2, 3, 7, 8, 16, 100} {
			got, err := Run(n, workers, func(i int) (int, error) { return i * 3, nil })
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if len(got) != n {
				t.Fatalf("n=%d workers=%d: %d results", n, workers, len(got))
			}
			for i, v := range got {
				if v != i*3 {
					t.Fatalf("n=%d workers=%d: result[%d] = %d", n, workers, i, v)
				}
			}
		}
	}
}

func TestErrorIncludesJobIndex(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := Run(10, workers, func(i int) (int, error) {
			if i == 6 {
				return 0, boom
			}
			return i, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: error %v", workers, err)
		}
		if !strings.Contains(err.Error(), "sweep job 6") {
			t.Errorf("workers=%d: error %q does not name the job", workers, err)
		}
	}
}

func TestErrorCancelsMidChunk(t *testing.T) {
	// With one worker-sized chunk per worker, an error in the first chunk
	// must stop the erroring worker's remaining indices too.
	var ran atomic.Int64
	_, err := Run(64, 2, func(i int) (int, error) {
		ran.Add(1)
		return 0, errors.New("immediate")
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	// 64/(2*8) = 4 per chunk; both workers stop at a chunk/job boundary, so
	// far fewer than all 64 jobs run.
	if ran.Load() >= 64 {
		t.Errorf("%d jobs ran after an immediate error", ran.Load())
	}
}

func TestWorkersClamped(t *testing.T) {
	// workers > n and workers <= 0 both work.
	if _, err := Run(3, 100, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(3, 0, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
}

// TestFoldInIndexOrder: Fold hands add every result once, in index order,
// across several blocks and for any worker count, and an error names the
// job's own index, not its place in a block.
func TestFoldInIndexOrder(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		for _, workers := range []int{1, 2, 3, 0} {
			var got []int
			if err := Fold(n, workers, func(i int) (int, error) { return i * 3, nil }, func(v int) { got = append(got, v) }); err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if len(got) != n {
				t.Fatalf("n=%d workers=%d: %d results", n, workers, len(got))
			}
			for i, v := range got {
				if v != i*3 {
					t.Fatalf("n=%d workers=%d: result %d = %d", n, workers, i, v)
				}
			}
		}
	}
	boom := errors.New("boom")
	for _, workers := range []int{1, 2} {
		added := 0
		err := Fold(1000, workers, func(i int) (int, error) {
			if i == 700 {
				return 0, boom
			}
			return i, nil
		}, func(int) { added++ })
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), "sweep job 700") {
			t.Errorf("workers=%d: error %v, want job 700's", workers, err)
		}
		if added > 700 {
			t.Errorf("workers=%d: %d results added past the failed job", workers, added)
		}
	}
}
