// Package det is a fixture deterministic package: the determinism rule
// family (walltime, globalrand, maprange, goroutine) runs against it. Each
// function below is either a positive (expected finding, recorded in
// golden.txt) or a negative (an idiom the rules must keep legal).
package det

import (
	"math/rand/v2"
	"sort"
	"time"
)

// Clock reads the wall clock: walltime finding.
func Clock() int64 {
	return time.Now().UnixNano()
}

// Elapsed measures wall time: walltime finding.
func Elapsed(t0 time.Time) time.Duration {
	return time.Since(t0)
}

// Stamp reads the wall clock behind an annotated exception: no finding.
func Stamp() int64 {
	//lint:allow walltime fixture demo of an annotated wall-clock read
	return time.Now().UnixNano()
}

// GlobalDraw draws from the process-global RNG: globalrand finding.
func GlobalDraw() int {
	return rand.IntN(6)
}

// SeededDraw draws from an explicit parameter-seeded source: no finding.
func SeededDraw(seed uint64) int {
	rng := rand.New(rand.NewPCG(seed, 1))
	return rng.IntN(6)
}

// LastWins keeps whichever value the randomized iteration visits last:
// maprange finding.
func LastWins(m map[int]int) int {
	last := 0
	for _, v := range m {
		last = v
	}
	return last
}

// Fold accumulates in iteration order: maprange finding.
func Fold(m map[int]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v
	}
	return total
}

// CollectValues appends values in iteration order: maprange finding.
func CollectValues(m map[int]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// FirstOver returns whichever qualifying key the randomized iteration meets
// first: maprange finding.
func FirstOver(m map[int]int, min int) int {
	for k, v := range m {
		if v > min {
			return k
		}
	}
	return -1
}

// AnyOver returns a constant from the loop, so every order answers the same:
// no finding.
func AnyOver(m map[int]int, min int) bool {
	for _, v := range m {
		if v > min {
			return true
		}
	}
	return false
}

// SortedKeys is the blessed idiom — collect only the keys, sort, then
// index: no finding.
func SortedKeys(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]int, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// PruneBelow deletes while ranging, which Go defines and order cannot
// affect: no finding.
func PruneBelow(m map[int]int, min int) {
	for k := range m {
		if k < min {
			delete(m, k)
		}
	}
}

// CopyInto performs keyed copies, which commute: no finding.
func CopyInto(dst, src map[int]int) {
	for k, v := range src {
		dst[k] = v
	}
}

// Detach spawns a goroutine outside a blessed package: goroutine finding.
func Detach(fn func()) {
	go fn()
}

// Below, the directive is missing its reason: malformed-allow finding.
//
//lint:allow maprange

// Quiet does nothing wrong, so the directive above it suppresses nothing:
// unused-allow finding.
//
//lint:allow globalrand this exception is stale on purpose
func Quiet() {}
