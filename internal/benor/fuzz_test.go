package benor_test

import (
	"math/rand/v2"
	"testing"

	"resilient/internal/benor"
	"resilient/internal/coin"
	"resilient/internal/core"
	"resilient/internal/machinetest"
	"resilient/internal/msg"
)

// TestFuzzInvariants floods Ben-Or machines with hostile streams.
func TestFuzzInvariants(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xbe40))
		n := 4 + rng.IntN(8)
		k := rng.IntN((n-1)/2 + 1)
		m, err := benor.NewWithCoin(core.Config{
			N: n, K: k, Self: msg.ID(rng.IntN(n)), Input: msg.Value(rng.IntN(2)),
		}, benor.Crash, coin.NewLocal(rand.New(rand.NewPCG(seed, 7))), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := machinetest.Fuzz(m, rng, machinetest.Options{N: n, Steps: 2500}); err != nil {
			t.Fatalf("seed %d (n=%d k=%d): %v", seed, n, k, err)
		}
	}
}

// TestFuzzDialect restricts to report/proposal messages.
func TestFuzzDialect(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xbe41))
		n := 4 + rng.IntN(8)
		k := rng.IntN((n-1)/2 + 1)
		m, err := benor.NewWithCoin(core.Config{
			N: n, K: k, Self: 0, Input: msg.Value(rng.IntN(2)),
		}, benor.Crash, coin.NewLocal(rand.New(rand.NewPCG(seed, 8))), nil)
		if err != nil {
			t.Fatal(err)
		}
		err = machinetest.Fuzz(m, rng, machinetest.Options{
			N: n, Steps: 2500,
			Kinds: []msg.Kind{msg.KindBenOrReport, msg.KindBenOrProposal}, MaxPhase: 10,
		})
		if err != nil {
			t.Fatalf("seed %d (n=%d k=%d): %v", seed, n, k, err)
		}
	}
}
