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

// FuzzMachine is the native fuzz entry point (CI runs it with -fuzztime):
// both Ben-Or modes under mutated configurations and hostile streams.
func FuzzMachine(f *testing.F) {
	f.Add(uint64(1), uint8(7), uint8(3), uint8(0), false)
	f.Add(uint64(11), uint8(11), uint8(2), uint8(5), true)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, kRaw, selfRaw uint8, byz bool) {
		n := 4 + int(nRaw)%9
		mode := benor.Crash
		maxK := (n - 1) / 2
		if byz {
			mode = benor.Byzantine
			maxK = (n - 1) / 5
		}
		k := int(kRaw) % (maxK + 1)
		self := msg.ID(int(selfRaw) % n)
		m, err := benor.NewWithCoin(core.Config{
			N: n, K: k, Self: self, Input: msg.Value(int(seed) % 2),
		}, mode, coin.NewLocal(rand.New(rand.NewPCG(seed, 7))), nil)
		if err != nil {
			t.Skipf("config n=%d k=%d rejected: %v", n, k, err)
		}
		rng := rand.New(rand.NewPCG(seed, 0xbe4f))
		if err := machinetest.Fuzz(m, rng, machinetest.Options{N: n, Steps: 800}); err != nil {
			t.Fatalf("seed %d (n=%d k=%d byz=%v): %v", seed, n, k, byz, err)
		}
	})
}
