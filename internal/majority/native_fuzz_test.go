package majority_test

import (
	"math/rand/v2"
	"testing"

	"resilient/internal/core"
	"resilient/internal/machinetest"
	"resilient/internal/majority"
	"resilient/internal/msg"
)

// FuzzMachine is the native fuzz entry point (CI runs it with -fuzztime):
// the fuzzer mutates the configuration and stream seed, the shared
// machinetest harness checks the model invariants.
func FuzzMachine(f *testing.F) {
	f.Add(uint64(1), uint8(7), uint8(2), uint8(0))
	f.Add(uint64(42), uint8(4), uint8(1), uint8(3))
	f.Add(uint64(7), uint8(11), uint8(0), uint8(9))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, kRaw, selfRaw uint8) {
		n := 4 + int(nRaw)%8
		k := int(kRaw) % ((n-1)/3 + 1)
		self := msg.ID(int(selfRaw) % n)
		m, err := majority.New(core.Config{
			N: n, K: k, Self: self, Input: msg.Value(int(seed) % 2),
		}, nil)
		if err != nil {
			t.Fatalf("config n=%d k=%d rejected: %v", n, k, err)
		}
		rng := rand.New(rand.NewPCG(seed, 0x3a11))
		if err := machinetest.Fuzz(m, rng, machinetest.Options{N: n, Steps: 800}); err != nil {
			t.Fatalf("seed %d (n=%d k=%d self=%d): %v", seed, n, k, self, err)
		}
	})
}
