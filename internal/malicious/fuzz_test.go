package malicious_test

import (
	"math/rand/v2"
	"testing"

	"resilient/internal/byzantine"
	"resilient/internal/core"
	"resilient/internal/machinetest"
	"resilient/internal/malicious"
	"resilient/internal/msg"
	"resilient/internal/proto"
)

// TestFuzzInvariants floods Figure 2 machines with hostile streams: forged
// initials, equivocating echoes, wildcard spam, malformed values. The
// machine must keep the model invariants regardless.
func TestFuzzInvariants(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xabc1))
		n := 4 + rng.IntN(8)
		k := rng.IntN((n-1)/3 + 1)
		m, err := malicious.New(core.Config{
			N: n, K: k, Self: msg.ID(rng.IntN(n)), Input: msg.Value(rng.IntN(2)),
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := machinetest.Fuzz(m, rng, machinetest.Options{N: n, Steps: 2500}); err != nil {
			t.Fatalf("seed %d (n=%d k=%d): %v", seed, n, k, err)
		}
	}
}

// TestFuzzProtocolDialect restricts the stream to initial/echo messages,
// exercising the acceptance machinery heavily.
func TestFuzzProtocolDialect(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xabc2))
		n := 4 + rng.IntN(8)
		k := rng.IntN((n-1)/3 + 1)
		m, err := malicious.New(core.Config{
			N: n, K: k, Self: 0, Input: msg.Value(rng.IntN(2)),
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		err = machinetest.Fuzz(m, rng, machinetest.Options{
			N: n, Steps: 2500,
			Kinds: []msg.Kind{msg.KindInitial, msg.KindEcho}, MaxPhase: 8,
		})
		if err != nil {
			t.Fatalf("seed %d (n=%d k=%d): %v", seed, n, k, err)
		}
	}
}

// fixedWorld is a world view whose correct-process counts never change.
type fixedWorld struct{ n, k, zeros int }

func (w fixedWorld) CorrectValueCounts() (int, int) { return w.zeros, w.n - w.k - w.zeros }

// FuzzMachine is the native fuzz entry point (CI runs it with -fuzztime):
// a Figure-2 machine under mutated configurations and hostile streams --
// forged initials, equivocating and duplicate echoes, wildcards before any
// decision, malformed values -- plain, or wrapped in the section-4
// balancer, whose every own value message then lies. With reset set, the
// machine is then reset mid-stream through the registry's Reuse path to
// another process and input, and must replay the rest of the stream step
// for step as a new machine does.
func FuzzMachine(f *testing.F) {
	f.Add(uint64(1), uint8(7), uint8(2), uint8(0), false, false)
	f.Add(uint64(42), uint8(10), uint8(3), uint8(9), true, false)
	f.Add(uint64(7), uint8(4), uint8(1), uint8(3), true, true)
	f.Add(uint64(3), uint8(9), uint8(2), uint8(5), false, true)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, kRaw, selfRaw uint8, balancer, reset bool) {
		n := 4 + int(nRaw)%9
		k := int(kRaw) % ((n-1)/3 + 1)
		self := msg.ID(int(selfRaw) % n)
		c := core.Config{N: n, K: k, Self: self, Input: msg.Value(int(seed) % 2)}
		fig2, err := malicious.New(c, nil)
		if err != nil {
			t.Fatalf("config n=%d k=%d rejected: %v", n, k, err)
		}
		world := fixedWorld{n: n, k: k, zeros: int(seed>>32) % (n - k + 1)}
		wrap := func(m core.Machine) core.Machine {
			if balancer {
				return byzantine.NewBalancer(m, world)
			}
			return m
		}
		rng := rand.New(rand.NewPCG(seed, 0xf16e))
		opts := machinetest.Options{N: n, Steps: 800, MaxPhase: 8}
		if seed%2 == 1 {
			opts.Kinds = []msg.Kind{msg.KindInitial, msg.KindEcho}
		}
		if err := machinetest.Fuzz(wrap(fig2), rng, opts); err != nil {
			t.Fatalf("seed %d (n=%d k=%d self=%d balancer=%v): %v", seed, n, k, self, balancer, err)
		}
		if !reset {
			return
		}
		c.Self, c.Input = (self+1)%msg.ID(n), 1-c.Input
		desc, _ := proto.Lookup(proto.Malicious)
		reused, err := desc.Spawn(c, proto.Deps{Reuse: fig2})
		if err != nil || reused != core.Machine(fig2) {
			t.Fatalf("spawn with Reuse returned %p, %v; want the reused machine %p", reused, err, fig2)
		}
		fresh, err := malicious.New(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := machinetest.Diff(wrap(reused), wrap(fresh), machinetest.Script(rng, opts)); err != nil {
			t.Fatalf("seed %d (n=%d k=%d self=%d balancer=%v): reset machine vs new: %v", seed, n, k, c.Self, balancer, err)
		}
	})
}
