package adversary

import (
	"math/rand/v2"
	"testing"

	"resilient/internal/msg"
	"resilient/internal/policy"
)

func rng() *rand.Rand { return rand.New(rand.NewPCG(1, 2)) }

// delay is p's verdict delay for one message, failing the test on a drop.
func delay(t *testing.T, p Partition, from, to msg.ID, r *rand.Rand) float64 {
	t.Helper()
	v := p.Link(from, to, msg.Message{}, 0, r)
	if v.Drop {
		t.Fatalf("p%d->p%d dropped", from, to)
	}
	return v.Delay
}

func TestHalves(t *testing.T) {
	g := Halves(3)
	for id := msg.ID(0); id < 3; id++ {
		if g(id) != 0 {
			t.Errorf("p%d in group %d, want 0", id, g(id))
		}
	}
	for id := msg.ID(3); id < 6; id++ {
		if g(id) != 1 {
			t.Errorf("p%d in group %d, want 1", id, g(id))
		}
	}
}

func TestOverlap(t *testing.T) {
	g := Overlap(2, 4)
	want := []int{0, 0, 2, 2, 1, 1}
	for id, w := range want {
		if got := g(msg.ID(id)); got != w {
			t.Errorf("p%d in group %d, want %d", id, got, w)
		}
	}
}

// TestPartitionDrawIdentical: the partition draws exactly its base's
// variates, in order, and adds CrossDelay only between groups 0 and 1 --
// on a Halves split every cross-group message, on an Overlap split none to
// or from the coalition.
func TestPartitionDrawIdentical(t *testing.T) {
	for name, groupOf := range map[string]func(msg.ID) int{
		"halves":  Halves(3),
		"overlap": Overlap(2, 4),
	} {
		t.Run(name, func(t *testing.T) {
			p := Partition{GroupOf: groupOf}
			raw, drawn := rng(), rng()
			for i := 0; i < 200; i++ {
				from, to := msg.ID(i%7), msg.ID((i+3)%7)
				want := policy.Default().Link(from, to, msg.Message{}, 0, raw).Delay
				if gf, gt := groupOf(from), groupOf(to); gf != gt && gf != 2 && gt != 2 {
					want += CrossDelay
				}
				if got := delay(t, p, from, to, drawn); got != want {
					t.Fatalf("step %d: p%d->p%d delay %v, want %v", i, from, to, got, want)
				}
			}
			if raw.Uint64() != drawn.Uint64() {
				t.Fatal("partition drew a different number of variates than its base")
			}
		})
	}
}

func TestPartitionDelaysCrossTraffic(t *testing.T) {
	p := Partition{GroupOf: Halves(2)}
	r := rng()
	in := delay(t, p, 0, 1, r)
	cross := delay(t, p, 0, 3, r)
	if in >= CrossDelay {
		t.Errorf("in-group delay %v includes the cross penalty", in)
	}
	if cross < CrossDelay {
		t.Errorf("cross delay %v below CrossDelay", cross)
	}
}

func TestPartitionNilGroupIsTransparent(t *testing.T) {
	if d := delay(t, Partition{}, 0, 5, rng()); d >= CrossDelay {
		t.Errorf("nil GroupOf delayed: %v", d)
	}
}

func TestPartitionCustomBase(t *testing.T) {
	p := Partition{GroupOf: Halves(2), Base: policy.Constant{D: 7}}
	if d := delay(t, p, 0, 1, rng()); d != 7 {
		t.Errorf("base not used: %v", d)
	}
	if d := delay(t, p, 0, 3, rng()); d != 7+CrossDelay {
		t.Errorf("cross with base: %v", d)
	}
	// A base that drops keeps its verdict.
	if v := (Partition{GroupOf: Halves(2), Base: policy.Drop{P: 1}}).Link(0, 3, msg.Message{}, 0, rng()); !v.Drop {
		t.Errorf("dropping base delivered: %+v", v)
	}
}

// TestBridgeCoalitionTalksToBothSides: on an Overlap split the coalition
// (group 2) is adjacent to both sides of the Theorem 3 construction.
func TestBridgeCoalitionTalksToBothSides(t *testing.T) {
	b := Partition{GroupOf: Overlap(2, 4)}
	r := rng()
	// Coalition (group 2) to either side: fast.
	if d := delay(t, b, 2, 0, r); d >= CrossDelay {
		t.Errorf("coalition->S delayed: %v", d)
	}
	if d := delay(t, b, 3, 5, r); d >= CrossDelay {
		t.Errorf("coalition->T delayed: %v", d)
	}
	if d := delay(t, b, 0, 2, r); d >= CrossDelay {
		t.Errorf("S->coalition delayed: %v", d)
	}
	// S-only to T-only: delayed, both directions.
	if d := delay(t, b, 0, 5, r); d < CrossDelay {
		t.Errorf("S->T not delayed: %v", d)
	}
	if d := delay(t, b, 5, 1, r); d < CrossDelay {
		t.Errorf("T->S not delayed: %v", d)
	}
}

// TestBridgeNilGroupIsTransparent: without a grouping the bridged split
// leaves every pair -- coalition and cross-side alike -- at its base's delay.
func TestBridgeNilGroupIsTransparent(t *testing.T) {
	b := Partition{Base: policy.Constant{D: 7}}
	for _, pair := range [][2]msg.ID{{0, 5}, {5, 1}, {2, 0}, {3, 5}} {
		if d := delay(t, b, pair[0], pair[1], rng()); d != 7 {
			t.Errorf("p%d->p%d: nil GroupOf delay %v, want 7", pair[0], pair[1], d)
		}
	}
}
