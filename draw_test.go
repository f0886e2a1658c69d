package resilient

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"resilient/internal/msg"
	"resilient/internal/policy"
	"resilient/internal/quorum"
)

// forwardLink hides the default policy's type from the simulator, which then
// consults it through Link once per send instead of drawing its
// Uniform[0.1, 1] delay in place.
type forwardLink struct{ p LinkPolicy }

func (f forwardLink) Link(from, to msg.ID, m msg.Message, now float64, rng *rand.Rand) policy.Verdict {
	return f.p.Link(from, to, m, now, rng)
}

// TestUniformDrawMatchesLinkPolicy is the execution-identity claim behind
// the simulator's in-place delay draw: every registered protocol, run under
// policy.Default() and under the same policy behind a forwarding Link, is
// the same execution -- equal Results, clock bit for bit -- fault-free,
// under a crash plan, and, for the malicious-model protocols, against
// balancing adversaries.
func TestUniformDrawMatchesLinkPolicy(t *testing.T) {
	const n = 7
	for _, p := range Protocols() {
		k := p.MaxFaults(n)
		type shape struct {
			name string
			opts SimOptions
		}
		shapes := []shape{{"fault-free", SimOptions{}}}
		if k >= 1 {
			shapes = append(shapes, shape{"crash", SimOptions{Crashes: map[ID]Crash{
				2: {Process: 2, Phase: 1, AfterSends: 3},
			}}})
		}
		if k >= 1 && p.Model() == quorum.Malicious {
			shapes = append(shapes, shape{"balancers", SimOptions{Adversaries: map[ID]Strategy{n - 1: StrategyBalancer}}})
		}
		for _, sh := range shapes {
			for seed := uint64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("%v/%s/seed=%d", p, sh.name, seed), func(t *testing.T) {
					run := func(pol LinkPolicy) *Result {
						t.Helper()
						o := sh.opts
						o.Seed, o.Policy = seed, pol
						res, err := Simulate(p, n, k, []Value{0, 1, 1, 0, 1, 0, 0}, o)
						if err != nil {
							t.Fatal(err)
						}
						res.WallClock = 0
						return res
					}
					inPlace, linked := run(policy.Default()), run(forwardLink{policy.Default()})
					if !reflect.DeepEqual(inPlace, linked) {
						t.Fatalf("drawn in place: %s\nthrough Link:   %s", counts(inPlace), counts(linked))
					}
					if inPlace.MessagesSent == 0 {
						t.Fatal("the run sent nothing")
					}
				})
			}
		}
	}
}
