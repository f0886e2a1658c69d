package resilient

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"testing"
)

// goldenCase pins one (protocol, options, seed) execution of the
// discrete-event engine. The goldens were captured from the engine before
// the zero-allocation rewrite (typed event queue, in-place broadcast
// shuffle, dense tallies); any change to them means a (Config, Seed) pair
// no longer reproduces the same execution, which is a regression in the
// engine's core determinism contract.
type goldenCase struct {
	name     string
	protocol Protocol
	n, k     int
	opts     SimOptions
	seed     uint64

	decisions string // "id:v id:v ..." sorted by id
	sent      int
	events    int
	simTime   string // exact float64, hex mantissa form
}

func goldenCases() []goldenCase {
	cases := []goldenCase{
		{name: "failstop", protocol: ProtocolFailStop, n: 7, k: 3},
		{name: "malicious", protocol: ProtocolMalicious, n: 7, k: 2},
		{name: "majority", protocol: ProtocolMajority, n: 7, k: 2},
		{name: "benor-crash", protocol: ProtocolBenOrCrash, n: 7, k: 3},
		{name: "benor-byz", protocol: ProtocolBenOrByzantine, n: 7, k: 1},
		{name: "bivalence", protocol: ProtocolBivalence, n: 7, k: 2},
		{name: "broadcast", protocol: ProtocolBroadcast, n: 7, k: 2},
		// The shared coin derives flips from (run seed, phase) only, so the
		// pin also locks the common-coin derivation.
		{name: "benor-shared", protocol: ProtocolBenOrShared, n: 7, k: 3},
		// Mid-broadcast deaths make the delivery outcome depend on the
		// broadcast recipient permutation, pinning the shuffle rewrite.
		{name: "failstop-crashes", protocol: ProtocolFailStop, n: 9, k: 4, opts: SimOptions{
			Crashes: map[ID]Crash{
				1: {Process: 1, Phase: 0, AfterSends: 3},
				4: {Process: 4, Phase: 1, AfterSends: 5},
			},
		}},
		// Balancers query the omniscient world view on every send, pinning
		// the CorrectValueCounts memoization.
		{name: "malicious-balancers", protocol: ProtocolMalicious, n: 10, k: 3, opts: SimOptions{
			Adversaries: map[ID]Strategy{8: StrategyBalancer, 9: StrategyBalancer},
		}},
	}
	// One pin per output shape of a Byzantine rewrite: 1→n fan-out
	// (equivocator), 1→2 (double echo), 1→1 with an RNG draw (flipper) and
	// without (liar), 1→0 (mute).
	for _, s := range []struct {
		name  string
		strat Strategy
	}{
		{"malicious-equivocators", StrategyEquivocator},
		{"malicious-double-echoes", StrategyDoubleEcho},
		{"malicious-flippers", StrategyFlipper},
		{"malicious-liars1", StrategyLiar1},
		{"malicious-mutes", StrategyMute},
	} {
		cases = append(cases, goldenCase{name: s.name, protocol: ProtocolMalicious, n: 10, k: 3, opts: SimOptions{
			Adversaries: map[ID]Strategy{8: s.strat, 9: s.strat},
		}})
	}
	var out []goldenCase
	for _, c := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			cc := c
			cc.seed = seed
			cc.name = fmt.Sprintf("%s/seed=%d", c.name, seed)
			out = append(out, cc)
		}
	}
	return out
}

// goldenResults holds the expected (decisions, sent, events, simTime) tuple
// per case name, captured by running with RESILIENT_GOLDEN_GEN=1 against the
// pre-rewrite engine. Regenerate only when an execution change is
// *intentional*, and say so in the commit message.
var goldenResults = map[string][4]string{
	"failstop/seed=1":                {"0:0 1:0 2:0 3:0 4:0 5:0 6:0", "294", "209", "0x1.31e522016ff1cp+01"},
	"failstop/seed=2":                {"0:0 1:0 2:0 3:0 4:0 5:0 6:0", "294", "199", "0x1.2d97259153f9p+01"},
	"failstop/seed=3":                {"0:0 1:0 2:0 3:0 4:0 5:0 6:0", "245", "160", "0x1.07299eb87c559p+01"},
	"malicious/seed=1":               {"0:0 1:0 2:0 3:0 4:0 5:0 6:0", "1575", "1104", "0x1.ea8080fe121d3p+01"},
	"malicious/seed=2":               {"0:0 1:0 2:0 3:0 4:0 5:0 6:0", "1575", "1113", "0x1.f88dacc511518p+01"},
	"malicious/seed=3":               {"0:0 1:0 2:0 3:0 4:0 5:0 6:0", "1960", "1505", "0x1.633cdc7bfd3ap+02"},
	"majority/seed=1":                {"0:1 1:1 2:1 3:1 4:1 5:1 6:1", "196", "141", "0x1.f0b78c4481b36p+00"},
	"majority/seed=2":                {"0:0 1:0 2:0 3:0 4:0 5:0 6:0", "189", "140", "0x1.f32ef2bb6b64ap+00"},
	"majority/seed=3":                {"0:0 1:0 2:0 3:0 4:0 5:0 6:0", "196", "146", "0x1.264b380775368p+01"},
	"benor-crash/seed=1":             {"0:0 1:0 2:0 3:0 4:0 5:0 6:0", "343", "279", "0x1.a0e3761b6a81ep+01"},
	"benor-crash/seed=2":             {"0:0 1:0 2:0 3:0 4:0 5:0 6:0", "441", "382", "0x1.27753ed4bde9cp+02"},
	"benor-crash/seed=3":             {"0:0 1:0 2:0 3:0 4:0 5:0 6:0", "931", "876", "0x1.4af8fa5b97ca4p+03"},
	"benor-byz/seed=1":               {"0:0 1:0 2:0 3:0 4:0 5:0 6:0", "343", "300", "0x1.33a65f59ddbdcp+02"},
	"benor-byz/seed=2":               {"0:0 1:0 2:0 3:0 4:0 5:0 6:0", "441", "398", "0x1.abc584234aa35p+02"},
	"benor-byz/seed=3":               {"0:0 1:0 2:0 3:0 4:0 5:0 6:0", "441", "394", "0x1.a22cb84d4361bp+02"},
	"bivalence/seed=1":               {"0:1 1:1 2:1 3:1 4:1 5:1 6:1", "343", "343", "0x1.87842f77f6019p+02"},
	"bivalence/seed=2":               {"0:1 1:1 2:1 3:1 4:1 5:1 6:1", "343", "343", "0x1.871ceb67767c1p+02"},
	"bivalence/seed=3":               {"0:1 1:1 2:1 3:1 4:1 5:1 6:1", "343", "342", "0x1.86f3ac9039fd3p+02"},
	"broadcast/seed=1":               {"0:0 1:0 2:0 3:0 4:0 5:0 6:0", "56", "49", "0x1.6d9abaa34ddfp+00"},
	"broadcast/seed=2":               {"0:0 1:0 2:0 3:0 4:0 5:0 6:0", "56", "46", "0x1.5c58b06e61526p+00"},
	"broadcast/seed=3":               {"0:0 1:0 2:0 3:0 4:0 5:0 6:0", "56", "48", "0x1.5475e8b00b0dbp+00"},
	"benor-shared/seed=1":            {"0:1 1:1 2:1 3:1 4:1 5:1 6:1", "245", "199", "0x1.31e522016ff1cp+01"},
	"benor-shared/seed=2":            {"0:0 1:0 2:0 3:0 4:0 5:0 6:0", "245", "193", "0x1.2d97259153f9p+01"},
	"benor-shared/seed=3":            {"0:1 1:1 2:1 3:1 4:1 5:1 6:1", "245", "186", "0x1.3e29c6f77c032p+01"},
	"failstop-crashes/seed=1":        {"0:0 2:0 3:0 5:0 6:0 7:0 8:0", "395", "257", "0x1.4cf6cec977f58p+01"},
	"failstop-crashes/seed=2":        {"0:0 2:0 3:0 5:0 6:0 7:0 8:0", "395", "269", "0x1.420f91e5f0e4ap+01"},
	"failstop-crashes/seed=3":        {"0:0 2:0 3:0 5:0 6:0 7:0 8:0", "395", "276", "0x1.5dd671292d12cp+01"},
	"malicious-balancers/seed=1":     {"0:0 1:0 2:0 3:0 4:0 5:0 6:0 7:0", "4010", "3228", "0x1.f7452f3f82584p+01"},
	"malicious-balancers/seed=2":     {"0:0 1:0 2:0 3:0 4:0 5:0 6:0 7:0", "4790", "4155", "0x1.2e60e5cfb57c1p+02"},
	"malicious-balancers/seed=3":     {"0:1 1:1 2:1 3:1 4:1 5:1 6:1 7:1", "7190", "6227", "0x1.f9fae4f84a95ep+02"},
	"malicious-equivocators/seed=1":  {"0:0 1:0 2:0 3:0 4:0 5:0 6:0 7:0", "4400", "3191", "0x1.07dcde2434f12p+02"},
	"malicious-equivocators/seed=2":  {"0:0 1:0 2:0 3:0 4:0 5:0 6:0 7:0", "4410", "3133", "0x1.09a2ed473f4d5p+02"},
	"malicious-equivocators/seed=3":  {"0:1 1:1 2:1 3:1 4:1 5:1 6:1 7:1", "5500", "4290", "0x1.6b510f97671bbp+02"},
	"malicious-double-echoes/seed=1": {"0:1 1:1 2:1 3:1 4:1 5:1 6:1 7:1", "5770", "4847", "0x1.56053c3b69ce7p+02"},
	"malicious-double-echoes/seed=2": {"0:1 1:1 2:1 3:1 4:1 5:1 6:1 7:1", "5020", "3753", "0x1.0dae461d4daa4p+02"},
	"malicious-double-echoes/seed=3": {"0:0 1:0 2:0 3:0 4:0 5:0 6:0 7:0", "7600", "6273", "0x1.c421fce469956p+02"},
	"malicious-flippers/seed=1":      {"0:0 1:0 2:0 3:0 4:0 5:0 6:0 7:0", "4290", "3062", "0x1.ec58e13fc70e5p+01"},
	"malicious-flippers/seed=2":      {"0:0 1:0 2:0 3:0 4:0 5:0 6:0 7:0", "4400", "3093", "0x1.eb82830e0837ep+01"},
	"malicious-flippers/seed=3":      {"0:1 1:1 2:1 3:1 4:1 5:1 6:1 7:1", "7730", "7138", "0x1.12d1083253ccbp+03"},
	"malicious-liars1/seed=1":        {"0:1 1:1 2:1 3:1 4:1 5:1 6:1 7:1", "4290", "3062", "0x1.ec58e13fc70e5p+01"},
	"malicious-liars1/seed=2":        {"0:1 1:1 2:1 3:1 4:1 5:1 6:1 7:1", "3950", "3040", "0x1.c87f68ca6a196p+01"},
	"malicious-liars1/seed=3":        {"0:1 1:1 2:1 3:1 4:1 5:1 6:1 7:1", "3300", "1959", "0x1.5ef90d5c54841p+01"},
	"malicious-mutes/seed=1":         {"0:1 1:1 2:1 3:1 4:1 5:1 6:1 7:1", "4520", "3611", "0x1.7053afd2e3018p+02"},
	"malicious-mutes/seed=2":         {"0:0 1:0 2:0 3:0 4:0 5:0 6:0 7:0", "3080", "1978", "0x1.45491be6fbb57p+01"},
	"malicious-mutes/seed=3":         {"0:1 1:1 2:1 3:1 4:1 5:1 6:1 7:1", "3830", "2911", "0x1.16e8ef1dfc71fp+02"},
}

func runGoldenCase(t testing.TB, c goldenCase) (decisions string, sent, events int, simTime string) {
	inputs := make([]Value, c.n)
	for i := range inputs {
		inputs[i] = Value(i % 2)
	}
	opts := c.opts
	opts.Seed = c.seed
	res, err := Simulate(c.protocol, c.n, c.k, inputs, opts)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	ids := make([]int, 0, len(res.Decisions))
	for id := range res.Decisions {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for i, id := range ids {
		if i > 0 {
			decisions += " "
		}
		decisions += fmt.Sprintf("%d:%d", id, res.Decisions[ID(id)])
	}
	return decisions, res.MessagesSent, res.Events,
		strconv.FormatFloat(res.SimTime, 'x', -1, 64)
}

// TestGoldenCoversRegistry fails when a registered protocol has no golden
// case, so adding a protocol to the zoo forces pinning its determinism.
func TestGoldenCoversRegistry(t *testing.T) {
	pinned := map[Protocol]bool{}
	for _, c := range goldenCases() {
		pinned[c.protocol] = true
	}
	for _, p := range Protocols() {
		if !pinned[p] {
			t.Errorf("registered protocol %v has no golden case; add one to goldenCases()", p)
		}
	}
}

// TestGoldenSeedDeterminism locks the engine to the exact executions the
// pre-rewrite engine produced: same (Config, Seed), same Decisions,
// MessagesSent, Events, and bit-exact SimTime.
func TestGoldenSeedDeterminism(t *testing.T) {
	if os.Getenv("RESILIENT_GOLDEN_GEN") != "" {
		for _, c := range goldenCases() {
			d, s, e, st := runGoldenCase(t, c)
			fmt.Printf("\t%q: {%q, %q, %q, %q},\n", c.name, d,
				strconv.Itoa(s), strconv.Itoa(e), st)
		}
		t.Skip("golden generation mode: table printed, nothing asserted")
	}
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			want, ok := goldenResults[c.name]
			if !ok {
				t.Fatalf("no golden recorded for %s", c.name)
			}
			d, s, e, st := runGoldenCase(t, c)
			if d != want[0] {
				t.Errorf("decisions = %q, golden %q", d, want[0])
			}
			if got := strconv.Itoa(s); got != want[1] {
				t.Errorf("MessagesSent = %s, golden %s", got, want[1])
			}
			if got := strconv.Itoa(e); got != want[2] {
				t.Errorf("Events = %s, golden %s", got, want[2])
			}
			if st != want[3] {
				t.Errorf("SimTime = %s, golden %s", st, want[3])
			}
		})
	}
}
