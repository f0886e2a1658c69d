package policy

import (
	"math"
	"math/rand/v2"
	"testing"

	"resilient/internal/msg"
)

func testRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// TestDelayLawsDrawIdentical pins the variates each delay law draws, in
// order, and the arithmetic on them: the simulator's in-place Uniform draw
// and every golden rely on it.
func TestDelayLawsDrawIdentical(t *testing.T) {
	for name, tc := range map[string]struct {
		pol  LinkPolicy
		want func(r *rand.Rand, to msg.ID) float64
	}{
		"uniform": {Uniform{Min: 0.1, Max: 1}, func(r *rand.Rand, _ msg.ID) float64 { return 0.1 + r.Float64()*0.9 }},
		"exp":     {Exponential{Mean: 0.7}, func(r *rand.Rand, _ msg.ID) float64 { return r.ExpFloat64() * 0.7 }},
		"const":   {Constant{D: 2}, func(*rand.Rand, msg.ID) float64 { return 2 }},
		"skewed": {Skewed{Base: Exponential{Mean: 1}, SlowSet: map[msg.ID]bool{2: true}, SlowFactor: 3},
			func(r *rand.Rand, to msg.ID) float64 {
				d := r.ExpFloat64()
				if to == 2 {
					d *= 3
				}
				return d
			}},
	} {
		t.Run(name, func(t *testing.T) {
			raw, drawn := testRNG(7), testRNG(7)
			m := msg.Message{Kind: msg.KindState, Value: msg.V1}
			for i := 0; i < 200; i++ {
				from, to := msg.ID(i%7), msg.ID((i+3)%7)
				want := tc.want(raw, to)
				got := tc.pol.Link(from, to, m, float64(i)*0.25, drawn)
				if got.Drop || got.Delay != want {
					t.Fatalf("step %d: verdict %+v, want delay %v", i, got, want)
				}
			}
			if raw.Uint64() != drawn.Uint64() {
				t.Fatal("policy drew a different number of variates")
			}
		})
	}
}

func TestUniformWithinBounds(t *testing.T) {
	u := Uniform{Min: 0.5, Max: 2.5}
	r := testRNG(1)
	for i := 0; i < 10000; i++ {
		d := u.Link(0, 1, msg.Message{}, 0, r).Delay
		if d < 0.5 || d > 2.5 {
			t.Fatalf("delay %v outside [0.5, 2.5]", d)
		}
	}
}

func TestUniformDegenerateBounds(t *testing.T) {
	r := testRNG(1)
	// Zero min becomes a tiny positive value; max < min collapses.
	u := Uniform{Min: 0, Max: 0}
	for i := 0; i < 100; i++ {
		if d := u.Link(0, 1, msg.Message{}, 0, r).Delay; d <= 0 {
			t.Fatalf("non-positive delay %v", d)
		}
	}
	u2 := Uniform{Min: 5, Max: 1}
	for i := 0; i < 100; i++ {
		if d := u2.Link(0, 1, msg.Message{}, 0, r).Delay; d != 5 {
			t.Fatalf("collapsed bounds gave %v", d)
		}
	}
}

func TestExponentialPositiveAndMean(t *testing.T) {
	e := Exponential{Mean: 2}
	r := testRNG(1)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		d := e.Link(0, 1, msg.Message{}, 0, r).Delay
		if d <= 0 {
			t.Fatalf("non-positive delay %v", d)
		}
		sum += d
	}
	if mean := sum / n; math.Abs(mean-2) > 0.05 {
		t.Errorf("mean %v, want ~2", mean)
	}
	// Zero mean defaults to 1.
	if d := (Exponential{}).Link(0, 1, msg.Message{}, 0, r).Delay; d <= 0 {
		t.Error("zero-mean exponential non-positive")
	}
}

func TestConstant(t *testing.T) {
	if d := (Constant{D: 3}).Link(0, 1, msg.Message{}, 0, testRNG(1)).Delay; d != 3 {
		t.Errorf("delay %v", d)
	}
	if d := (Constant{}).Link(0, 1, msg.Message{}, 0, testRNG(1)).Delay; d != 1 {
		t.Errorf("zero-value constant gave %v", d)
	}
}

func TestSkewedSlowsTargets(t *testing.T) {
	s := Skewed{
		Base:       Constant{D: 1},
		SlowSet:    map[msg.ID]bool{3: true},
		SlowFactor: 10,
	}
	r := testRNG(1)
	if d := s.Link(0, 3, msg.Message{}, 0, r).Delay; d != 10 {
		t.Errorf("slow target delay %v", d)
	}
	if d := s.Link(0, 2, msg.Message{}, 0, r).Delay; d != 1 {
		t.Errorf("fast target delay %v", d)
	}
	// Factor below 1 clamps to 1; nil base defaults.
	s2 := Skewed{SlowSet: map[msg.ID]bool{1: true}, SlowFactor: 0.5}
	if d := s2.Link(0, 1, msg.Message{}, 0, r).Delay; d < 0.1 || d > 1 {
		t.Errorf("clamped factor over the default gave %v, want within [0.1, 1]", d)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{1, 1},
		{0, minDelay},
		{-5, minDelay},
		{math.NaN(), minDelay},
		{math.Inf(1), maxDelay},
		{1e300, maxDelay},
	}
	for _, c := range cases {
		if got := Clamp(c.in); got != c.want {
			t.Errorf("Clamp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPartitionDropsCrossGroupOnly(t *testing.T) {
	// Two groups: {0, 1} and everyone else.
	pol := Partition{GroupOf: func(id msg.ID) int { return min(int(id)/2, 1) }}
	rng := testRNG(3)
	m := msg.Message{}
	if v := pol.Link(0, 1, m, 0, rng); v.Drop {
		t.Fatalf("in-group message dropped: %+v", v)
	}
	if v := pol.Link(0, 3, m, 0, rng); !v.Drop {
		t.Fatalf("cross-group message delivered: %+v", v)
	}
	if v := pol.Link(3, 1, m, 0, rng); !v.Drop {
		t.Fatalf("cross-group message delivered: %+v", v)
	}
	// Nil GroupOf: everyone is one group.
	open := Partition{}
	if v := open.Link(0, 3, m, 0, rng); v.Drop {
		t.Fatalf("nil GroupOf dropped a message: %+v", v)
	}
}

func TestDropRate(t *testing.T) {
	pol := Drop{P: 0.25}
	rng := testRNG(11)
	const trials = 20000
	dropped := 0
	for i := 0; i < trials; i++ {
		if pol.Link(0, 1, msg.Message{}, 0, rng).Drop {
			dropped++
		}
	}
	rate := float64(dropped) / trials
	if rate < 0.22 || rate > 0.28 {
		t.Fatalf("drop rate %.3f, want ~0.25", rate)
	}
}

func TestDropZeroAndOne(t *testing.T) {
	rng := testRNG(5)
	never := Drop{P: 0}
	always := Drop{P: 1}
	for i := 0; i < 100; i++ {
		if never.Link(0, 1, msg.Message{}, 0, rng).Drop {
			t.Fatal("Drop{P:0} dropped a message")
		}
		if !always.Link(0, 1, msg.Message{}, 0, rng).Drop {
			t.Fatal("Drop{P:1} delivered a message")
		}
	}
}
