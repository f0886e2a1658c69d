package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	s := a.Summarize()
	if s.N != 8 {
		t.Errorf("N = %d", s.N)
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Errorf("mean %v", a.Mean())
	}
	// Population sd is 2; sample variance = 32/7.
	if math.Abs(a.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("variance %v", a.Variance())
	}
	if s.Min != 2 || a.Max() != 9 {
		t.Errorf("min %v max %v", s.Min, a.Max())
	}
}

func TestAccumulatorZeroAndOneSample(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.StdErr() != 0 {
		t.Error("zero-value accumulator not zero")
	}
	a.Add(3)
	if a.Mean() != 3 || a.Variance() != 0 {
		t.Error("single sample wrong")
	}
}

func TestAccumulatorMatchesNaiveComputation(t *testing.T) {
	f := func(xs []float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				continue
			}
			clean = append(clean, x)
		}
		if len(clean) < 2 {
			return true
		}
		var a Accumulator
		sum := 0.0
		for _, x := range clean {
			a.Add(x)
			sum += x
		}
		mean := sum / float64(len(clean))
		var ss float64
		for _, x := range clean {
			ss += (x - mean) * (x - mean)
		}
		v := ss / float64(len(clean)-1)
		scale := math.Max(1, math.Abs(mean))
		return math.Abs(a.Mean()-mean) < 1e-8*scale &&
			math.Abs(a.Variance()-v) < 1e-6*math.Max(1, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummaryString(t *testing.T) {
	var a Accumulator
	a.Add(1)
	a.Add(2)
	if s := a.Summarize().String(); s == "" {
		t.Error("empty summary")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 9 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); q != 5 {
		t.Errorf("median = %v", q)
	}
	if q := Quantile(xs, 0.25); q != 3 {
		t.Errorf("q25 = %v", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	// Out-of-range q clamps.
	if Quantile(xs, -1) != 1 || Quantile(xs, 2) != 9 {
		t.Error("clamping wrong")
	}
	// Input not modified.
	if xs[0] != 9 {
		t.Error("input mutated")
	}
}
