// Package stats provides the summary statistics used by the experiment
// harness: online mean/variance accumulation (Welford), normal-approximation
// confidence intervals and quantiles.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator collects samples and produces summary statistics. The zero
// value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one sample.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Mean returns the sample mean (0 with no samples).
func (a *Accumulator) Mean() float64 { return a.mean }

// Max returns the largest sample (0 with no samples).
func (a *Accumulator) Max() float64 { return a.max }

// Variance returns the unbiased sample variance (0 with fewer than two
// samples).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 {
	return math.Sqrt(a.Variance())
}

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n == 0 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// CI95 returns the half-width of a 95% normal-approximation confidence
// interval for the mean.
func (a *Accumulator) CI95() float64 {
	return 1.96 * a.StdErr()
}

// Summary is an immutable snapshot of an Accumulator.
type Summary struct {
	N    int
	Mean float64
	CI95 float64
	Min  float64
	Max  float64
}

// Summarize snapshots the accumulator.
func (a *Accumulator) Summarize() Summary {
	return Summary{
		N:    a.n,
		Mean: a.mean,
		CI95: a.CI95(),
		Min:  a.min,
		Max:  a.max,
	}
}

// String renders the summary as "mean ± ci95 (min..max, n)".
func (s Summary) String() string {
	return fmt.Sprintf("%.3f ± %.3f (min %.0f, max %.0f, n=%d)",
		s.Mean, s.CI95, s.Min, s.Max, s.N)
}

// Quantile returns the q-th quantile (0 <= q <= 1) of the samples using
// linear interpolation. The input slice is not modified.
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
