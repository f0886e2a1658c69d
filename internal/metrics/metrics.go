// Package metrics is a small, dependency-free, concurrency-safe registry of
// counters, gauges, and fixed-bucket histograms: the run-accounting substrate
// for the Section 4 performance quantities (phases to absorption, messages
// per phase, decision latency) and for the engines' operational counters
// (events, bytes, frames, dials).
//
// The design mirrors how trace.Nop makes tracing free: every handle is
// nil-safe, so an engine holds a *Counter (or *Histogram) obtained once at
// run start and calls Add/Observe unconditionally -- on a nil handle those
// are no-ops that neither allocate nor synchronize. Registry counters are
// striped over cache-line-padded cells summed on read (see striped.go), so
// concurrent trial workers bumping the same counter do not serialize on one
// atomic; gauges are single atomics and histograms are mutex-guarded
// (observations are rare relative to counter bumps: one per run or per
// phase, not one per message).
//
// Snapshot() returns a plain struct whose JSON encoding is byte-stable:
// encoding/json sorts map keys, bucket bounds render through strconv with
// the shortest round-trip form, and the overflow bucket is labelled "+Inf".
package metrics

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry owns a flat namespace of metrics. The zero value is not usable;
// call NewRegistry. A nil *Registry is a valid "metrics off" handle: every
// lookup returns a nil instrument and every instrument method on nil is a
// no-op, so the zero-config path costs nothing.
type Registry struct {
	root   *registryRoot
	prefix string
}

// registryRoot holds the shared state behind a registry and all its scopes.
type registryRoot struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{root: &registryRoot{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}}
}

// Scoped returns a view of the registry that prepends prefix to every metric
// name. Scopes share the underlying metrics: r.Scoped("a.").Counter("x") and
// r.Counter("a.x") are the same counter. Scoped on a nil registry returns
// nil, keeping the whole chain free when metrics are off.
func (r *Registry) Scoped(prefix string) *Registry {
	if r == nil {
		return nil
	}
	return &Registry{root: r.root, prefix: r.prefix + prefix}
}

// Counter returns the counter with the given name, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	name = r.prefix + name
	root := r.root
	root.mu.Lock()
	defer root.mu.Unlock()
	c, ok := root.counters[name]
	if !ok {
		c = &Counter{cells: make([]cell, stripeCount)}
		root.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	name = r.prefix + name
	root := r.root
	root.mu.Lock()
	defer root.mu.Unlock()
	g, ok := root.gauges[name]
	if !ok {
		g = &Gauge{}
		root.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it with the
// given bucket upper bounds on first use (an implicit +Inf overflow bucket
// is always appended). Later calls ignore the bounds argument and return the
// existing histogram. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	name = r.prefix + name
	root := r.root
	root.mu.Lock()
	defer root.mu.Unlock()
	h, ok := root.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		root.histograms[name] = h
	}
	return h
}

// Counter is a monotone counter. Registry-created counters are striped:
// Add lands on one of several cache-line-padded cells picked by a cheap
// quasi-goroutine-local hash, and Value sums the cells, so concurrent
// writers on different cores do not contend on one cache line. The zero
// value is a valid single-cell counter. All methods are safe on nil and for
// concurrent use; a Value read concurrent with writers may miss in-flight
// increments but never invents counts, and a quiescent read is exact.
type Counter struct {
	base  atomic.Int64 // zero-value (unstriped) fallback cell
	cells []cell       // stripes; length is a power of two when non-empty
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	if cs := c.cells; len(cs) != 0 {
		cs[stripeIndex()&uint64(len(cs)-1)].n.Add(n)
		return
	}
	c.base.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil), summing all stripes.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	total := c.base.Load()
	for i := range c.cells {
		total += c.cells[i].n.Load()
	}
	return total
}

// Gauge is an atomic float64 cell. All methods are safe on nil.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetMax raises the gauge to v if v is larger: a high-water mark.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if v <= math.Float64frombits(old) || g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram of float64 observations. A value v
// lands in the first bucket with v <= bound; values above every bound land
// in the +Inf overflow bucket. All methods are safe on nil.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // strictly increasing upper bounds, may be empty
	counts []uint64  // len(bounds)+1; last is the overflow bucket
	count  uint64
	sum    float64
	min    float64
	max    float64
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	// Drop duplicates and non-finite bounds; +Inf is implicit.
	out := bs[:0]
	for _, b := range bs {
		if math.IsInf(b, 0) || math.IsNaN(b) {
			continue
		}
		if len(out) > 0 && out[len(out)-1] == b {
			continue
		}
		out = append(out, b)
	}
	return &Histogram{bounds: out, counts: make([]uint64, len(out)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if h.count == 1 || v > h.max {
		h.max = v
	}
}

// quantileLocked estimates the q-quantile (0 <= q <= 1) from the bucket
// counts, with h.mu held: the target rank is located in its bucket
// cumulatively, then interpolated linearly between the bucket's bounds. The
// overflow bucket and the edges are clamped to the observed [min, max], so
// estimates never leave the observed range. Returns 0 before any
// observation.
func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	// rank is the 1-based observation index the quantile falls on (nearest
	// rank with interpolation below).
	rank := q * float64(h.count)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		// The quantile lands in bucket i, spanning (lo, hi].
		lo := h.min
		if i > 0 {
			lo = h.bounds[i-1]
		}
		var hi float64
		if i < len(h.bounds) {
			hi = h.bounds[i]
		} else {
			hi = h.max // overflow bucket: cap at the observed maximum
		}
		if lo < h.min {
			lo = h.min
		}
		if hi > h.max {
			hi = h.max
		}
		if hi < lo {
			hi = lo
		}
		v := lo + (hi-lo)*((rank-prev)/float64(c))
		return v
	}
	return h.max
}

// Bucket is one histogram bucket in a snapshot. LE is the bucket's upper
// bound rendered as the shortest round-trip decimal, "+Inf" for the overflow
// bucket. Counts are per-bucket, not cumulative.
type Bucket struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is the frozen state of one histogram. P50/P95/P99 are
// bucket-interpolated quantile estimates (see Histogram.quantileLocked);
// like every other field they render deterministically, so snapshot JSON
// stays byte-stable for identical contents.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	Mean    float64  `json:"mean"`
	P50     float64  `json:"p50"`
	P95     float64  `json:"p95"`
	P99     float64  `json:"p99"`
	Buckets []Bucket `json:"buckets"`
}

// Snapshot is the frozen state of a whole registry. Its JSON encoding is
// byte-stable for identical contents: object keys come from sorted Go maps.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot freezes the registry's current state. On a nil registry it
// returns an empty (but non-nil-map) snapshot. Scoped views snapshot the
// whole shared registry, names fully prefixed.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	root := r.root
	root.mu.Lock()
	defer root.mu.Unlock()
	for name, c := range root.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range root.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range root.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	hs := HistogramSnapshot{
		Count:   h.count,
		Sum:     h.sum,
		Min:     h.min,
		Max:     h.max,
		Buckets: make([]Bucket, len(h.counts)),
	}
	if h.count > 0 {
		hs.Mean = h.sum / float64(h.count)
		hs.P50 = h.quantileLocked(0.50)
		hs.P95 = h.quantileLocked(0.95)
		hs.P99 = h.quantileLocked(0.99)
	}
	for i, c := range h.counts {
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		hs.Buckets[i] = Bucket{LE: le, Count: c}
	}
	return hs
}

// WriteJSON writes the snapshot as indented, key-sorted JSON followed by a
// newline.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ExpBuckets returns n exponentially spaced bounds start, start*factor, ...
// for histograms of long-tailed quantities (times, byte counts).
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, 0, n)
	b := start
	for i := 0; i < n; i++ {
		out = append(out, b)
		b *= factor
	}
	return out
}

// PhaseBuckets is the standard bucket layout for phase-count histograms;
// the Section 4 analysis puts expected absorption under 7 phases, so the
// layout resolves that region finely and the tail coarsely.
func PhaseBuckets() []float64 {
	return []float64{1, 2, 3, 4, 5, 6, 7, 10, 15, 25, 50, 100, 1000}
}

// TimeBuckets is the standard bucket layout for wall-clock seconds.
func TimeBuckets() []float64 {
	return ExpBuckets(1e-6, 10, 10) // 1µs .. 10ks
}
