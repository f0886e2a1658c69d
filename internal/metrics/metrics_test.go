package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a") != c {
		t.Fatal("same name returned a different counter")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	g.SetMax(3)
	g.SetMax(7)
	g.SetMax(6)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge after SetMax 3, 7, 6 = %v, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	hs := r.Snapshot().Histograms["h"]
	if hs.Count != 5 || hs.Min != 0.5 || hs.Max != 100 {
		t.Fatalf("summary = %+v", hs)
	}
	want := []uint64{2, 1, 1, 1} // le=1: {0.5, 1}; le=2: {1.5}; le=4: {3}; +Inf: {100}
	for i, b := range hs.Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket %d (le=%s) count = %d, want %d", i, b.LE, b.Count, want[i])
		}
	}
	if hs.Buckets[len(hs.Buckets)-1].LE != "+Inf" {
		t.Fatalf("overflow bucket labelled %q", hs.Buckets[len(hs.Buckets)-1].LE)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	// 100 observations uniformly spread at 1..100: quantile estimates must
	// interpolate to within one bucket width of the exact order statistics.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	for _, tc := range []struct {
		q, want, tol float64
	}{
		{0.50, 50, 10},
		{0.95, 95, 10},
		{0.99, 99, 10},
		{0, 1, 0},
		{1, 100, 0},
	} {
		got := h.quantileLocked(tc.q)
		if got < tc.want-tc.tol || got > tc.want+tc.tol {
			t.Errorf("quantile(%v) = %v, want %v±%v", tc.q, got, tc.want, tc.tol)
		}
	}
	hs := r.Snapshot().Histograms["lat"]
	if hs.P50 != h.quantileLocked(0.50) || hs.P95 != h.quantileLocked(0.95) || hs.P99 != h.quantileLocked(0.99) {
		t.Fatalf("snapshot percentiles %v/%v/%v disagree with the quantile estimate", hs.P50, hs.P95, hs.P99)
	}
	// Estimates are clamped to the observed range, including in the overflow
	// bucket: a histogram whose observations all land above the last bound
	// still reports finite percentiles.
	over := r.Histogram("over", []float64{1})
	over.Observe(5)
	over.Observe(7)
	if got := r.Snapshot().Histograms["over"].P99; got < 5 || got > 7 {
		t.Fatalf("overflow-bucket quantile = %v, want within [5, 7]", got)
	}
	if empty := r.Histogram("empty", []float64{1}); empty.quantileLocked(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
}

func TestNilRegistryIsFree(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []float64{1})
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	// All no-ops; must not panic.
	c.Inc()
	c.Add(10)
	g.Set(1)
	g.SetMax(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if r.Scoped("pre.") != nil {
		t.Fatal("Scoped(nil) must stay nil")
	}
	s := r.Snapshot()
	if s == nil || len(s.Counters) != 0 {
		t.Fatalf("nil snapshot = %+v", s)
	}
	if n := testing.AllocsPerRun(100, func() { c.Add(1); h.Observe(1) }); n != 0 {
		t.Fatalf("nil instrument ops allocate %v times per run", n)
	}
}

func TestScopedSharesRoot(t *testing.T) {
	r := NewRegistry()
	sub := r.Scoped("engine.")
	sub.Counter("runs").Inc()
	sub.Scoped("inner.").Counter("x").Add(2)
	s := r.Snapshot()
	if s.Counters["engine.runs"] != 1 {
		t.Fatalf("scoped counter missing: %+v", s.Counters)
	}
	if s.Counters["engine.inner.x"] != 2 {
		t.Fatalf("nested scope counter missing: %+v", s.Counters)
	}
	if r.Counter("engine.runs") != sub.Counter("runs") {
		t.Fatal("scope and root must share the counter")
	}
}

// TestContention hammers one registry from parallel writers; run with -race.
func TestContention(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 0xc0))
			scope := r.Scoped(fmt.Sprintf("w%d.", w%4))
			c := r.Counter("shared")
			h := r.Histogram("hist", []float64{1, 10, 100})
			g := r.Gauge("gauge")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				scope.Counter("own").Inc()
				h.Observe(rng.Float64() * 200)
				g.SetMax(float64(i))
				if i%500 == 0 {
					_ = r.Snapshot() // concurrent reads must be safe too
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counters["shared"]; got != workers*perWorker {
		t.Fatalf("shared counter = %d, want %d", got, workers*perWorker)
	}
	var scoped int64
	for i := 0; i < 4; i++ {
		scoped += s.Counters[fmt.Sprintf("w%d.own", i)]
	}
	if scoped != workers*perWorker {
		t.Fatalf("scoped counters sum = %d, want %d", scoped, workers*perWorker)
	}
	if s.Histograms["hist"].Count != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", s.Histograms["hist"].Count, workers*perWorker)
	}
	if g := s.Gauges["gauge"]; g != perWorker-1 {
		t.Fatalf("gauge = %v, want %d", g, perWorker-1)
	}
}

// fillDeterministic populates a registry with a fixed-seed workload.
func fillDeterministic(seed uint64) *Registry {
	r := NewRegistry()
	rng := rand.New(rand.NewPCG(seed, 0xfeed))
	h := r.Histogram("run.phases", PhaseBuckets())
	tb := r.Histogram("run.seconds", TimeBuckets())
	for i := 0; i < 500; i++ {
		r.Counter("messages_sent").Add(int64(rng.IntN(100)))
		r.Counter("decisions").Inc()
		h.Observe(float64(1 + rng.IntN(12)))
		tb.Observe(rng.Float64() / 100)
	}
	r.Gauge("last_seed").Set(float64(seed))
	return r
}

// TestSnapshotJSONByteStable is the golden test: the same seeded workload
// must serialize to byte-identical JSON, independent of map iteration order
// or the order metrics were touched in.
func TestSnapshotJSONByteStable(t *testing.T) {
	var first []byte
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		if err := fillDeterministic(42).Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = append([]byte(nil), buf.Bytes()...)
			continue
		}
		if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("snapshot JSON not byte-stable:\nfirst:\n%s\nrun %d:\n%s", first, i, buf.Bytes())
		}
	}
	// The JSON must be valid and key-sorted at the top level.
	var m map[string]json.RawMessage
	if err := json.Unmarshal(first, &m); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	for _, key := range []string{"counters", "gauges", "histograms"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("snapshot missing %q section:\n%s", key, first)
		}
	}
	if !json.Valid(first) {
		t.Fatal("invalid JSON")
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i, v := range want {
		if exp[i] != v {
			t.Fatalf("ExpBuckets = %v", exp)
		}
	}
	// Histogram construction must survive unsorted, duplicated bounds.
	r := NewRegistry()
	h := r.Histogram("h", []float64{4, 1, 2, 2})
	h.Observe(3)
	hs := r.Snapshot().Histograms["h"]
	if len(hs.Buckets) != 4 { // 1, 2, 4, +Inf
		t.Fatalf("buckets = %+v", hs.Buckets)
	}
	if hs.Buckets[2].Count != 1 {
		t.Fatalf("value 3 should land in le=4: %+v", hs.Buckets)
	}
}
