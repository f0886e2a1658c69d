package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"resilient"
	"resilient/internal/msg"
)

// The suite re-executes its own binary per child; under "go test" that is the
// test binary, which then has to behave as the command.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_TEST_AS_COMMAND") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	var bm benchmarkFile
	if err := readJSON(filepath.Join("..", "..", "BENCHMARK.json"), &bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json and the code must name the same workloads and metrics.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bm := readBenchmark(t)
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, w.Name, workloads[i].name)
		}
	}
	if len(bm.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(bm.EndToEnd), len(endToEnd))
	}
	for i, m := range bm.EndToEnd {
		if m.Name != endToEnd[i] || m.Unit != units[m.Name] {
			t.Errorf("end-to-end %d: %s [%s] in BENCHMARK.json, %s [%s] in code", i, m.Name, m.Unit, endToEnd[i], units[endToEnd[i]])
		}
		if !nameRE.MatchString(m.Name) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bad name or bound %v", m.Name, m.Bound)
		}
	}
	if len(bm.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(bm.PerLayer), len(layerMetrics))
	}
	for i, m := range bm.PerLayer {
		want := layerMetrics[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer %d: %v in BENCHMARK.json, %v in code", i, m, want)
		}
		if !nameRE.MatchString(m.Name) {
			t.Errorf("per-layer %s: bad name", m.Name)
		}
	}
}

// The whole suite at -scale 0.02 -reps 1, untraced then traced, through the
// real parent/child path: every metric BENCHMARK.json names is there once,
// finite and (end to end) positive, and the spans nest.
func TestSuiteSmoke(t *testing.T) {
	t.Setenv("BENCH_TEST_AS_COMMAND", "1")
	bm := readBenchmark(t)
	c := config{seed: 7, scale: 0.02, reps: 1, out: t.TempDir()}
	if err := runSuite(c); err != nil {
		t.Fatal(err)
	}
	var res results
	if err := readJSON(filepath.Join(c.out, "results.json"), &res); err != nil {
		t.Fatal(err)
	}
	for _, w := range bm.Workloads {
		wr := res.Workloads[w.Name]
		if wr == nil {
			t.Fatalf("%s missing from results.json", w.Name)
		}
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d failed", w.Name, wr.Failed, wr.Attempted)
		}
		if len(wr.Metrics) != len(bm.EndToEnd) {
			t.Errorf("%s: %d metrics, want %d", w.Name, len(wr.Metrics), len(bm.EndToEnd))
		}
		for _, m := range bm.EndToEnd {
			s, ok := wr.Metrics[m.Name]
			if !ok || s.N != 1 || s.Unit != m.Unit || !(s.Median > 0) || math.IsInf(s.Median, 0) {
				t.Errorf("%s %s: %+v", w.Name, m.Name, s)
			}
		}
	}

	c.traced = true
	if err := runSuite(c); err != nil {
		t.Fatal(err)
	}
	var lay layers
	if err := readJSON(filepath.Join(c.out, "layers.json"), &lay); err != nil {
		t.Fatal(err)
	}
	check := func(where string, m layerMetric, v metricValue, ok bool) {
		t.Helper()
		switch {
		case !ok:
			t.Errorf("%s %s: missing", where, m.name)
		case v.Value == nil:
			// Two tiny reps can end before the profiler's first 10 ms tick.
			if m.source != "C" || !strings.Contains(v.Error, "no samples") {
				t.Errorf("%s %s: null (%s)", where, m.name, v.Error)
			}
		case math.IsNaN(*v.Value) || math.IsInf(*v.Value, 0) || v.Unit != m.unit:
			t.Errorf("%s %s: %v", where, m.name, v)
		}
	}
	for _, m := range layerMetrics {
		if m.source == "P" {
			v, ok := lay.Probes[m.name]
			check("probes", m, v, ok)
			if ok && v.Value != nil && !(*v.Value > 0) {
				t.Errorf("probe %s: %v is not positive", m.name, *v.Value)
			}
			continue
		}
		for _, w := range bm.Workloads {
			v, ok := lay.Workloads[w.Name][m.name]
			check(w.Name, m, v, ok)
		}
	}
	for _, w := range bm.Workloads {
		var sum float64
		for _, l := range cpuLayers {
			if v := lay.Workloads[w.Name][l+".cpu_share"]; v.Value != nil {
				sum += *v.Value
			}
		}
		if sum != 0 && math.Abs(sum-1) > 0.01 {
			t.Errorf("%s: cpu shares sum to %v", w.Name, sum)
		}
		for _, m := range bm.EndToEnd {
			if r, ok := lay.TraceOverhead[w.Name][m.Name]; !ok || !(r > 0) || math.IsInf(r, 0) {
				t.Errorf("%s trace_overhead.%s: %v", w.Name, m.Name, r)
			}
		}
	}

	var spans []span
	if err := readJSON(filepath.Join(c.out, "trace.json"), &spans); err != nil {
		t.Fatal(err)
	}
	byID := map[int]span{}
	roots := map[string]int{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
		if s.Parent == 0 {
			if s.Name == "rep" {
				roots[s.Workload]++
			} else if s.Name != "probes" {
				t.Errorf("root span %+v is neither a rep nor the probes", s)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Workload != s.Workload || p.Rep != s.Rep || s.Start < p.Start || s.End > p.End {
			t.Errorf("span %+v does not nest in its parent %+v", s, p)
		}
	}
	for _, w := range bm.Workloads {
		if roots[w.Name] != 2 {
			t.Errorf("%s: %d rep root spans, want 2", w.Name, roots[w.Name])
		}
	}
}

func logRep(committed [][]byte) *resilient.LogReport {
	slots := (len(committed) + logBatch - 1) / logBatch
	rep := &resilient.LogReport{Ops: len(committed), Committed: committed, Slots: slots, Batches: slots}
	for i := 0; i < slots; i++ {
		rep.SlotDecisions = append(rep.SlotDecisions, resilient.V1)
	}
	return rep
}

func TestLogCheckerRejectsBadCommits(t *testing.T) {
	w := workload{name: "t", ops: 64}
	ops := genOps(3, w.ops)
	clone := func() [][]byte { return append([][]byte(nil), ops...) }

	if failed, err := checkLog(w, ops, logRep(clone())); err != nil || failed != 0 {
		t.Fatalf("faithful commit sequence: err %v, %d failed", err, failed)
	}
	reordered := clone()
	reordered[10], reordered[11] = reordered[11], reordered[10]
	duplicated := append(clone()[:21], ops[20:]...)
	dropped := append(clone()[:30], ops[31:]...)
	corrupted := clone()
	corrupted[5] = append([]byte(nil), ops[5]...)
	corrupted[5][12] ^= 1
	for name, committed := range map[string][][]byte{
		"reordered": reordered, "duplicated": duplicated, "dropped": dropped, "corrupted": corrupted,
	} {
		failed, err := checkLog(w, ops, logRep(committed))
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if failed == 0 {
			t.Errorf("%s commit sequence: no op counted as failed", name)
		}
	}
	// The open-loop driver's ops are known only by their sequence numbers.
	if failed, err := checkLog(w, nil, logRep(reordered)); err != nil || failed != 2 {
		t.Errorf("reordered, by sequence number only: %d failed (%v), want 2", failed, err)
	}

	// A no-op slot on a fault-free run, or before the crash, is an error.
	noop := logRep(clone())
	noop.SlotDecisions[1] = resilient.V0
	noop.NoopSlots, noop.Batches = 1, noop.Slots-1
	if _, err := checkLog(w, ops, noop); err == nil {
		t.Error("no-op slot on a fault-free workload accepted")
	}
	crashed := w
	crashed.crashSlot = 20
	if _, err := checkLog(crashed, ops, noop); err == nil {
		t.Error("no-op slot before the crash slot accepted")
	}
}

// burn spends CPU in the msg layer (AppendEncode inlines, so the leaf frame
// is an inlined one) for the profile reader to find.
func burn(d time.Duration) int {
	buf := make([]byte, 0, 64)
	m := msg.Echo(1, 2, 3, msg.V1)
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			m.Phase = msg.Phase(i)
			buf = msg.AppendEncode(buf[:0], m)
			n += len(buf)
		}
	}
	return n
}

func TestProfileReader(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	sink += burn(400 * time.Millisecond)
	pprof.StopCPUProfile()

	pkgs, err := leafPackages(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range pkgs {
		total += n
	}
	if total < 10 {
		t.Fatalf("only %d samples in %v", total, pkgs)
	}
	if pkgs["resilient/internal/msg"] == 0 {
		t.Errorf("no sample attributed to resilient/internal/msg: %v", pkgs)
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range cpuLayers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("shares sum to %v: %v", sum, shares)
	}
	if shares["msg"] == 0 {
		t.Errorf("msg layer has no share: %v", shares)
	}
	if _, err := leafPackages([]byte("not a profile")); err == nil {
		t.Error("garbage accepted as a profile")
	}
}

func TestPackageAndLayerOf(t *testing.T) {
	for _, c := range []struct{ fn, pkg, layer string }{
		{"resilient/internal/netxport.(*Endpoint).flushBatch", "resilient/internal/netxport", "netxport"},
		{"resilient/internal/runtime.(*engine).step", "resilient/internal/runtime", "runtime"},
		{"resilient/internal/quorum.ExceedsHalfNPlusK", "resilient/internal/quorum", "other"},
		{"resilient.(*logRun).runLive.func1", "resilient", "log"},
		{"runtime.mallocgc", "runtime", "go"},
		{"internal/runtime/maps.(*Map).getWithKey", "internal/runtime/maps", "go"},
		{"internal/runtime/syscall.Syscall6", "internal/runtime/syscall", "syscall"},
		{"syscall.Syscall", "syscall", "syscall"},
		{"slices.pdqsortOrdered[go.shape.int32]", "slices", "other"},
		{"main.main", "main", "other"},
		{"", "", "other"},
	} {
		if got := packageOf(c.fn); got != c.pkg {
			t.Errorf("packageOf(%q) = %q, want %q", c.fn, got, c.pkg)
		}
		if got := layerOf(c.pkg); got != c.layer {
			t.Errorf("layerOf(%q) = %q, want %q", c.pkg, got, c.layer)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	stats := func(vals ...float64) metricStats { return newStats("ms", vals) }
	base := stats(100, 101, 99, 100, 102)
	for _, c := range []struct {
		name   string
		b      metricStats
		higher bool
		want   string
	}{
		{"unchanged", stats(101, 100, 99, 102, 100), false, "ok"},
		{"slower beyond the bound", stats(120, 121, 119, 120, 122), false, "regressed"},
		{"lower throughput beyond the bound", stats(80, 81, 79, 80, 82), true, "regressed"},
		{"higher throughput", stats(120, 121, 119, 120, 122), true, "ok"},
		{"too noisy to tell", stats(80, 140, 100, 60, 120), false, "unresolved"},
		{"noisy but every run better", stats(50, 90, 70, 60, 80), false, "ok"},
		{"noisy and every run worse", stats(150, 190, 170, 160, 180), false, "regressed"},
	} {
		if got := verdict(base, c.b, c.higher, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsCountMismatch(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, msgs int64) string {
		r := results{Seed: 1, Scale: 1, Workloads: map[string]*workloadResult{}}
		for _, w := range workloads {
			wr := &workloadResult{Attempted: 1, Counts: map[string]int64{"sim_messages": msgs}, Metrics: map[string]metricStats{}}
			for _, m := range endToEnd {
				wr.Metrics[m] = newStats(units[m], []float64{10, 10.1, 9.9})
			}
			r.Workloads[w.name] = wr
		}
		if err := writeJSON(dir, name, r); err != nil {
			t.Fatal(err)
		}
		return filepath.Join(dir, name)
	}
	a, same, other := mk("a.json", 5), mk("same.json", 5), mk("other.json", 6)
	c := config{benchmark: filepath.Join("..", "..", "BENCHMARK.json")}
	var out bytes.Buffer
	if err := runCompare(c, []string{a, same}, &out); err != nil {
		t.Errorf("identical runs: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "regressed") || strings.Contains(out.String(), "unresolved") {
		t.Errorf("identical runs:\n%s", out.String())
	}
	if err := runCompare(c, []string{a, other}, &out); err == nil {
		t.Error("a count mismatch did not fail the comparison")
	}
}

// Every probe runs and checks its own outputs; none may fail on a healthy tree.
func TestProbes(t *testing.T) {
	for _, p := range probes {
		vals, err := runProbe(context.Background(), p, 0.02)
		if err != nil {
			t.Errorf("%v: %v", p.names, err)
			continue
		}
		for i, v := range vals {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s = %v", p.names[i], v)
			}
		}
	}
}
