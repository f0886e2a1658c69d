package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// suiteChildTimeout is the hard limit on one suite child (one or two reps).
const suiteChildTimeout = 60 * time.Second

// metricStats is one (workload, metric) cell of results.json: the median over
// reps is the reported value; quartiles and the values themselves sit beside it.
type metricStats struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func newStats(unit string, vals []float64) metricStats {
	q1, q3 := quartiles(vals)
	return metricStats{Unit: unit, Median: median(vals), Q1: q1, Q3: q3, N: len(vals), Values: vals}
}

type workloadResult struct {
	Attempted int                    `json:"ops_attempted"`
	Failed    int                    `json:"ops_failed"`
	Counts    map[string]int64       `json:"counts"`
	Metrics   map[string]metricStats `json:"metrics"`
}

// results is results.json.
type results struct {
	Schema     string                     `json:"schema"`
	GitRev     string                     `json:"git_rev"`
	GoVersion  string                     `json:"go_version"`
	NProc      int                        `json:"nproc"`
	GoMaxProcs int                        `json:"gomaxprocs"`
	Seed       uint64                     `json:"seed"`
	Reps       int                        `json:"reps"`
	Scale      float64                    `json:"scale"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

func newResults(c config) *results {
	rev := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	return &results{
		Schema:     "resilient/bench/v2",
		GitRev:     rev,
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       c.seed,
		Reps:       c.reps,
		Scale:      c.scale,
		Workloads:  map[string]*workloadResult{},
	}
}

// child re-executes this binary for one workload and parses what it prints.
func child(exe string, c config, w workload, trace, reps int, probes bool) (outcome, detail, error) {
	ctx, cancel := context.WithTimeout(context.Background(), suiteChildTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-workload", w.name, "-seed", fmt.Sprint(c.seed), "-scale", fmt.Sprint(c.scale),
		"-trace", fmt.Sprint(trace), "-reps", fmt.Sprint(reps), "-probes="+fmt.Sprint(probes), "-detail")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return outcome{}, detail{}, fmt.Errorf("%s: child: %w", w.name, err)
	}
	var out outcome
	var det detail
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		return out, det, fmt.Errorf("%s: child's last line: %w", w.name, err)
	}
	for _, l := range lines {
		if rest, ok := bytes.CutPrefix(l, []byte("#detail ")); ok {
			if err := json.Unmarshal(rest, &det); err != nil {
				return out, det, fmt.Errorf("%s: child's detail line: %w", w.name, err)
			}
		}
	}
	return out, det, nil
}

func writeJSON(dir, name string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func sameCounts(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// runSuite runs every workload c.reps times, one child per (workload, rep),
// interleaved round-robin so that a noisy period on a shared machine hits
// every workload alike.
func runSuite(c config) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return err
	}
	if c.traced {
		return runTracedSuite(c, exe)
	}
	res := newResults(c)
	values := map[string]map[string][]float64{}
	for rep := 0; rep < c.reps; rep++ {
		for _, w := range workloads {
			out, det, err := child(exe, c, w, 0, 1, false)
			if err != nil {
				return err
			}
			wr := res.Workloads[w.name]
			if wr == nil {
				wr = &workloadResult{Counts: det.Counts}
				res.Workloads[w.name] = wr
				values[w.name] = map[string][]float64{}
			}
			if !sameCounts(wr.Counts, det.Counts) {
				return fmt.Errorf("%s rep %d: counts %v differ from rep 0's %v", w.name, rep, det.Counts, wr.Counts)
			}
			wr.Attempted += out.Attempted
			wr.Failed += out.Failed
			for _, r := range det.Reps {
				for name, v := range r {
					values[w.name][name] = append(values[w.name][name], v)
				}
			}
		}
	}
	for _, w := range workloads {
		wr := res.Workloads[w.name]
		wr.Metrics = map[string]metricStats{}
		for _, name := range endToEnd {
			s := newStats(units[name], values[w.name][name])
			wr.Metrics[name] = s
			fmt.Printf("%s %s %v %s\n", w.name, name, s.Median, s.Unit)
		}
		fmt.Printf("%s ops_attempted %d count\n%s ops_failed %d count\n", w.name, wr.Attempted, w.name, wr.Failed)
	}
	return writeJSON(c.out, "results.json", res)
}

// layers is layers.json.
type layers struct {
	Schema    string `json:"schema"`
	GitRev    string `json:"git_rev"`
	GoVersion string `json:"go_version"`
	Seed      uint64 `json:"seed"`
	// Workloads holds each workload's registry/report (R) and CPU-profile
	// (C) metrics; Probes the isolated probes (P), which do not depend on
	// the workload and are run once.
	Workloads map[string]map[string]metricValue `json:"workloads"`
	Probes    map[string]metricValue            `json:"probes"`
	// TraceOverhead is, per workload and end-to-end metric, the traced
	// reps' median over the median of an untraced child of the same size
	// run just before it.
	TraceOverhead map[string]map[string]float64 `json:"trace_overhead"`
}

// runTracedSuite runs, per workload, an untraced child and a traced child of
// two reps each, and writes the per-layer numbers, the tracing overhead and
// every span.
func runTracedSuite(c config, exe string) error {
	const reps = 2
	base := newResults(c)
	lay := layers{
		Schema: "resilient/bench-layers/v2", GitRev: base.GitRev, GoVersion: base.GoVersion, Seed: c.seed,
		Workloads:     map[string]map[string]metricValue{},
		Probes:        map[string]metricValue{},
		TraceOverhead: map[string]map[string]float64{},
	}
	var spans []span
	for i, w := range workloads {
		_, plain, err := child(exe, c, w, 0, reps, false)
		if err != nil {
			return err
		}
		out, traced, err := child(exe, c, w, 1, reps, i == 0)
		if err != nil {
			return err
		}
		lay.Workloads[w.name] = map[string]metricValue{}
		for _, m := range layerMetrics {
			v, ok := out.Metrics[m.name]
			if !ok {
				continue // a probe metric from a child that skipped the probes
			}
			if m.source == "P" {
				lay.Probes[m.name] = v
				fmt.Printf("probes %s %s\n", m.name, v)
			} else {
				lay.Workloads[w.name][m.name] = v
				fmt.Printf("%s %s %s\n", w.name, m.name, v)
			}
		}
		lay.TraceOverhead[w.name] = map[string]float64{}
		untraced, withTrace := repMedians(plain.Reps), repMedians(traced.Reps)
		for _, name := range endToEnd {
			ratio := withTrace[name] / untraced[name]
			lay.TraceOverhead[w.name][name] = ratio
			fmt.Printf("%s trace_overhead.%s %.4f ratio (traced %v / untraced %v %s)\n",
				w.name, name, ratio, withTrace[name], untraced[name], units[name])
		}
		offset := len(spans) // span ids are per child: renumber into one space
		for _, s := range traced.Spans {
			s.ID += offset
			if s.Parent != 0 {
				s.Parent += offset
			}
			spans = append(spans, s)
		}
	}
	if err := writeJSON(c.out, "trace.json", spans); err != nil {
		return err
	}
	return writeJSON(c.out, "layers.json", lay)
}
