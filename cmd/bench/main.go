// Command bench is the repository's benchmark: five workloads over the
// replicated log on loopback TCP and the simulator, end-to-end metrics from
// an untraced run and per-layer metrics from a separate traced run. See
// README.md in this directory.
//
// One workload, as the benchmark driver runs it (BENCHMARK.json):
//
//	bench --workload log_tcp_sat --seed 1 --seconds 20 --trace 0
//
// The whole suite, children interleaved round-robin, results in DIR:
//
//	bench -seed 1 -out DIR            # end-to-end, writes DIR/results.json
//	bench -seed 1 -out DIR -traced    # per-layer, writes DIR/layers.json, DIR/trace.json
//	bench -compare A/results.json B/results.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// childTimeout is each child's hard limit.
const childTimeout = 170 * time.Second

type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	scale     float64
	detail    bool
	out       string
	reps      int
	probes    bool
	traced    bool
	compare   bool
	benchmark string
}

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "", "run this one workload and print its result as one JSON line (empty: run the suite)")
	flag.Uint64Var(&c.seed, "seed", 1, "every input is generated from this seed")
	flag.Float64Var(&c.seconds, "seconds", 0, "with -workload: after -reps reps, keep starting reps until this much time has passed")
	flag.IntVar(&c.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 runs traced and prints the per-layer metrics")
	flag.Float64Var(&c.scale, "scale", 1, "shrink every rep and probe by this factor (tests)")
	flag.BoolVar(&c.detail, "detail", false, "with -workload: also print a '#detail' line with per-rep values (the suite reads it)")
	flag.StringVar(&c.out, "out", "cmd/bench/out", "suite: directory for results.json, layers.json, trace.json")
	flag.IntVar(&c.reps, "reps", 0, "reps per workload: the suite runs them as interleaved one-rep children (default 5; traced suite: always 2), a -workload child in-process (default 3)")
	flag.BoolVar(&c.probes, "probes", true, "with -workload -trace 1: also run the isolated probes")
	flag.BoolVar(&c.traced, "traced", false, "suite: run traced and write the per-layer numbers")
	flag.BoolVar(&c.compare, "compare", false, "compare two results.json files given as arguments")
	flag.StringVar(&c.benchmark, "benchmark", "BENCHMARK.json", "-compare: where the bounds are read from")
	flag.Parse()
	if c.reps == 0 {
		c.reps = 3
		if c.workload == "" {
			c.reps = 5
		}
	}

	var err error
	switch {
	case c.compare:
		err = runCompare(c, flag.Args(), os.Stdout)
	case c.workload != "":
		err = runChild(c)
	default:
		err = runSuite(c)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// metricValue is one reported metric. A probe that failed reports a null
// value and its error instead of aborting the traced run.
type metricValue struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
	Error string   `json:"error,omitempty"`
}

func value(v float64, unit string) metricValue { return metricValue{Value: &v, Unit: unit} }

func (m metricValue) String() string {
	if m.Value == nil {
		return fmt.Sprintf("null %s (%s)", m.Unit, m.Error)
	}
	return fmt.Sprintf("%v %s", *m.Value, m.Unit)
}

// outcome is the last line a child prints.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is what a child adds for the suite: every rep's values, the counts
// that must repeat exactly, and (traced) spans and traced end-to-end values.
type detail struct {
	Reps   []map[string]float64 `json:"reps"`
	Counts map[string]int64     `json:"counts"`
	Spans  []span               `json:"spans,omitempty"`
}

// runChild runs one workload in this process and prints its outcome.
func runChild(c config) error {
	w, ok := findWorkload(c.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", c.workload)
	}
	if c.scale <= 0 || c.scale > 1 {
		return fmt.Errorf("-scale %v outside (0, 1]", c.scale)
	}
	w = w.scaled(c.scale)
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	budget := time.Duration(c.seconds * float64(time.Second))

	var out outcome
	var det detail
	names := endToEnd
	if c.trace == 0 {
		reps, err := runReps(ctx, w, c.seed, c.reps, budget, nil)
		if err != nil {
			return err
		}
		out, det = summarize(reps)
	} else {
		var err error
		if out, det, err = runTraced(ctx, w, c, budget); err != nil {
			return err
		}
		names = perLayer
	}
	for _, name := range names {
		if m, ok := out.Metrics[name]; ok {
			fmt.Printf("%s %s %s\n", w.name, name, m)
		}
	}
	if c.detail {
		line, err := json.Marshal(det)
		if err != nil {
			return err
		}
		fmt.Printf("#detail %s\n", line)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !out.Correct {
		return fmt.Errorf("%s: %d of %d failed", w.name, out.Failed, out.Attempted)
	}
	return nil
}

// A rep during which the hypervisor withheld more than maxSteal of the
// machine's CPU time measures the host, not the program (on the box this was
// sized on such reps ran 1.3 to 2.5 times slower; the others lose under 1 %).
// It is dropped and the loop goes on, for at most stealGrace beyond the
// budget; if every rep was stolen they are all reported rather than none.
const (
	maxSteal   = 0.02
	stealGrace = 40 * time.Second
)

// runReps runs reps of w until minReps of them are done and budget has
// passed, checking each rep's outputs. observe, when non-nil, supplies the
// traced run's observer for each rep.
func runReps(ctx context.Context, w workload, seed uint64, minReps int, budget time.Duration, observe func(rep int) observer) ([]*repResult, error) {
	var ref *simReference
	if w.sim {
		var err error
		if ref, err = verifySim(w, makeInputs(w, seed)); err != nil {
			return nil, err
		}
	}
	var reps, stolen []*repResult
	for start := time.Now(); ; {
		elapsed := time.Since(start)
		if (len(reps) >= minReps && elapsed >= budget) || (len(stolen) > 0 && elapsed >= budget+stealGrace) {
			break
		}
		var obs observer
		if observe != nil {
			obs = observe(len(reps) + len(stolen))
		}
		r, err := runRep(ctx, w, seed, ref, obs)
		if err != nil {
			return nil, fmt.Errorf("rep %d: %w", len(reps)+len(stolen), err)
		}
		if r.steal > maxSteal {
			stolen = append(stolen, r)
		} else {
			reps = append(reps, r)
		}
	}
	if len(stolen) > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d reps lost more than %.0f %% of CPU time to the hypervisor\n",
			w.name, len(stolen), len(reps)+len(stolen), maxSteal*100)
	}
	if len(reps) == 0 {
		return stolen, nil
	}
	return reps, nil
}

// summarize folds reps into an outcome: every metric is the median over reps.
func summarize(reps []*repResult) (outcome, detail) {
	out := outcome{Metrics: map[string]metricValue{}}
	det := detail{Counts: reps[0].counts}
	for _, r := range reps {
		out.Attempted += r.attempted
		out.Failed += r.failed
		det.Reps = append(det.Reps, r.metrics)
	}
	out.Correct = out.Failed == 0
	for name, v := range repMedians(det.Reps) {
		out.Metrics[name] = value(v, units[name])
	}
	return out, det
}

// repMedians is every end-to-end metric's median over reps.
func repMedians(reps []map[string]float64) map[string]float64 {
	m := make(map[string]float64, len(endToEnd))
	for _, name := range endToEnd {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = r[name]
		}
		m[name] = median(vals)
	}
	return m
}
