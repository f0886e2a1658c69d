// Package experiments implements the reproduction harness: one function per
// experiment in the DESIGN.md index (E1-E13), each regenerating a table of
// the paper's quantitative claims -- the Section 4 absorption-time analysis,
// the resilience theorems, the embedded claims of Sections 2.3/3.3/5, and
// the [BenO83] comparison.
//
// Each experiment accepts a Params controlling its scale, so the same code
// serves the full reproduction (cmd/experiments), the benchmark suite
// (bench_test.go), and quick smoke tests.
package experiments

import (
	"fmt"
	"io"
	"math/rand/v2"
	"strings"

	"resilient/internal/mc"
	"resilient/internal/metrics"
	"resilient/internal/stats"
	"resilient/internal/sweep"
)

// Params scales an experiment run.
type Params struct {
	// Trials is the number of independent runs per table row.
	Trials int
	// Seed is the base random seed; row r of trial t uses a seed derived
	// deterministically from it.
	Seed uint64
	// Quick shrinks system sizes for smoke tests and benchmarks.
	Quick bool
	// Metrics, when non-nil, aggregates run accounting across the whole
	// campaign: engine runs record under "<protocol>.runtime.", the
	// Monte-Carlo chains under "mc.". cmd/experiments snapshots it to the
	// -metrics-json file.
	Metrics *metrics.Registry
	// Workers bounds the number of concurrent trial workers per table row
	// (0 = GOMAXPROCS). Every trial is seeded per (row, trial) index and
	// results are merged in trial order, so the tables are byte-identical
	// for every worker count.
	Workers int
	// WallTimes adds a measured wall-clock column to experiments that
	// report one (E13). Wall times vary run to run, so the flag defaults to
	// false, keeping default tables byte-identical across runs and worker
	// counts; cmd/experiments turns it on.
	WallTimes bool
}

// DefaultParams returns the full-scale parameters used to produce
// EXPERIMENTS.md.
func DefaultParams() Params {
	return Params{Trials: 400, Seed: 1}
}

// QuickParams returns reduced parameters for benchmarks and smoke tests.
func QuickParams() Params {
	return Params{Trials: 25, Seed: 1, Quick: true}
}

func (p Params) trials() int {
	if p.Trials <= 0 {
		return 100
	}
	return p.Trials
}

// workers is the sweep worker bound (0 lets sweep.Run use GOMAXPROCS).
func (p Params) workers() int { return p.Workers }

// seedFor derives a per-(row, trial) seed.
func (p Params) seedFor(row, trial int) uint64 {
	x := p.Seed + uint64(row)*1_000_003 + uint64(trial)*7_919
	// splitmix64 finalizer.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Table is one reproduced table or figure.
type Table struct {
	// ID is the experiment identifier (E1..E12, possibly with a suffix).
	ID string
	// Title describes the table.
	Title string
	// Source cites the paper location being reproduced.
	Source string
	// Header holds the column names and Rows the cells.
	Header []string
	Rows   [][]string
	// Notes carries caveats and the paper-vs-measured verdict.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Format renders the table as aligned text.
func (t *Table) Format(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	if t.Source != "" {
		fmt.Fprintf(w, "    (reproduces %s)\n", t.Source)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", pad))
		}
		return strings.TrimRight(b.String(), " ")
	}
	fmt.Fprintf(w, "  %s\n", line(t.Header))
	total := len(t.Header) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	fmt.Fprintf(w, "  %s\n", strings.Repeat("-", total))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "  %s\n", line(row))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title)
	if t.Source != "" {
		fmt.Fprintf(w, "*Reproduces %s.*\n\n", t.Source)
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | "))
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	fmt.Fprintln(w)
	for _, n := range t.Notes {
		fmt.Fprintf(w, "- %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment names a runnable experiment.
type Experiment struct {
	ID   string
	Name string
	Run  func(Params) ([]*Table, error)
}

// All returns every experiment in index order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Name: "fail-stop absorption times (S4.1, eq. 13)", Run: E1},
		{ID: "E2", Name: "malicious absorption times (S4.2)", Run: E2},
		{ID: "E3", Name: "Figure 1 resilience sweep (Thm 2)", Run: E3},
		{ID: "E4", Name: "Figure 2 Byzantine sweep (Thm 4)", Run: E4},
		{ID: "E5", Name: "lower bounds (Thm 1, Thm 3)", Run: E5},
		{ID: "E6", Name: "majority approximation (S2.3/S3.3 notes)", Run: E6},
		{ID: "E7", Name: "k < n/5 fast propagation (S3.3 note)", Run: E7},
		{ID: "E8", Name: "Ben-Or baseline comparison (S6)", Run: E8},
		{ID: "E9", Name: "message complexity Fig 1 vs Fig 2", Run: E9},
		{ID: "E10", Name: "weak bivalence, initially-dead faults (S5)", Run: E10},
		{ID: "E11", Name: "ablations: scheduler sensitivity, decision split", Run: E11},
		{ID: "E12", Name: "authentication ablation: impersonation (S3.1)", Run: E12},
		{ID: "E13", Name: "cross-protocol comparison over the registry (S6)", Run: E13},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// chainRuns runs p.trials() Monte-Carlo chain runs, trial tr drawing from
// PCG(seedFor(row, tr), stream), and folds their phase counts.
func chainRuns(p Params, row int, stream uint64, run func(rng *rand.Rand) (int, error)) (stats.Accumulator, error) {
	phases, err := sweep.Run(p.trials(), p.workers(), func(tr int) (int, error) {
		return run(rand.New(rand.NewPCG(p.seedFor(row, tr), stream)))
	})
	var acc stats.Accumulator
	for _, ph := range phases {
		acc.Add(float64(ph))
	}
	return acc, err
}

// runTrials runs trial(0..trials-1)'s runs across p's workers and returns
// their outcomes in trial order.
func runTrials(p Params, trials int, trial func(tr int) mc.Trial) ([]mc.Outcome, error) {
	return sweep.Run(trials, p.workers(), func(tr int) (mc.Outcome, error) {
		return trial(tr).Run()
	})
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// ci2 and ci3 render a mean and its 95% half-width, "m ± h", to two and
// three decimals.
func ci2(a stats.Accumulator) string { return f2(a.Mean()) + " ± " + f2(a.CI95()) }
func ci3(a stats.Accumulator) string { return f3(a.Mean()) + " ± " + f3(a.CI95()) }

// phaseCell renders a tally's phases with ci. Phases fold the terminated
// trials only, so when some trial stalled the cell says how many it covers.
func phaseCell(tl mc.Tally, ci func(stats.Accumulator) string) string {
	if tl.Terminated == tl.Trials {
		return ci(tl.Phases)
	}
	return fmt.Sprintf("%s over %d/%d", ci(tl.Phases), tl.Terminated, tl.Trials)
}
