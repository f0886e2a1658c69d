package mc

import (
	"reflect"
	"strings"
	"testing"

	"resilient/internal/markov"
	"resilient/internal/metrics"
)

// TestEnsembleDeterministicAcrossWorkers is the core ensemble guarantee:
// merged results are bit-identical for workers = 1, 4 and 16, and across
// repeated runs at the same worker count.
func TestEnsembleDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	opts := EnsembleOptions{Trials: 64, Workers: 1, Start: 45, Seed: 9}
	fs := newChain(90, 30, markov.FailStop)
	base, err := fs.AbsorptionEnsemble(opts)
	if err != nil {
		t.Fatal(err)
	}
	if base.Trials != 64 || len(base.Phases) != 64 {
		t.Fatalf("base ensemble %+v", base)
	}
	for _, w := range []int{1, 4, 16} {
		o := opts
		o.Workers = w
		for rep := 0; rep < 2; rep++ {
			got, err := fs.AbsorptionEnsemble(o)
			if err != nil {
				t.Fatalf("workers=%d rep=%d: %v", w, rep, err)
			}
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("workers=%d rep=%d diverged:\ngot  %+v\nwant %+v", w, rep, got, base)
			}
		}
	}
}

func TestMaliciousEnsemblesDeterministic(t *testing.T) {
	t.Parallel()
	for _, model := range []markov.Model{markov.Mixed, markov.Forced} {
		mal := newChain(100, 5, model)
		opts := EnsembleOptions{Trials: 32, Workers: 1, Start: mal.Balanced(), Seed: 3}
		base, err := mal.AbsorptionEnsemble(opts)
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		opts.Workers = 8
		got, err := mal.AbsorptionEnsemble(opts)
		if err != nil {
			t.Fatalf("%v workers=8: %v", model, err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("%v diverged across workers", model)
		}
	}
}

// TestEnsembleMatchesSequentialRuns pins the seed derivation contract:
// trial t of an ensemble walks exactly the chain that a sequential
// AbsorptionRun with rand.NewPCG(seed, t) walks.
func TestEnsembleMatchesSequentialRuns(t *testing.T) {
	t.Parallel()
	fs := newChain(60, 20, markov.FailStop)
	opts := EnsembleOptions{Trials: 20, Workers: 8, Start: 30, Seed: 42}
	e, err := fs.AbsorptionEnsemble(opts)
	if err != nil {
		t.Fatal(err)
	}
	for tr := 0; tr < opts.Trials; tr++ {
		want, err := fs.AbsorptionRun(opts.Start, opts.trialRNG(tr))
		if err != nil {
			t.Fatal(err)
		}
		if e.Phases[tr] != want {
			t.Fatalf("trial %d: ensemble %d phases, sequential %d", tr, e.Phases[tr], want)
		}
	}
}

// TestEnsembleFailsFastOnError covers the mid-ensemble error path: from a
// start state outside 0..Pop every trial errors, and the ensemble must
// surface the first error rather than hang or return partial results.
func TestEnsembleFailsFastOnError(t *testing.T) {
	t.Parallel()
	fs := newChain(90, 30, markov.FailStop)
	for _, w := range []int{1, 8} {
		e, err := fs.AbsorptionEnsemble(EnsembleOptions{
			Trials: 64, Workers: w, Start: fs.Pop() + 1, Seed: 1,
		})
		if err == nil {
			t.Fatalf("workers=%d: error swallowed, got %+v", w, e)
		}
		if !strings.Contains(err.Error(), "start state 91 outside 0..90") {
			t.Fatalf("workers=%d: unexpected error %v", w, err)
		}
		if e != nil {
			t.Fatalf("workers=%d: partial ensemble returned alongside error", w)
		}
	}
}

func TestEnsembleRejectsBadOptions(t *testing.T) {
	fs := newChain(90, 30, markov.FailStop)
	if _, err := fs.AbsorptionEnsemble(EnsembleOptions{Trials: 0}); err == nil {
		t.Error("Trials=0 accepted")
	}
	bad := newChain(0, 0, markov.FailStop)
	if _, err := bad.AbsorptionEnsemble(EnsembleOptions{Trials: 4}); err == nil {
		t.Error("invalid chain accepted")
	}
	mal := newChain(10, 5, markov.Mixed)
	if _, err := mal.AbsorptionEnsemble(EnsembleOptions{Trials: 4}); err == nil {
		t.Error("invalid malicious chain accepted")
	}
}

// TestEnsembleMetricsAggregation checks that striped-counter accounting is
// exact after a concurrent ensemble: absorption_runs must equal Trials and
// the phase histogram must carry one observation per trial.
func TestEnsembleMetricsAggregation(t *testing.T) {
	t.Parallel()
	reg := metrics.NewRegistry()
	fs := &Chain{Chain: markov.Chain{N: 60, K: 20, Model: markov.FailStop}, Metrics: reg}
	const trials = 40
	e, err := fs.AbsorptionEnsemble(EnsembleOptions{Trials: trials, Workers: 8, Start: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["mc.failstop.absorption_runs"]; got != trials {
		t.Errorf("absorption_runs = %d, want %d", got, trials)
	}
	sumPhases := 0
	for _, p := range e.Phases {
		sumPhases += p
	}
	if got := snap.Counters["mc.failstop.steps"]; got != int64(sumPhases) {
		t.Errorf("steps = %d, want %d", got, sumPhases)
	}
	h := snap.Histograms["mc.failstop.absorption_phases"]
	if h.Count != trials {
		t.Errorf("histogram count = %d, want %d", h.Count, trials)
	}
}
