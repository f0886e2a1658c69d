package mc

import (
	"reflect"
	"strings"
	"testing"

	"resilient/internal/coin"
	"resilient/internal/faults"
	"resilient/internal/metrics"
	"resilient/internal/msg"
	"resilient/internal/proto"
	"resilient/internal/runtime"
	"resilient/internal/spawn"
)

func TestProtocolEnsembleAcrossRegistry(t *testing.T) {
	for _, d := range proto.All() {
		if d.ID == proto.Broadcast || d.ID == proto.Bivalence {
			// Broadcast is not a consensus; bivalence decides input
			// parity. Both are out of scope for the comparison runner.
			continue
		}
		d := d
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			n := 7
			k := d.ID.MaxFaults(n)
			e, err := ProtocolEnsemble(spawn.Scenario{Protocol: d.ID, N: n, K: k},
				EnsembleOptions{Trials: 20, Start: n, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if e.Trials != 20 {
				t.Fatalf("trials %d", e.Trials)
			}
			// Unanimous 1-inputs force decision 1 in every trial
			// (validity), for deterministic and randomized protocols
			// alike.
			if e.Decided1 != 20 {
				t.Errorf("unanimous ones decided 1 in %d/20 trials", e.Decided1)
			}
		})
	}
}

// decidedAll fails t unless every trial of e terminated and kept agreement.
func decidedAll(t *testing.T, e *Ensemble, trials int) {
	t.Helper()
	if o := e.Outcomes; e.Trials != trials || o.Terminated != trials || o.Agreed != trials {
		t.Fatalf("%d trials, %d terminated, %d agreed: want all %d to decide and agree", e.Trials, o.Terminated, o.Agreed, trials)
	}
}

func TestProtocolEnsembleWorkerIndependent(t *testing.T) {
	run := func(workers int) *Ensemble {
		e, err := ProtocolEnsemble(spawn.Scenario{Protocol: proto.BenOrCrash, N: 7, K: 3},
			EnsembleOptions{Trials: 24, Workers: workers, Start: 3, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		decidedAll(t, e, 24)
		return e
	}
	one, four := run(1), run(4)
	if !reflect.DeepEqual(one.Phases, four.Phases) {
		t.Errorf("phase sequences differ across worker counts:\n1: %v\n4: %v", one.Phases, four.Phases)
	}
	if one.Decided1 != four.Decided1 {
		t.Errorf("decisions differ across worker counts: %d vs %d", one.Decided1, four.Decided1)
	}
}

func TestProtocolEnsembleSharedCoinOverride(t *testing.T) {
	// BenOrCrash accepts a shared-coin override; the run must still decide
	// every trial.
	e, err := ProtocolEnsemble(spawn.Scenario{Protocol: proto.BenOrCrash, N: 7, K: 3, Coin: coin.SchemeShared},
		EnsembleOptions{Trials: 10, Start: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	decidedAll(t, e, 10)
}

// TestSharedCoinPhasesFlat is the quantitative point of the shared-coin
// seam: with local coins the expected number of Ben-Or phases grows
// rapidly with n (each coin round unifies only when n independent flips
// happen to align), while the common coin keeps it O(1) -- every correct
// process flips the same value, so each coin round ends the run with
// constant probability. Split inputs are the adversarial case: no phase-1
// majority exists, so the run lives or dies by its coins. The probed means
// at seed 13 are ~5.8 (n=7), ~28 (n=15) and ~157 (n=21) for local coins
// against ~2 flat for the shared coin; the bounds below leave a wide
// margin over trial noise.
func TestSharedCoinPhasesFlat(t *testing.T) {
	mean := func(id proto.ID, n int) float64 {
		e, err := ProtocolEnsemble(spawn.Scenario{Protocol: id, N: n, K: id.MaxFaults(n)},
			EnsembleOptions{Trials: 40, Start: n / 2, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		decidedAll(t, e, 40)
		if e.Max > 6 && id == proto.BenOrShared {
			t.Errorf("benor-shared n=%d hit %0.f phases; the common coin should finish in a handful", n, e.Max)
		}
		return e.Mean
	}
	for _, n := range []int{7, 15, 21} {
		shared := mean(proto.BenOrShared, n)
		if shared > 4 {
			t.Errorf("benor-shared n=%d mean %.2f phases, want flat O(1)", n, shared)
		}
	}
	small, large := mean(proto.BenOrCrash, 7), mean(proto.BenOrCrash, 21)
	if large < 2*small {
		t.Errorf("benor-crash mean phases %.2f (n=7) -> %.2f (n=21): expected growth with n", small, large)
	}
	if sharedLarge := mean(proto.BenOrShared, 21); large < 5*sharedLarge {
		t.Errorf("benor-crash %.2f vs benor-shared %.2f at n=21: the common coin should win decisively", large, sharedLarge)
	}
}

// TestProtocolEnsembleCountsFailures: a trial that stalls is counted, not
// returned as an error. An event budget of 50 stalls every fail-stop run.
func TestProtocolEnsembleCountsFailures(t *testing.T) {
	e, err := ProtocolEnsemble(spawn.Scenario{Protocol: proto.FailStop, N: 7, K: 3, MaxEvents: 50},
		EnsembleOptions{Trials: 10, Start: 3, Seed: 5})
	if err != nil {
		t.Fatalf("stalled trials returned an error: %v", err)
	}
	if e.Trials != 10 || e.Outcomes.Trials != 10 || e.Outcomes.Terminated != 0 || len(e.Phases) != 0 {
		t.Errorf("trials %d, tallied %d, terminated %d, phases %v: want 10 stalled trials and no phases",
			e.Trials, e.Outcomes.Trials, e.Outcomes.Terminated, e.Phases)
	}
	if want := map[runtime.StallReason]int{runtime.EventBudget: 10}; !reflect.DeepEqual(e.Outcomes.Stalls, want) {
		t.Errorf("stalls %v, want %v", e.Outcomes.Stalls, want)
	}
}

// TestProtocolEnsembleAdversaries: the trial description carries Byzantine
// strategies. Two liars claiming 1 cannot override seven correct processes
// that all start with 0: every trial terminates, agrees and keeps validity
// on 0.
func TestProtocolEnsembleAdversaries(t *testing.T) {
	liars := map[msg.ID]spawn.Strategy{7: spawn.Liar1, 8: spawn.Liar1}
	e, err := ProtocolEnsemble(spawn.Scenario{Protocol: proto.Malicious, N: 9, K: 2, Adversaries: liars},
		EnsembleOptions{Trials: 12, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if o := e.Outcomes; o.Terminated != 12 || o.Agreed != 12 || o.Valid != 12 || o.Decided1 != 0 {
		t.Errorf("outcomes %+v: want 12 terminated, agreeing, valid trials deciding 0", o)
	}
}

// TestProtocolEnsembleRejects: a scenario no trial can run, or options the
// ensemble cannot honour, are refused before trial 0 -- the shared
// registry sees no run.
func TestProtocolEnsembleRejects(t *testing.T) {
	reg := metrics.NewRegistry()
	for _, tc := range []struct {
		what string
		run  spawn.Scenario
		opts EnsembleOptions
	}{
		{"unknown protocol", spawn.Scenario{Protocol: proto.ID(99), N: 7, K: 3}, EnsembleOptions{Trials: 1}},
		{"k over bound", spawn.Scenario{Protocol: proto.FailStop, N: 7, K: 4}, EnsembleOptions{Trials: 1}},
		{"coin override for deterministic protocol", spawn.Scenario{Protocol: proto.FailStop, N: 7, K: 3, Coin: coin.SchemeShared}, EnsembleOptions{Trials: 1}},
		{"out-of-range Start", spawn.Scenario{Protocol: proto.FailStop, N: 7, K: 3}, EnsembleOptions{Trials: 1, Start: 8}},
		{"a run seed the ensemble would overwrite", spawn.Scenario{Protocol: proto.FailStop, N: 7, K: 3, Seed: 4}, EnsembleOptions{Trials: 1}},
		{"run inputs the ensemble would overwrite", spawn.Scenario{Protocol: proto.FailStop, N: 7, K: 3, Inputs: make([]msg.Value, 7)}, EnsembleOptions{Trials: 1}},
		{"sampled scheme without an echo stage", spawn.Scenario{Protocol: proto.FailStop, N: 7, K: 3, Broadcast: spawn.SchemeSample}, EnsembleOptions{Trials: 1}},
		{"Eps under the echo scheme", spawn.Scenario{Protocol: proto.Malicious, N: 7, K: 2, Eps: 1e-3}, EnsembleOptions{Trials: 1}},
		{"negative MaxEvents", spawn.Scenario{Protocol: proto.FailStop, N: 7, K: 3, MaxEvents: -1}, EnsembleOptions{Trials: 1}},
	} {
		tc.run.Metrics = reg
		if _, err := ProtocolEnsemble(tc.run, tc.opts); err == nil {
			t.Errorf("%s accepted", tc.what)
		}
	}
	_, err := ProtocolEnsemble(spawn.Scenario{Protocol: proto.BenOrCrash, N: 7, K: 3, Crashes: faults.Plan{9: {Process: 9}}, Metrics: reg},
		EnsembleOptions{Trials: 1})
	if err == nil || strings.Count(err.Error(), "mc:") != 1 {
		t.Errorf("crash plan refusal %q: want one error naming mc once", err)
	}
	if runs := reg.Counter("runtime.runs").Value(); runs != 0 {
		t.Errorf("%d trials ran before a refusal", runs)
	}
}

// TestProtocolEnsembleSampledFigure2: an ensemble runs Figure 2 over the
// sampled broadcast scheme, each trial on its own seed's sample directory,
// and every trial of a small n=100 run terminates and agrees.
func TestProtocolEnsembleSampledFigure2(t *testing.T) {
	e, err := ProtocolEnsemble(spawn.Scenario{Protocol: proto.Malicious, N: 100, K: 10, Broadcast: spawn.SchemeSample},
		EnsembleOptions{Trials: 4, Start: 50, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	decidedAll(t, e, 4)
}
