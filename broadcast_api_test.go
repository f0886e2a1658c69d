package resilient

import (
	"context"
	"testing"
)

func sameInputs(n int, v Value) []Value {
	in := make([]Value, n)
	for i := range in {
		in[i] = v
	}
	return in
}

// TestSimulateBroadcastEchoScheme runs the broadcast protocol over the
// default full-quorum primitive: every process must deliver p0's input.
func TestSimulateBroadcastEchoScheme(t *testing.T) {
	const n, k = 50, 5
	res, err := Simulate(ProtocolBroadcast, n, k, sameInputs(n, V1), SimOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreement || !res.AllDecided || res.Value != V1 {
		t.Fatalf("echo broadcast: agreement=%v allDecided=%v value=%v",
			res.Agreement, res.AllDecided, res.Value)
	}
}

// TestSimulateBroadcastSampledScheme runs the broadcast protocol over the
// sampled primitive at a size the full-quorum scheme would already strain,
// and pins the message reduction the scheme exists for.
func TestSimulateBroadcastSampledScheme(t *testing.T) {
	const n, k = 1000, 100
	sampled, err := Simulate(ProtocolBroadcast, n, k, sameInputs(n, V1), SimOptions{
		Seed: 2, Broadcast: SchemeSample, RunToCompletion: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sampled.Agreement || sampled.Value != V1 {
		t.Fatalf("sampled broadcast: agreement=%v value=%v", sampled.Agreement, sampled.Value)
	}
	if len(sampled.Decisions) < n-1 { // ε-delivery: allow stray sampling misses
		t.Fatalf("sampled broadcast delivered %d/%d", len(sampled.Decisions), n)
	}

	echo, err := Simulate(ProtocolBroadcast, n, k, sameInputs(n, V1), SimOptions{
		Seed: 2, RunToCompletion: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(echo.MessagesSent) / float64(sampled.MessagesSent); ratio < 5 {
		t.Errorf("sampled scheme sent %d msgs vs echo %d: reduction %.1fx, want >= 5x",
			sampled.MessagesSent, echo.MessagesSent, ratio)
	}
}

// TestSimulateMaliciousSampledScheme runs full Figure-2 consensus over the
// sampled echo primitive through the public API: agreement, validity, and
// fewer messages than the full-quorum run.
func TestSimulateMaliciousSampledScheme(t *testing.T) {
	const n, k = 100, 10
	sampled, err := Simulate(ProtocolMalicious, n, k, sameInputs(n, V0), SimOptions{
		Seed: 3, Broadcast: SchemeSample, RunToCompletion: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sampled.Agreement || !sampled.AllDecided || sampled.Value != V0 {
		t.Fatalf("sampled consensus: agreement=%v allDecided=%v value=%v",
			sampled.Agreement, sampled.AllDecided, sampled.Value)
	}
	full, err := Simulate(ProtocolMalicious, n, k, sameInputs(n, V0), SimOptions{
		Seed: 3, RunToCompletion: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.MessagesSent >= full.MessagesSent {
		t.Errorf("sampled consensus sent %d msgs, full-quorum %d", sampled.MessagesSent, full.MessagesSent)
	}
}

// TestSimulateSampledWithSilentAdversaries keeps the Byzantine plumbing
// honest: silent adversaries under the sampled scheme must not block
// agreement among the correct processes.
func TestSimulateSampledWithSilentAdversaries(t *testing.T) {
	const n, k = 100, 10
	adv := map[ID]Strategy{}
	for i := n - k/2; i < n; i++ {
		adv[ID(i)] = StrategySilent
	}
	res, err := Simulate(ProtocolMalicious, n, k, sameInputs(n, V1), SimOptions{
		Seed: 4, Broadcast: SchemeSample, Adversaries: adv,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreement || !res.AllDecided || res.Value != V1 {
		t.Fatalf("sampled consensus under silent faults: agreement=%v allDecided=%v value=%v",
			res.Agreement, res.AllDecided, res.Value)
	}
}

// TestSampledSchemeValidation pins the knob's error paths.
func TestSampledSchemeValidation(t *testing.T) {
	if _, err := Simulate(ProtocolMalicious, 10, 3, sameInputs(10, V0), SimOptions{
		Broadcast: BroadcastScheme(7),
	}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := Simulate(ProtocolMalicious, 9, 3, sameInputs(9, V0), SimOptions{
		Broadcast: SchemeSample, Unsafe: true, Eps: 1e-3,
	}); err == nil {
		t.Error("unsafe sampled run accepted")
	}
	if _, err := Simulate(ProtocolMalicious, 10, 3, sameInputs(10, V0), SimOptions{
		Broadcast: SchemeSample, Eps: 0.5,
	}); err == nil {
		t.Error("eps=0.5 accepted")
	}
	// A knob with nothing to act on is an error, not ignored: the sampled
	// scheme on a protocol without an echo stage, and an error bound under
	// the echo scheme. (TestScenarioValidationIsEngineIndependent checks
	// that the live engines refuse them in the same words.)
	for _, tc := range []struct {
		name string
		p    Protocol
		n, k int
		opts SimOptions
	}{
		{"sample on failstop", ProtocolFailStop, 7, 3, SimOptions{Broadcast: SchemeSample}},
		{"eps under echo", ProtocolMalicious, 10, 3, SimOptions{Eps: 1e-3}},
		{"eps under echo on failstop", ProtocolFailStop, 7, 3, SimOptions{Eps: 1e-3}},
	} {
		if _, err := Simulate(tc.p, tc.n, tc.k, sameInputs(tc.n, V0), tc.opts); err == nil {
			t.Errorf("%s: Simulate accepted it", tc.name)
		}
		sc := Scenario{Protocol: tc.p, N: tc.n, K: tc.k, Inputs: sameInputs(tc.n, V0),
			Broadcast: tc.opts.Broadcast, Eps: tc.opts.Eps}
		if out, err := RunScenario(context.Background(), EngineSim, sc); err == nil || out != nil {
			t.Errorf("%s: RunScenario accepted it", tc.name)
		}
	}
	for _, s := range []BroadcastScheme{SchemeEcho, SchemeSample} {
		if !s.Valid() || s.String() == "" {
			t.Errorf("scheme %d invalid or unnamed", int(s))
		}
	}
	if BroadcastScheme(7).Valid() {
		t.Error("out-of-range scheme valid")
	}
}

// TestScenarioSampledAcrossEngines runs the same sampled-consensus scenario
// on the simulator and the in-memory live engine: both must reach agreement
// on the unanimous input.
func TestScenarioSampledAcrossEngines(t *testing.T) {
	sc := Scenario{
		Protocol: ProtocolMalicious, N: 40, K: 4,
		Inputs: sameInputs(40, V1), Seed: 5, Broadcast: SchemeSample, Eps: 1e-2,
	}
	for _, engine := range []Engine{EngineSim, EngineMem} {
		out, err := RunScenario(context.Background(), engine, sc)
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if !out.Agreement || !out.AllDecided || out.Value != V1 {
			t.Fatalf("%v: agreement=%v allDecided=%v value=%v",
				engine, out.Agreement, out.AllDecided, out.Value)
		}
	}
}

// TestVerifyBroadcast pins that a traced broadcast run verifies clean on
// both schemes: the broadcast machines trace each delivery as a decide
// event, which Verify matches against Result.Decisions (before they did,
// every delivery was reported "missing from trace").
func TestVerifyBroadcast(t *testing.T) {
	const n, k = 200, 20
	inputs := sameInputs(n, V1)
	for _, scheme := range []BroadcastScheme{SchemeSample, SchemeEcho} {
		buf := NewTraceBuffer(0)
		res, err := Simulate(ProtocolBroadcast, n, k, inputs, SimOptions{
			Seed: 6, Broadcast: scheme, RunToCompletion: true, Trace: buf,
		})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if !res.AllDecided {
			t.Fatalf("%v: not every process delivered", scheme)
		}
		if vs := Verify(ProtocolBroadcast, n, k, inputs, nil, buf, res); len(vs) > 0 {
			t.Errorf("%v: %d violations, first: %+v", scheme, len(vs), vs[0])
		}
	}
}
