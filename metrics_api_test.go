package resilient

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"
)

// TestSimulateWithMetrics drives the public entry point with a registry and
// checks the result snapshot, the registry snapshot, and the JSON writer.
func TestSimulateWithMetrics(t *testing.T) {
	reg := NewMetricsRegistry()
	res, err := Simulate(ProtocolFailStop, 7, 3, mixed(7), SimOptions{Seed: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("Result.Metrics missing")
	}
	if got := res.Metrics.Counters["runtime.messages_sent"]; got != int64(res.MessagesSent) {
		t.Errorf("snapshot messages_sent = %d, result = %d", got, res.MessagesSent)
	}
	if res.WallClock <= 0 {
		t.Error("WallClock not recorded")
	}

	var buf bytes.Buffer
	if err := WriteMetricsJSON(&buf, reg); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]any   `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
	if decoded.Counters["runtime.decisions"] != 7 {
		t.Errorf("decisions in JSON = %d, want 7", decoded.Counters["runtime.decisions"])
	}
	if _, ok := decoded.Histograms["runtime.decision_phase"]; !ok {
		t.Error("decision_phase histogram missing from JSON")
	}
}

// TestSimulateScopedRegistries checks per-protocol attribution: two runs
// into one registry under different scopes stay separable.
func TestSimulateScopedRegistries(t *testing.T) {
	reg := NewMetricsRegistry()
	if _, err := Simulate(ProtocolFailStop, 7, 3, mixed(7), SimOptions{
		Seed: 2, Metrics: reg.Scoped("failstop."),
	}); err != nil {
		t.Fatal(err)
	}
	adv := map[ID]Strategy{6: StrategyBalancer}
	if _, err := Simulate(ProtocolMalicious, 7, 2, mixed(7), SimOptions{
		Seed: 2, Adversaries: adv, Metrics: reg.Scoped("malicious."),
	}); err != nil {
		t.Fatal(err)
	}
	c := reg.Snapshot().Counters
	if c["failstop.runtime.messages_sent"] <= 0 {
		t.Error("fail-stop scope empty")
	}
	if c["malicious.runtime.messages_sent"] <= 0 {
		t.Error("malicious scope empty")
	}
	if c["runtime.messages_sent"] != 0 {
		t.Errorf("unscoped series leaked: %d", c["runtime.messages_sent"])
	}
}

// TestScenarioMemWithMetrics exercises Scenario.Metrics on the live
// goroutine engine.
func TestScenarioMemWithMetrics(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	reg := NewMetricsRegistry()
	out, err := RunScenario(ctx, EngineMem, Scenario{
		Protocol: ProtocolFailStop, N: 5, K: 2, Inputs: mixed(5), Seed: 1, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Agreement {
		t.Fatalf("no agreement: %+v", out)
	}
	c := reg.Snapshot().Counters
	if c["livenet.decisions"] != int64(len(out.Decisions)) {
		t.Errorf("livenet.decisions = %d, want %d", c["livenet.decisions"], len(out.Decisions))
	}
}

// TestScenarioTCPWithMetrics checks that the TCP path wires the registry
// into both the engine (livenet.*) and the transport (net.*).
func TestScenarioTCPWithMetrics(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	reg := NewMetricsRegistry()
	out, err := RunScenario(ctx, EngineTCP, Scenario{
		Protocol: ProtocolFailStop, N: 5, K: 2, Inputs: mixed(5), Seed: 1, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Agreement {
		t.Fatalf("no agreement: %+v", out)
	}
	c := reg.Snapshot().Counters
	if c["livenet.messages_sent"] <= 0 {
		t.Error("livenet traffic not accounted")
	}
	if c["net.frames_sent"] <= 0 && c["net.local_frames"] <= 0 {
		t.Error("transport frames not accounted")
	}
	if c["net.bytes_sent"] <= 0 {
		t.Error("transport bytes not accounted")
	}
}
