package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// renderAll runs every experiment under p and renders every table to one
// byte string -- the campaign's complete observable output.
func renderAll(t *testing.T, p Params) string {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range All() {
		tables, err := e.Run(p)
		if err != nil {
			t.Fatalf("%s (workers=%d): %v", e.ID, p.Workers, err)
		}
		for _, tb := range tables {
			tb.Format(&buf)
		}
	}
	return buf.String()
}

// TestExperimentsDeterministicAcrossWorkers is the campaign-level
// determinism regression: every experiment table must be byte-identical for
// workers = 1, 4 and 16, and across two runs at the same worker count.
// Parallelism buys wall-clock time, never different numbers.
func TestExperimentsDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full campaign four times")
	}
	p := Params{Trials: 8, Seed: 3, Quick: true, Workers: 1}
	base := renderAll(t, p)
	if base == "" {
		t.Fatal("empty campaign output")
	}
	for _, w := range []int{1, 4, 16} {
		pw := p
		pw.Workers = w
		if got := renderAll(t, pw); got != base {
			t.Errorf("workers=%d changed experiment output:\n%s\n-- want --\n%s", w, got, base)
		}
	}
}

// TestQuickCampaignGolden pins the contents of every table, not just their
// shape: the whole quick campaign (every All() table under QuickParams,
// rendered with Format) must match testdata/quick.golden byte for byte. A
// change that moves a number on purpose recaptures the file with
// RESILIENT_GOLDEN_GEN=1 go test -run TestQuickCampaignGolden
// ./internal/experiments and says why.
func TestQuickCampaignGolden(t *testing.T) {
	got := renderAll(t, QuickParams())
	path := filepath.Join("testdata", "quick.golden")
	if os.Getenv("RESILIENT_GOLDEN_GEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skip("golden generation mode: quick.golden rewritten, nothing asserted")
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("quick campaign differs from %s:\n%s\n-- want --\n%s", path, got, want)
	}
}
