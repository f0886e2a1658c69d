package lint

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureConfig mirrors ProjectConfig for the fixture module under testdata:
// det and pool are the deterministic packages (pool goroutine-blessed),
// core.Machine is the hot interface and the dispatch root, hot.Drive a named
// hot root, locks the lock-safety package, and thresh the audited threshold
// home.
func fixtureConfig() Config {
	return Config{
		Dir:                filepath.Join("testdata", "fixturemod"),
		DeterministicPkgs:  []string{"fixture/det", "fixture/pool"},
		GoroutineAllowed:   []string{"fixture/pool"},
		MetricsPkg:         "fixture/metrics",
		HotIfaces:          []string{"fixture/core.Machine"},
		HotFuncs:           []string{"fixture/hot.Drive"},
		LockPkgs:           []string{"fixture/locks"},
		BlockingFuncs:      []string{"fixture/core.Sender.Send"},
		MsgKindType:        "fixture/core.Kind",
		DispatchIfaces:     []string{"fixture/core.Machine.OnMessage"},
		DispatchFuncs:      []string{"fixture/dispatch.Consume"},
		QuorumAllowedPkgs:  []string{"fixture/thresh"},
		QuorumAllowedFuncs: []string{"fixture/arith.Sizer"},
	}
}

func runFixture(t *testing.T) []Finding {
	t.Helper()
	findings, err := Run(fixtureConfig())
	if err != nil {
		t.Fatalf("Run(fixture): %v", err)
	}
	return findings
}

func renderFindings(fs []Finding) []byte {
	var buf bytes.Buffer
	for _, f := range fs {
		buf.WriteString(f.String())
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestFixtureGolden locks the full diagnostic output over the fixture module:
// every rule's positives fire with the expected file:line and message, and
// none of the negatives (blessed idioms, annotated exceptions, cold code) do.
func TestFixtureGolden(t *testing.T) {
	got := renderFindings(runFixture(t))
	golden := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fixture findings diverge from golden (run with -update to regenerate)\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestEveryRuleRepresented guards the fixture itself: each rule family must
// have at least one surviving positive, so a rule cannot silently stop firing
// without the golden shrinking.
func TestEveryRuleRepresented(t *testing.T) {
	rules := map[string]bool{}
	for _, f := range runFixture(t) {
		rules[f.Rule] = true
	}
	for _, want := range []string{
		"walltime", "globalrand", "maprange", "goroutine",
		"hotalloc", "metricshandle", "seedhygiene", "allow",
		"lockblock", "lockorder", "lockreturn",
		"msgexhaustive", "quorumarith",
	} {
		if !rules[want] {
			t.Errorf("no fixture finding exercises rule %q", want)
		}
	}
}

// TestFindingsDeterministic runs the analysis twice and requires identical,
// (file, line, col, rule, message)-sorted findings and byte-identical JSON:
// the linter must hold itself to the determinism standard it enforces.
func TestFindingsDeterministic(t *testing.T) {
	first := runFixture(t)
	second := runFixture(t)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("two runs over the same tree differ:\n%s\nvs\n%s",
			renderFindings(first), renderFindings(second))
	}
	sorted := append([]Finding(nil), first...)
	sortFindings(sorted)
	if !reflect.DeepEqual(first, sorted) {
		t.Errorf("findings not sorted by (file, line, col, rule, message):\n%s", renderFindings(first))
	}
	j1, err := WriteJSON(first)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := WriteJSON(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Error("JSON output differs between identical runs")
	}
}

// TestConfigNamesNothing: a root, blocking function or exemption that
// resolves to no declaration fails the run, one entry of each list at a
// time, and every stale entry is named.
func TestConfigNamesNothing(t *testing.T) {
	pkgs, fset, err := loadModule(fixtureConfig().Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field string
		set   func(c *Config, entry string)
		entry string
	}{
		{"HotFuncs", func(c *Config, e string) { c.HotFuncs = append(c.HotFuncs, e) }, "fixture/hot.Gone"},
		{"DispatchFuncs", func(c *Config, e string) { c.DispatchFuncs = append(c.DispatchFuncs, e) }, "fixture/dispatch.Gone"},
		{"BlockingFuncs", func(c *Config, e string) { c.BlockingFuncs = append(c.BlockingFuncs, e) }, "fixture/core.Sender.Gone"},
		{"QuorumAllowedFuncs", func(c *Config, e string) { c.QuorumAllowedFuncs = append(c.QuorumAllowedFuncs, e) }, "fixture/arith.Gone"},
		{"HotIfaces", func(c *Config, e string) { c.HotIfaces = append(c.HotIfaces, e) }, "fixture/core.Gone"},
		{"DispatchIfaces", func(c *Config, e string) { c.DispatchIfaces = append(c.DispatchIfaces, e) }, "fixture/core.Machine.Gone"},
		{"DispatchIfaces", func(c *Config, e string) { c.DispatchIfaces = append(c.DispatchIfaces, e) }, "fixture/hot.Drive.OnMessage"},
	} {
		cfg := fixtureConfig()
		tc.set(&cfg, tc.entry)
		_, err := runLoaded(cfg, pkgs, fset)
		if err == nil {
			t.Errorf("%s entry %q: config accepted", tc.field, tc.entry)
			continue
		}
		if want := fmt.Sprintf("%s entry %q", tc.field, tc.entry); !strings.Contains(err.Error(), want) {
			t.Errorf("%s entry %q: error %q does not name it", tc.field, tc.entry, err)
		}
	}

	cfg := fixtureConfig()
	cfg.HotFuncs = append(cfg.HotFuncs, "fixture/hot.Gone")
	cfg.QuorumAllowedFuncs = append(cfg.QuorumAllowedFuncs, "fixture/arith.Gone")
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), `"fixture/hot.Gone"`) || !strings.Contains(err.Error(), `"fixture/arith.Gone"`) {
		t.Errorf("two stale entries: error %v, want both named", err)
	}
}

// TestWriteGitHub pins the Actions annotation encoding, including the
// workflow-command escaping of %, CR, and LF in messages.
func TestWriteGitHub(t *testing.T) {
	got := WriteGitHub([]Finding{
		{File: "a/b.go", Line: 3, Col: 7, Rule: "lockblock", Message: "x held"},
		{File: "c.go", Line: 1, Col: 1, Rule: "allow", Message: "100% sure\nline two"},
	})
	want := "::error file=a/b.go,line=3,col=7,title=consensuslint lockblock::x held\n" +
		"::error file=c.go,line=1,col=1,title=consensuslint allow::100%25 sure%0Aline two\n"
	if string(got) != want {
		t.Errorf("WriteGitHub:\n got %q\nwant %q", got, want)
	}
	if out := WriteGitHub(nil); len(out) != 0 {
		t.Errorf("WriteGitHub(nil) = %q, want empty", out)
	}
}

// TestWriteJSONEmpty pins the clean-tree JSON encoding.
func TestWriteJSONEmpty(t *testing.T) {
	data, err := WriteJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "[]\n" {
		t.Errorf("WriteJSON(nil) = %q, want %q", data, "[]\n")
	}
}
