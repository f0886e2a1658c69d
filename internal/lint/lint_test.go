package lint

import (
	"bytes"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
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

// The fixture module, loaded and type-checked once per test binary: the
// source importer re-checks the standard library on every load, which
// dominates the cost of each test that only needs one analysis.
var fixtureLoad = sync.OnceValues(func() (fixtureModule, error) {
	pkgs, fset, err := loadModule(fixtureConfig().Dir)
	return fixtureModule{pkgs, fset}, err
})

type fixtureModule struct {
	pkgs []*pkgInfo
	fset *token.FileSet
}

// loadedFixture returns the shared fixture load.
func loadedFixture(t *testing.T) fixtureModule {
	t.Helper()
	m, err := fixtureLoad()
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	return m
}

// runFixture analyzes the shared fixture load under fixtureConfig.
func runFixture(t *testing.T) []Finding {
	t.Helper()
	m := loadedFixture(t)
	findings, err := runLoaded(fixtureConfig(), m.pkgs, m.fset)
	if err != nil {
		t.Fatalf("runLoaded(fixture): %v", err)
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
		"lockblock",
		"msgexhaustive", "quorumarith",
	} {
		if !rules[want] {
			t.Errorf("no fixture finding exercises rule %q", want)
		}
	}
}

// TestFindingsDeterministic requires identical, (file, line, col, rule,
// message)-sorted findings from two independent loads of the fixture and
// from repeated analyses of the shared load: the linter must hold itself to
// the determinism standard it enforces. The repeats catch an analysis whose
// output follows map order, such as which of two blocking callees a
// lockblock message names.
func TestFindingsDeterministic(t *testing.T) {
	var runs [2][]Finding
	for i := range runs {
		findings, err := Run(fixtureConfig())
		if err != nil {
			t.Fatalf("Run(fixture): %v", err)
		}
		runs[i] = findings
	}
	first := runs[0]
	if !reflect.DeepEqual(first, runs[1]) {
		t.Fatalf("two runs over the same tree differ:\n%s\nvs\n%s",
			renderFindings(first), renderFindings(runs[1]))
	}
	sorted := append([]Finding(nil), first...)
	sortFindings(sorted)
	if !reflect.DeepEqual(first, sorted) {
		t.Errorf("findings not sorted by (file, line, col, rule, message):\n%s", renderFindings(first))
	}
	m := loadedFixture(t)
	for i := range 24 {
		again, err := runLoaded(fixtureConfig(), m.pkgs, m.fset)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("analysis %d of one load differs from the first run:\n%s\nvs\n%s",
				i, renderFindings(first), renderFindings(again))
		}
	}
}

// TestConfigNamesNothing: a root, blocking function, exemption or package
// that resolves to nothing in the module fails the run, one entry of each
// list at a time, and every stale entry is named.
func TestConfigNamesNothing(t *testing.T) {
	m := loadedFixture(t)
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
		{"DeterministicPkgs", func(c *Config, e string) { c.DeterministicPkgs = append(c.DeterministicPkgs, e) }, "fixture/gone"},
		{"GoroutineAllowed", func(c *Config, e string) { c.GoroutineAllowed = append(c.GoroutineAllowed, e) }, "fixture/gone"},
		{"LockPkgs", func(c *Config, e string) { c.LockPkgs = append(c.LockPkgs, e) }, "fixture/gone"},
		{"QuorumAllowedPkgs", func(c *Config, e string) { c.QuorumAllowedPkgs = append(c.QuorumAllowedPkgs, e) }, "fixture/gone"},
		{"MetricsPkg", func(c *Config, e string) { c.MetricsPkg = e }, "fixture/gone"},
		{"MsgKindType", func(c *Config, e string) { c.MsgKindType = e }, "fixture/core.Gone"},
		{"MsgKindType", func(c *Config, e string) { c.MsgKindType = e }, "fixture/gone.Kind"},
	} {
		cfg := fixtureConfig()
		tc.set(&cfg, tc.entry)
		_, err := runLoaded(cfg, m.pkgs, m.fset)
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
	if _, err := runLoaded(cfg, m.pkgs, m.fset); err == nil || !strings.Contains(err.Error(), `"fixture/hot.Gone"`) || !strings.Contains(err.Error(), `"fixture/arith.Gone"`) {
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
