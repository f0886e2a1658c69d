package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"resilient"
)

func TestParseProtocol(t *testing.T) {
	cases := map[string]resilient.Protocol{
		"failstop":        resilient.ProtocolFailStop,
		"fig1":            resilient.ProtocolFailStop,
		"malicious":       resilient.ProtocolMalicious,
		"FIG2":            resilient.ProtocolMalicious,
		"majority":        resilient.ProtocolMajority,
		"benor-crash":     resilient.ProtocolBenOrCrash,
		"benor-byzantine": resilient.ProtocolBenOrByzantine,
		"benor-shared":    resilient.ProtocolBenOrShared,
		"bivalence":       resilient.ProtocolBivalence,
		"broadcast":       resilient.ProtocolBroadcast,
	}
	for name, want := range cases {
		got, err := resilient.ParseProtocol(name)
		if err != nil || got != want {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := resilient.ParseProtocol("paxos"); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestListProtocolsTable(t *testing.T) {
	var buf strings.Builder
	printProtocolTable(&buf, 7)
	out := buf.String()
	for _, p := range resilient.Protocols() {
		if !strings.Contains(out, p.String()) {
			t.Errorf("-list-protocols output missing %v:\n%s", p, out)
		}
	}
	for _, want := range []string{"NAME", "COIN", "shared", "(n-1)/2"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list-protocols output missing %q:\n%s", want, out)
		}
	}
}

func TestParseInputs(t *testing.T) {
	in, err := parseInputs("0101", 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []resilient.Value{0, 1, 0, 1}
	for i, v := range want {
		if in[i] != v {
			t.Fatalf("inputs %v, want %v", in, want)
		}
	}
	// Default alternation.
	def, err := parseInputs("", 3)
	if err != nil || len(def) != 3 {
		t.Fatalf("default inputs %v, %v", def, err)
	}
	if _, err := parseInputs("01", 3); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := parseInputs("01x", 3); err == nil {
		t.Error("non-binary input accepted")
	}
}

func TestParseCrashes(t *testing.T) {
	plan, err := parseCrashes("3:1:5,0:0:0")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 2 {
		t.Fatalf("plan %v", plan)
	}
	c := plan[3]
	if c.Phase != 1 || c.AfterSends != 5 {
		t.Errorf("crash %+v", c)
	}
	if p, err := parseCrashes(""); err != nil || p != nil {
		t.Error("empty spec should give nil plan")
	}
	for _, bad := range []string{"3:1", "a:b:c", "1:2:3:4"} {
		if _, err := parseCrashes(bad); err == nil {
			t.Errorf("bad spec %q accepted", bad)
		}
	}
}

func TestParseAdversaries(t *testing.T) {
	adv, err := parseAdversaries("balancer", 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(adv) != 3 {
		t.Fatalf("adversaries %v", adv)
	}
	for _, id := range []resilient.ID{7, 8, 9} {
		if adv[id] != resilient.StrategyBalancer {
			t.Errorf("p%d strategy %v", id, adv[id])
		}
	}
	if a, err := parseAdversaries("", 10, 3); err != nil || a != nil {
		t.Error("empty spec should give nil")
	}
	if _, err := parseAdversaries("nonsense", 10, 3); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := parseAdversaries("silent", 10, 0); err == nil {
		t.Error("k=0 with adversaries accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	// Single trial and aggregate mode both complete without error.
	if err := run([]string{"-protocol", "failstop", "-n", "5", "-k", "2", "-seed", "3"}); err != nil {
		t.Fatalf("single run: %v", err)
	}
	if err := run([]string{"-protocol", "malicious", "-n", "7", "-trials", "5"}); err != nil {
		t.Fatalf("aggregate run: %v", err)
	}
	if err := run([]string{"-protocol", "bogus"}); err == nil ||
		!strings.Contains(err.Error(), "unknown protocol") {
		t.Fatalf("bogus protocol: %v", err)
	}
}

// TestRunPprof checks that -pprof leaves both profiles behind.
func TestRunPprof(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "run")
	if err := run([]string{"-protocol", "malicious", "-n", "7", "-trials", "5", "-pprof", prefix}); err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{".cpu", ".allocs"} {
		if st, err := os.Stat(prefix + ext); err != nil || st.Size() == 0 {
			t.Errorf("%s%s: %v, want a non-empty file", prefix, ext, err)
		}
	}
}

func TestParseScheme(t *testing.T) {
	for name, want := range map[string]resilient.BroadcastScheme{
		"echo": resilient.SchemeEcho, "sample": resilient.SchemeSample, "SAMPLE": resilient.SchemeSample,
	} {
		got, err := parseScheme(name)
		if err != nil || got != want {
			t.Errorf("parseScheme(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := parseScheme("gossip"); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestValidateScale(t *testing.T) {
	cases := []struct {
		proto  resilient.Protocol
		scheme resilient.BroadcastScheme
		n      int
		wantOK bool
	}{
		{resilient.ProtocolMalicious, resilient.SchemeEcho, 250, true},
		{resilient.ProtocolMalicious, resilient.SchemeEcho, 251, false},
		{resilient.ProtocolMalicious, resilient.SchemeSample, 1000, true},
		{resilient.ProtocolBroadcast, resilient.SchemeEcho, 4000, true},
		{resilient.ProtocolBroadcast, resilient.SchemeEcho, 4001, false},
		{resilient.ProtocolBroadcast, resilient.SchemeSample, 10000, true},
		{resilient.ProtocolFailStop, resilient.SchemeEcho, 10000, true},
	}
	for _, c := range cases {
		err := checkEchoCeiling(c.proto, c.scheme, c.n)
		if (err == nil) != c.wantOK {
			t.Errorf("checkEchoCeiling(%v, %v, n=%d) = %v, wantOK=%v", c.proto, c.scheme, c.n, err, c.wantOK)
		}
	}
}

// TestRunRejectsOtherModesFlags: a flag only the other run mode reads is an
// error that names it, not a run that silently ignores it; so are -trials
// and -trace on a live engine.
func TestRunRejectsOtherModesFlags(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-log -adversary balancer -policy drop:0.5,const:1 -trials 9", "-trials does not apply to -log"},
		{"-log -crash 1:0:0", "-crash does not apply to -log"},
		{"-log -inputs 0101010", "-inputs does not apply to -log"},
		{"-log -broadcast sample", "-broadcast does not apply to -log"},
		{"-log -trace", "-trace does not apply to -log"},
		{"-rate 500 -logcrash 1:2", "-rate does not apply to a single-instance run"},
		{"-logcrash 1:2", "-logcrash does not apply to a single-instance run"},
		{"-engine sim -ops 10", "-ops does not apply to a single-instance run"},
		{"-engine mem -trials 2", "engine mem runs one untraced execution"},
		{"-engine tcp -trace", "engine tcp runs one untraced execution"},
	} {
		if _, err := runCLI(t, tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("consensus-sim %s: error %v, want %q", tc.args, err, tc.want)
		}
	}
	// The shared flags still reach the log.
	if _, err := runCLI(t, "-log -protocol benor-crash -coin shared -n 5 -k 2 -seed 3 -ops 64 -json"); err != nil {
		t.Errorf("log with shared flags: %v", err)
	}
}

// TestRunSampledBroadcast exercises the new flags end to end: sampled
// consensus at a scale the echo scheme rejects, and the fail-fast rejection
// itself.
func TestRunSampledBroadcast(t *testing.T) {
	if err := run([]string{"-protocol", "malicious", "-n", "300", "-k", "30",
		"-broadcast", "sample", "-inputs", strings.Repeat("1", 300), "-seed", "2"}); err != nil {
		t.Fatalf("sampled consensus run: %v", err)
	}
	if err := run([]string{"-protocol", "broadcast", "-n", "1000", "-k", "100",
		"-broadcast", "sample", "-eps", "1e-3", "-json"}); err != nil {
		t.Fatalf("sampled broadcast run: %v", err)
	}
	if err := run([]string{"-protocol", "malicious", "-n", "1000", "-k", "100"}); err == nil ||
		!strings.Contains(err.Error(), "-broadcast=sample") {
		t.Fatalf("echo scheme at n=1000: %v", err)
	}
	if err := run([]string{"-protocol", "failstop", "-n", "7", "-broadcast", "sample"}); err == nil {
		t.Fatalf("sample scheme on failstop accepted")
	}
	if err := run([]string{"-protocol", "malicious", "-n", "21", "-broadcast", "gossip"}); err == nil {
		t.Fatalf("unknown scheme accepted")
	}
}

func TestRunJSONMode(t *testing.T) {
	if err := run([]string{"-protocol", "failstop", "-n", "5", "-k", "2", "-json"}); err != nil {
		t.Fatalf("json run: %v", err)
	}
}

// TestRunTrialsDeterministicAcrossWorkers pins the -workers contract: the
// aggregate report is byte-identical however the trials are fanned out
// (trial tr always simulates with seed+tr).
func TestRunTrialsDeterministicAcrossWorkers(t *testing.T) {
	out := func(workers string) string {
		t.Helper()
		return captureStdout(t, func() {
			if err := run([]string{"-protocol", "failstop", "-n", "7", "-k", "3",
				"-trials", "24", "-seed", "11", "-workers", workers}); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := out("1")
	if !strings.Contains(base, "trials=24") {
		t.Fatalf("missing aggregate header:\n%s", base)
	}
	for _, w := range []string{"4", "16"} {
		if got := out(w); got != base {
			t.Errorf("-workers %s changed output:\n%s\n-- want --\n%s", w, got, base)
		}
	}
}

// TestRunTrialsReportsStalls: an aggregate run says how many trials stalled
// and why, and averages phases over the terminated trials only -- a trial
// nobody finished has no phase count, and adding it as 0 hid stalls behind
// a "phases 0.000" line.
func TestRunTrialsReportsStalls(t *testing.T) {
	report := func(args ...string) string {
		t.Helper()
		return captureStdout(t, func() {
			if err := run(append([]string{"-protocol", "failstop", "-n", "7", "-k", "3"}, args...)); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, tc := range []struct {
		args    []string
		stalled bool
		want    []string
	}{
		// A hard partition: the two-process side never decides.
		{[]string{"-policy", "partition:2,const:1", "-trials", "5"}, true, []string{
			"terminated 0/5\n",
			"stalled    5/5 (queue drained (deadlock))\n",
			"phases     none (no trial terminated)\n",
		}},
		// Lossy links: 3 of the 20 seeds deadlock.
		{[]string{"-policy", "drop:0.1,uniform:0.1:1", "-trials", "20"}, true, []string{
			"terminated 17/20\n",
			"stalled    3/20 (queue drained (deadlock))\n",
			", n=17)\n",
		}},
		{[]string{"-trials", "5"}, false, []string{"terminated 5/5\n", ", n=5)\n"}},
	} {
		out := report(tc.args...)
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Errorf("%v: report lacks %q:\n%s", tc.args, w, out)
			}
		}
		if got := strings.Contains(out, "stalled"); got != tc.stalled {
			t.Errorf("%v: stalled line printed = %v, want %v:\n%s", tc.args, got, tc.stalled, out)
		}
	}
	got := stallSummary(map[resilient.StallReason]int{resilient.EventBudget: 2, resilient.QueueDrained: 1}, 9)
	if want := "3/9 (queue drained (deadlock) 1, event budget exhausted 2)"; got != want {
		t.Errorf("stallSummary = %q, want %q", got, want)
	}
}

// TestRunGolden pins the CLI's output byte for byte, one golden file per
// invocation under testdata/. The goldens were captured from the binary
// before its run modes shared one printer, with the text decision lines put
// in process-id order (that binary printed them in map order). A run that
// fails is pinned by its stdout plus the line main prints for the error.
// Log runs are compared without their wall-clock lines. A deliberate output
// change recaptures a golden as `consensus-sim ARGS > testdata/NAME.golden`
// (log cases without their elapsed/throughput lines) and says why.
func TestRunGolden(t *testing.T) {
	for _, tc := range []struct{ name, args string }{
		{"failstop", "-protocol failstop -n 7 -k 3 -seed 1"},
		{"failstop-json", "-protocol failstop -n 7 -k 3 -seed 1 -json"},
		{"balancer", "-protocol malicious -n 10 -k 3 -adversary balancer"},
		{"balancer-json", "-protocol malicious -n 10 -k 3 -adversary balancer -json"},
		{"crash", "-protocol failstop -n 9 -k 4 -crash 3:1:5,7:0:0"},
		{"crash-json", "-protocol failstop -n 9 -k 4 -crash 3:1:5,7:0:0 -json"},
		{"trace", "-protocol failstop -n 4 -k 1 -trace"},
		{"trials", "-protocol failstop -n 7 -k 3 -trials 50"},
		{"partition-trials", "-protocol failstop -n 7 -k 3 -policy partition:2,const:1 -trials 5"},
		{"sampled-broadcast-json", "-protocol broadcast -n 1000 -k 100 -broadcast sample -json"},
		{"sampled-malicious", "-protocol malicious -n 100 -k 10 -broadcast sample"},
		{"shared-coin", "-protocol benor-crash -coin shared -n 7 -k 3 -seed 2"},
		{"log", "-log -n 7 -ops 512 -logcrash 3:5"},
		{"log-json", "-log -n 7 -ops 512 -logcrash 3:5 -json"},
		{"list-protocols", "-list-protocols"},
		{"echo-ceiling", "-protocol malicious -n 1000 -k 100"},
		// Two schedules that stress the event queue: exponential delays
		// put keys on the day being popped, and a constant delay puts
		// every key of a step on one time.
		{"balancer-exp", "-protocol malicious -n 13 -k 4 -adversary balancer -policy exp:1"},
		{"const-policy", "-protocol malicious -n 16 -k 5 -policy const:1"},
		// A Uniform the runner does not draw in place (Min 0) goes
		// through Link, and a drop over a non-default base draws the drop
		// coin before the exponential delay.
		{"uniform-link", "-protocol failstop -n 7 -k 3 -policy uniform:0:1"},
		{"drop-exp", "-protocol malicious -n 10 -k 3 -policy drop:0.05,exp:1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			out, err := runCLI(t, tc.args)
			if err != nil {
				out += "consensus-sim: " + err.Error() + "\n"
			}
			if got := dropWallClock(out); got != string(want) {
				t.Errorf("consensus-sim %s:\n%s\n-- want --\n%s", tc.args, got, want)
			}
		})
	}
}

// dropWallClock removes the log report's wall-clock lines, text and JSON.
func dropWallClock(out string) string {
	var keep []string
	for _, line := range strings.SplitAfter(out, "\n") {
		field := strings.TrimSpace(line)
		if strings.HasPrefix(field, "elapsed") || strings.HasPrefix(field, "throughput") ||
			strings.HasPrefix(field, `"elapsedSeconds"`) || strings.HasPrefix(field, `"opsPerSec"`) {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "")
}

// TestRunTextDeterministic: one seed, one output. The text printer used to
// list decisions in map order, so two runs of a seed could differ.
func TestRunTextDeterministic(t *testing.T) {
	const args = "-protocol failstop -n 7 -k 3 -seed 1"
	first, err := runCLI(t, args)
	if err != nil {
		t.Fatal(err)
	}
	for range 5 {
		if again, _ := runCLI(t, args); again != first {
			t.Fatalf("consensus-sim %s printed two outputs:\n%s\n-- and --\n%s", args, first, again)
		}
	}
}

// TestRunLiveEngine runs a single instance and a log on the in-memory
// engine, where decision phases, batch counts and timings vary from run to
// run, and checks what does not.
func TestRunLiveEngine(t *testing.T) {
	out, err := runCLI(t, "-protocol failstop -n 7 -k 3 -engine mem -crash 6:0:0")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"engine       mem\n", "all decided  true\n", "agreement    true\n", "\nelapsed      ", "crashed      [6]\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("live run lacks %q:\n%s", want, out)
		}
	}
	for id := 0; id < 6; id++ {
		if want := fmt.Sprintf("  p%-3d decided ", id); !strings.Contains(out, want) {
			t.Errorf("live run lacks p%d's decision:\n%s", id, out)
		}
	}
	if strings.Count(out, "\n  p") != 6 || strings.Index(out, "  p0 ") > strings.Index(out, "  p5 ") {
		t.Errorf("want six decisions in process-id order:\n%s", out)
	}

	out, err = runCLI(t, "-protocol failstop -n 7 -k 3 -engine mem -json")
	if err != nil {
		t.Fatal(err)
	}
	var live map[string]any
	if err := json.Unmarshal([]byte(out), &live); err != nil {
		t.Fatalf("%v:\n%s", err, out)
	}
	if live["engine"] != "mem" || live["allDecided"] != true || live["elapsedSeconds"] == nil {
		t.Errorf("live JSON lacks engine, allDecided or elapsedSeconds:\n%s", out)
	}
	if _, sim := live["messagesSent"]; sim {
		t.Errorf("live JSON carries simulator fields:\n%s", out)
	}
	if ds, _ := live["decisions"].([]any); len(ds) != 7 {
		t.Errorf("live JSON has %d decisions, want 7:\n%s", len(ds), out)
	}

	out, err = runCLI(t, "-log -engine mem -n 7 -ops 512")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"log         engine=mem n=7 (unpaced)\n", "ops         512 committed in ", "\nlatency     p50="} {
		if !strings.Contains(out, want) {
			t.Errorf("live log lacks %q:\n%s", want, out)
		}
	}
}

// runCLI runs consensus-sim on space-separated args and returns its stdout.
func runCLI(t *testing.T, args string) (out string, err error) {
	t.Helper()
	out = captureStdout(t, func() { err = run(strings.Fields(args)) })
	return out, err
}

func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	// Drain while f writes: an output larger than the pipe's buffer would
	// otherwise block f forever.
	data := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		data <- b
	}()
	f()
	w.Close()
	return string(<-data)
}
