package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFailStop(t *testing.T) {
	if err := run([]string{"-n", "30", "-states", "-tail", "10"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMalicious(t *testing.T) {
	if err := run([]string{"-n", "64", "-k", "3", "-malicious", "-tail", "5"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "64", "-k", "3", "-malicious", "-forced=false"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsInvalid(t *testing.T) {
	if err := run([]string{"-n", "0"}); err == nil {
		t.Fatal("n=0 accepted")
	}
	if err := run([]string{"-n", "10", "-k", "5", "-malicious"}); err == nil {
		t.Fatal("2k=n accepted for malicious chain")
	}
	if err := run([]string{"-n", "30", "-forced=false"}); err == nil || !strings.Contains(err.Error(), "-forced does not apply") {
		t.Fatalf("-forced without -malicious: err = %v, want it named", err)
	}
}

func TestRunMonteCarloCrossCheck(t *testing.T) {
	if err := run([]string{"-n", "30", "-mc", "100"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "64", "-k", "3", "-malicious", "-mc", "50", "-workers", "4"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunMonteCarloDeterministicAcrossWorkers checks the CLI contract that
// -workers never changes the printed report.
func TestRunMonteCarloDeterministicAcrossWorkers(t *testing.T) {
	out := func(workers string) string {
		t.Helper()
		return captureStdout(t, func() {
			if err := run([]string{"-n", "30", "-mc", "200", "-seed", "7", "-workers", workers}); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := out("1")
	if !strings.Contains(base, "MC E[T]") {
		t.Fatalf("missing MC line:\n%s", base)
	}
	for _, w := range []string{"4", "16"} {
		if got := out(w); got != base {
			t.Errorf("-workers %s changed output:\n%s\n-- want --\n%s", w, got, base)
		}
	}
}

// TestRunGolden pins the report byte for byte, one golden file per
// invocation under testdata/. The Monte-Carlo case runs at one and at four
// workers against the same file: -workers never changes the report. A change
// that moves output on purpose recaptures the files with
// RESILIENT_GOLDEN_GEN=1 go test -run TestRunGolden ./cmd/markov-analysis
// and says why.
func TestRunGolden(t *testing.T) {
	for _, tc := range []struct{ name, args string }{
		{"failstop-states-tail", "-n 30 -states -tail 10"},
		{"failstop-n90", "-n 90"},
		{"forced-states-tail", "-n 64 -k 3 -malicious -states -tail 5"},
		{"mixed-states", "-n 64 -k 3 -malicious -forced=false -states"},
		{"forced-mc", "-n 64 -k 3 -malicious -mc 200 -workers 2"},
		{"mc", "-n 30 -mc 200 -workers 1"},
		{"mc", "-n 30 -mc 200 -workers 4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			got := captureStdout(t, func() { err = run(strings.Fields(tc.args)) })
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if os.Getenv("RESILIENT_GOLDEN_GEN") != "" {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Skip("golden generation mode: file rewritten, nothing asserted")
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("markov-analysis %s:\n%s\n-- want --\n%s", tc.args, got, want)
			}
		})
	}
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
