package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"resilient/internal/mc"
	"resilient/internal/msg"
	"resilient/internal/spawn"
)

// TestAllExperimentsQuick runs every experiment at reduced scale and checks
// the structural invariants each table asserts via notes.
func TestAllExperimentsQuick(t *testing.T) {
	p := QuickParams()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(p)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Errorf("%s table %s has no rows", e.ID, tb.ID)
				}
				for _, n := range tb.Notes {
					if strings.Contains(n, "UNEXPECTED") {
						t.Errorf("%s table %s flags: %s", e.ID, tb.ID, n)
					}
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Header) {
						t.Errorf("%s table %s: row width %d != header %d",
							e.ID, tb.ID, len(row), len(tb.Header))
					}
					for _, cell := range row {
						if strings.Contains(cell, "UNEXPECTED") || strings.Contains(cell, "VIOLATED") {
							t.Errorf("%s table %s: bad cell %q", e.ID, tb.ID, cell)
						}
					}
				}
				var buf bytes.Buffer
				tb.Format(&buf)
				if buf.Len() == 0 {
					t.Errorf("%s table %s renders empty", e.ID, tb.ID)
				}
				buf.Reset()
				tb.Markdown(&buf)
				if !strings.Contains(buf.String(), "|") {
					t.Errorf("%s table %s markdown missing pipes", e.ID, tb.ID)
				}
			}
		})
	}
}

// TestE3AllRowsPerfect asserts the resilience sweep's core claim: 100%
// termination, agreement and validity in every row.
func TestE3AllRowsPerfect(t *testing.T) {
	tables, err := E3(Params{Trials: 40, Seed: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		for col := 3; col <= 5; col++ {
			if row[col] != "100.0%" {
				t.Errorf("row %v: column %d = %s, want 100.0%%", row[:3], col, row[col])
			}
		}
	}
}

// TestE4AllRowsPerfect does the same for the Byzantine sweep.
func TestE4AllRowsPerfect(t *testing.T) {
	tables, err := E4(Params{Trials: 20, Seed: 5, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		for col := 3; col <= 5; col++ {
			if row[col] != "100.0%" {
				t.Errorf("row %v: column %d = %s, want 100.0%%", row[:3], col, row[col])
			}
		}
	}
}

// TestE4MixedCoalition pins the mixed row's coalition: each adversary plays
// the strategy its id selects. A spawner that let the first adversary's pick
// stand for the rest once made the row a homogeneous coalition.
func TestE4MixedCoalition(t *testing.T) {
	got := coalition(13, 4, 0)
	want := map[msg.ID]spawn.Strategy{9: spawn.Flipper, 10: spawn.Liar1, 11: spawn.DoubleEcho, 12: spawn.Balancer}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mixed coalition at n=13, k=4: %v, want %v", got, want)
	}
}

// TestE5Outcomes pins the lower-bound table's qualitative outcomes.
func TestE5Outcomes(t *testing.T) {
	tables, err := E5(Params{Trials: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 5 {
		t.Fatalf("%d rows, want 5", len(rows))
	}
	// Row 0: greedy at n=2k must disagree.
	if !strings.Contains(rows[0][4], "DISAGREEMENT") {
		t.Errorf("thm1 greedy row: %v", rows[0])
	}
	// Row 1: Figure 1 must keep agreement.
	if rows[1][5] != "true" {
		t.Errorf("fig1 row lost agreement: %v", rows[1])
	}
	// Row 2: control keeps agreement.
	if rows[2][5] != "true" {
		t.Errorf("control row: %v", rows[2])
	}
	// Row 3: greedy vs two-faced coalition must disagree.
	if !strings.Contains(rows[3][4], "DISAGREEMENT") {
		t.Errorf("thm3 greedy row: %v", rows[3])
	}
	// Row 4: Figure 2 keeps agreement.
	if rows[4][5] != "true" {
		t.Errorf("fig2 row: %v", rows[4])
	}
}

func TestByIDAndParams(t *testing.T) {
	if _, ok := ByID("e5"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("unknown id found")
	}
	p := Params{}
	if p.trials() <= 0 {
		t.Error("default trials not positive")
	}
	if p.seedFor(1, 2) == p.seedFor(2, 1) {
		t.Error("seed derivation collides trivially")
	}
}

func TestTableRenderingGolden(t *testing.T) {
	tb := &Table{
		ID:     "EX",
		Title:  "demo",
		Source: "nowhere",
		Header: []string{"a", "bb"},
		Notes:  []string{"a note"},
	}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")

	var text bytes.Buffer
	tb.Format(&text)
	wantText := "EX — demo\n" +
		"    (reproduces nowhere)\n" +
		"  a    bb\n" +
		"  --------\n" +
		"  1    2\n" +
		"  333  4\n" +
		"  note: a note\n\n"
	if text.String() != wantText {
		t.Errorf("Format:\n%q\nwant\n%q", text.String(), wantText)
	}

	var md bytes.Buffer
	tb.Markdown(&md)
	wantMD := "### EX — demo\n\n" +
		"*Reproduces nowhere.*\n\n" +
		"| a | bb |\n" +
		"| --- | --- |\n" +
		"| 1 | 2 |\n" +
		"| 333 | 4 |\n\n" +
		"- a note\n\n"
	if md.String() != wantMD {
		t.Errorf("Markdown:\n%q\nwant\n%q", md.String(), wantMD)
	}
}

func TestAddNoteFormats(t *testing.T) {
	tb := &Table{}
	tb.AddNote("x=%d", 7)
	if len(tb.Notes) != 1 || tb.Notes[0] != "x=7" {
		t.Errorf("notes %v", tb.Notes)
	}
}

// TestPhaseCellNamesStalls: a phase cell is the bare statistic when every
// trial terminated, and names the trials it covers when one stalled, so a
// mean over the shorter runs cannot pass as the whole ensemble's.
func TestPhaseCellNamesStalls(t *testing.T) {
	all := mc.TallyOf([]mc.Outcome{{Terminated: true, Phases: 2}, {Terminated: true, Phases: 4}})
	if got := phaseCell(all, ci2); got != ci2(all.Phases) {
		t.Errorf("all terminated: cell %q, want %q", got, ci2(all.Phases))
	}
	some := mc.TallyOf([]mc.Outcome{{Terminated: true, Phases: 2}, {Phases: 9}})
	if got, want := phaseCell(some, ci2), "2.00 ± 0.00 over 1/2"; got != want {
		t.Errorf("one stalled: cell %q, want %q", got, want)
	}
}
