package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges one (workload, metric) pair of a base run a and a changed
// run b against the metric's bound. The median decides when the run-to-run
// spread is inside the bound; when it is wider, only runs that do not overlap
// at all decide, and anything else is unresolved rather than unchanged.
func verdict(a, b metricStats, higherIsBetter bool, bound float64) string {
	worse := (b.Median - a.Median) / a.Median
	sa, sb := sorted(a.Values), sorted(b.Values)
	bAllAbove := sb[0] > sa[len(sa)-1]
	bAllBelow := sb[len(sb)-1] < sa[0]
	bAllWorse, bAllBetter := bAllAbove, bAllBelow
	if higherIsBetter {
		worse = -worse
		bAllWorse, bAllBetter = bAllBelow, bAllAbove
	}
	spread := (a.Q3 - a.Q1) / a.Median
	if s := (b.Q3 - b.Q1) / b.Median; s > spread {
		spread = s
	}
	switch {
	case worse > bound && (spread <= bound || bAllWorse):
		return "regressed"
	case spread <= bound || bAllBetter:
		return "ok"
	}
	return "unresolved"
}

// runCompare prints one row per (workload, end-to-end metric) of two
// results.json files and fails on a regression, a failed op or a count that
// should repeat exactly and did not.
func runCompare(c config, args []string, w io.Writer) error {
	if len(args) != 2 {
		return errors.New("-compare takes two results.json paths: base, then changed")
	}
	var a, b results
	if err := readJSON(args[0], &a); err != nil {
		return err
	}
	if err := readJSON(args[1], &b); err != nil {
		return err
	}
	var bm benchmarkFile
	if err := readJSON(c.benchmark, &bm); err != nil {
		return err
	}
	bad := 0
	fmt.Fprintf(w, "%-18s %-22s %14s %-27s %14s %-27s %8s  %s\n",
		"workload", "metric", "base", "[q1, q3]", "changed", "[q1, q3]", "ratio", "verdict")
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			return fmt.Errorf("workload %s missing from a results file", wl.name)
		}
		for _, m := range bm.EndToEnd {
			sa, sb := wa.Metrics[m.Name], wb.Metrics[m.Name]
			if sa.N == 0 || sb.N == 0 {
				return fmt.Errorf("%s %s missing from a results file", wl.name, m.Name)
			}
			v := verdict(sa, sb, m.Better == "higher", m.Bound)
			if v == "regressed" {
				bad++
			}
			fmt.Fprintf(w, "%-18s %-22s %14.6g [%-12.6g %-12.6g] %14.6g [%-12.6g %-12.6g] %8.4f  %s (bound %.2f, over base %.6g %s)\n",
				wl.name, m.Name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, sb.Median/sa.Median, v, m.Bound, sa.Median, m.Unit)
		}
		if wb.Failed > 0 {
			bad++
			fmt.Fprintf(w, "%-18s ops_failed %d of %d: regressed (a failed op misses every bound)\n", wl.name, wb.Failed, wb.Attempted)
		}
		switch {
		case a.Seed != b.Seed || a.Scale != b.Scale:
			fmt.Fprintf(w, "%-18s counts not compared: seed %d scale %v against seed %d scale %v\n", wl.name, a.Seed, a.Scale, b.Seed, b.Scale)
		case !sameCounts(wa.Counts, wb.Counts):
			bad++
			fmt.Fprintf(w, "%-18s counts differ: %v against %v\n", wl.name, wa.Counts, wb.Counts)
		default:
			fmt.Fprintf(w, "%-18s counts identical: %v\n", wl.name, wa.Counts)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regressed rows or count mismatches", bad)
	}
	return nil
}
