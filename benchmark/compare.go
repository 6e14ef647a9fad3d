package main

import (
	"fmt"
	"io"
)

// comparison is one end-to-end metric × workload judged between a base
// set of runs (A) and a candidate set (B).
type comparison struct {
	Workload, Metric string
	Unit             string
	A, B             float64 // medians
	NA, NB           int
	Ratio            float64 // B ÷ A; the base is A's median
	Bound            float64
	SpreadA, SpreadB float64 // quartile distance ÷ median
	Verdict          string  // "ok", "worse" or "unresolved"
}

// judge applies the benchmark's own rule: B is worse when its median is
// worse than A's by more than the bound (as a share of A's median); where
// either side's run-to-run spread is wider than the bound the metric is
// unresolved, not unchanged — unless every run of B reads better than
// every run of A.
func judge(m metricSpec, as, bs []float64) comparison {
	c := comparison{
		Metric: m.Name, Unit: m.Unit, Bound: m.Bound,
		A: median(as), B: median(bs), NA: len(as), NB: len(bs),
		SpreadA: iqrShare(as), SpreadB: iqrShare(bs),
	}
	c.Ratio = c.B / c.A
	worsening := (c.B - c.A) / c.A
	better := func(b, a float64) bool { return b < a }
	if m.Better == "higher" {
		worsening = -worsening
		better = func(b, a float64) bool { return b > a }
	}
	allBetter := true
	for _, b := range bs {
		for _, a := range as {
			allBetter = allBetter && better(b, a)
		}
	}
	switch {
	case worsening > m.Bound:
		c.Verdict = "worse"
	case max(c.SpreadA, c.SpreadB) > m.Bound && !allBetter:
		c.Verdict = "unresolved"
	default:
		c.Verdict = "ok"
	}
	return c
}

// compareRuns judges every end-to-end metric × workload present on both
// sides, in spec order.
func compareRuns(a, b []runResult) []comparison {
	collect := func(rs []runResult, wl, metric string) (out []float64) {
		for _, r := range rs {
			if v, ok := r.Metrics[metric]; ok && r.Trace == 0 && r.Workload == wl {
				out = append(out, v.Value)
			}
		}
		return out
	}
	var out []comparison
	for _, wl := range workloads {
		for _, m := range endToEnd {
			as, bs := collect(a, wl.Name, m.Name), collect(b, wl.Name, m.Name)
			if len(as) == 0 || len(bs) == 0 {
				continue
			}
			c := judge(m, as, bs)
			c.Workload = wl.Name
			out = append(out, c)
		}
	}
	return out
}

// exactMismatches lists every exact count that differs between traced
// runs of one workload and seed, across both files.
func exactMismatches(runs []runResult) (out []string) {
	type id struct {
		wl     string
		seed   int64
		metric string
	}
	first := map[id]float64{}
	reported := map[id]bool{}
	for _, r := range runs {
		if r.Trace != 1 {
			continue
		}
		for _, name := range exactCounts {
			v, ok := r.Metrics[name]
			if !ok {
				continue
			}
			k := id{r.Workload, r.Host.Seed, name}
			if want, seen := first[k]; !seen {
				first[k] = v.Value
			} else if want != v.Value && !reported[k] {
				reported[k] = true
				out = append(out, fmt.Sprintf("%s seed %d: %s = %v and %v", r.Workload, r.Host.Seed, name, want, v.Value))
			}
		}
	}
	return out
}

// runCompare prints the table and reports whether anything is worse or an
// exact count moved.
func runCompare(w io.Writer, pathA, pathB string) (bad bool, err error) {
	a, err := readJSONL(pathA)
	if err != nil {
		return false, err
	}
	b, err := readJSONL(pathB)
	if err != nil {
		return false, err
	}
	cs := compareRuns(a, b)
	if len(cs) == 0 {
		return false, fmt.Errorf("no end-to-end metric × workload is present in both %s and %s", pathA, pathB)
	}
	fmt.Fprintf(w, "A = %s (base)   B = %s\n", pathA, pathB)
	fmt.Fprintf(w, "%-11s %-8s %12s %12s %-10s %-16s %6s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "unit", "B/A (base A)", "bound", "spreadA", "spreadB", "verdict")
	for _, c := range cs {
		fmt.Fprintf(w, "%-11s %-8s %12.4f %12.4f %-10s %-16s %5.0f%% %7.1f%% %7.1f%%  %s\n",
			c.Workload, c.Metric, c.A, c.B, c.Unit,
			fmt.Sprintf("%.4f (n=%d,%d)", c.Ratio, c.NA, c.NB),
			c.Bound*100, c.SpreadA*100, c.SpreadB*100, c.Verdict)
		bad = bad || c.Verdict == "worse"
	}
	mism := exactMismatches(append(a, b...))
	for _, m := range mism {
		fmt.Fprintf(w, "exact count differs: %s\n", m)
	}
	return bad || len(mism) > 0, nil
}
