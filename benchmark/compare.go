package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// byWorkloadMetric groups repeated runs: workload → metric → values.
func byWorkloadMetric(runs []*runResult) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v)
		}
	}
	return out
}

// printSpreads prints, after -repeat N, each metric's median, quartiles
// and spreads. An end-to-end metric whose interquartile share exceeds a
// third of its bound is flagged: it cannot resolve a regression of the
// size the bound claims to catch.
func printSpreads(runs []*runResult) {
	groups := byWorkloadMetric(runs)
	for _, w := range workloads {
		fmt.Printf("\n== %s: spread over %d executions\n", w.Name, len(groups[w.Name]["qps"]))
		fmt.Printf("  %-34s %12s %12s %12s %8s %8s\n", "metric", "median", "q1", "q3", "iqr/med", "half")
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, m := range defs {
				xs := groups[w.Name][m.Name]
				if len(xs) == 0 {
					continue
				}
				sp := summarize(xs)
				flag := ""
				if w.Gating && m.Bound > 0 && sp.IQRShare > m.Bound/3 {
					flag = fmt.Sprintf("  > bound/3 (%.3f)", m.Bound/3)
				}
				fmt.Printf("  %-34s %12.4f %12.4f %12.4f %8.4f %8.4f%s\n",
					m.Name, sp.Median, sp.Q1, sp.Q3, sp.IQRShare, sp.HalfSpread, flag)
			}
		}
	}
}

// worsening is how much worse b is than a as a share of a, signed so
// that positive is worse whichever direction is better.
func worsening(m metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles takes the median of every end-to-end metric per workload
// in each file and fails when the second file is worse than the first
// by more than the metric's bound, or has failed operations.
func compareFiles(pathA, pathB string) error {
	load := func(path string) (map[string]map[string][]float64, int, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, 0, err
		}
		var f resultFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", path, err)
		}
		failed := 0
		for _, r := range f.Runs {
			failed += r.Failed
		}
		return byWorkloadMetric(f.Runs), failed, nil
	}
	a, _, err := load(pathA)
	if err != nil {
		return err
	}
	b, failedB, err := load(pathB)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Printf("%-14s %-22s %12s %12s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, w := range workloads {
		for _, m := range endToEnd {
			xa, xb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Printf("%-14s %-22s missing from one side\n", w.Name, m.Name)
				if w.Gating {
					bad++
				}
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := worsening(m, ma, mb)
			verdict := ""
			switch {
			case worse > m.Bound && w.Gating:
				verdict = "  REGRESSION"
				bad++
			case worse > m.Bound:
				verdict = "  (not gating)"
			}
			fmt.Printf("%-14s %-22s %12.4f %12.4f %+9.4f %7.3f%s\n", w.Name, m.Name, ma, mb, worse, m.Bound, verdict)
		}
	}
	if failedB > 0 {
		return fmt.Errorf("%s has %d failed operations", pathB, failedB)
	}
	if bad > 0 {
		return fmt.Errorf("%d end-to-end metrics outside their bound", bad)
	}
	return nil
}
