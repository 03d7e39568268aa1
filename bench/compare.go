package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles applies each end-to-end metric's bound from BENCHMARK.json to
// the untraced runs of two result files and prints one row per (metric,
// workload): baseline, candidate, their ratio with its base, and a verdict.
// It reports whether any pair is worse than its bound allows.
func compareFiles(benchmarkPath, basePath, candPath string, w io.Writer) (anyWorse bool, err error) {
	b, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		return false, err
	}
	base, err := readResult(basePath)
	if err != nil {
		return false, err
	}
	cand, err := readResult(candPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-28s %-20s %14s %14s %22s %7s  %s\n",
		"metric", "workload", "baseline", "candidate", "candidate/baseline", "bound", "verdict")
	for _, wl := range b.Workloads {
		br, cr := untracedRun(base, wl.Name), untracedRun(cand, wl.Name)
		if br == nil || cr == nil {
			fmt.Fprintf(w, "%-28s %-20s missing from a result file\n", "*", wl.Name)
			anyWorse = true
			continue
		}
		for _, m := range b.EndToEnd {
			bv, cv := br.Metrics[m.Name].Value, cr.Metrics[m.Name].Value
			verdict := verdictOf(bv, cv, *m.Bound, m.Better == "higher")
			anyWorse = anyWorse || verdict == "worse"
			fmt.Fprintf(w, "%-28s %-20s %14.4f %14.4f %10.4f of %-9.4g %6.0f%%  %s\n",
				m.Name, wl.Name, bv, cv, cv/bv, bv, *m.Bound*100, verdict)
		}
		if cr.Failed > br.Failed {
			anyWorse = true
			fmt.Fprintf(w, "%-28s %-20s %14d %14d %22s %7s  worse\n", "failed", wl.Name, br.Failed, cr.Failed, "", "0%")
		}
	}
	return anyWorse, nil
}

// verdictOf judges a candidate against a baseline: worse or better when it
// moved by more than bound, as a share of the baseline, in that direction.
func verdictOf(base, cand, bound float64, higherIsBetter bool) string {
	change := (cand - base) / base // > 0 = grew
	if higherIsBetter {
		change = -change
	}
	switch { // change > 0 = got worse
	case change > bound:
		return "worse"
	case change < -bound:
		return "better"
	}
	return "ok"
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func untracedRun(r *resultFile, workload string) *runRecord {
	for i := range r.Runs {
		if r.Runs[i].Workload == workload && !r.Runs[i].Traced {
			return &r.Runs[i]
		}
	}
	return nil
}
