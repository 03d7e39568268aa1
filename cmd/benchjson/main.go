// Command benchjson converts `go test -bench` output into a small JSON
// artifact and enforces the speedup regression gates.
//
// Two modes, usually chained by the Makefile:
//
//	go test -bench 'RetrainColdVsIncremental|ForestProbFlat' ... | tee bench_retrain.txt
//	benchjson -in bench_retrain.txt -out BENCH_retrain.json
//	benchjson -in bench_retrain.txt -check BENCH_baseline.json
//	go test -bench 'RestoreWarmVsCold' ... | tee bench_restore.txt
//	benchjson -in bench_restore.txt -out BENCH_restore.json
//	benchjson -in bench_restore.txt -check BENCH_baseline.json
//
// The regression gates compare SPEEDUP RATIOS against the committed baseline
// — ratios, not absolute ns/op, so the checks are stable across machines:
//
//   - BenchmarkRetrainColdVsIncremental cold ÷ incremental must stay within
//     -tolerance of the baseline and above the -min-speedup floor, and the
//     flattened forest.Prob hot path must stay allocation-free.
//   - BenchmarkRestoreWarmVsCold cold ÷ warm (the restart speedup the model
//     registry buys) must stay within -tolerance of the baseline and above
//     the -min-restore-speedup floor.
//   - BenchmarkIngestWAL/bulk pts/s must stay above the -min-ingest-pps
//     floor, and the steady-state walB/pt (on-disk segment bytes per
//     appended point) under the -max-wal-bytes ceiling.
//   - The serving SLO from cmd/loadgen (BENCH_serve.json): the open-loop
//     p99 verdict latency of BenchmarkServe/points must stay under
//     -max-serve-p99-ns, and the streaming-ingest trained-scoring
//     throughput of BenchmarkServe/ingest above -min-serve-pps. These are
//     absolute, machine-dependent numbers: the floors are set with ~4x
//     headroom from the operating point documented in EXPERIMENTS.md.
//
// Each gate applies only when its benchmark (pair) is present in the input,
// so the retrain, restore, ingest and serve runs can be checked separately;
// input containing none of them fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark's parsed measurement.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int64   `json:"iterations"`
	// Metrics holds custom b.ReportMetric pairs by unit (e.g. "pts/s").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the JSON artifact (BENCH_retrain.json / BENCH_baseline.json).
type Report struct {
	Generated string `json:"generated,omitempty"`
	// Benchmarks maps the benchmark name (without the Benchmark prefix and
	// GOMAXPROCS suffix) to its measurement.
	Benchmarks map[string]Result `json:"benchmarks"`
	// RetrainSpeedup is cold ns/op ÷ incremental ns/op of
	// BenchmarkRetrainColdVsIncremental — the machine-independent number the
	// regression gate compares.
	RetrainSpeedup float64 `json:"retrain_speedup,omitempty"`
	// RestoreSpeedup is cold ns/op ÷ warm ns/op of
	// BenchmarkRestoreWarmVsCold — the restart speedup the model registry's
	// warm path buys over cold retraining.
	RestoreSpeedup float64 `json:"restore_speedup,omitempty"`
	// IngestPointsPerSec is the pts/s metric of BenchmarkIngestWAL/bulk —
	// the raw segmented-WAL ingest throughput (machine-dependent; gated by
	// an absolute floor only).
	IngestPointsPerSec float64 `json:"ingest_points_per_sec,omitempty"`
	// WALBytesPerPoint is the steady-state on-disk bytes per appended point
	// of the segmented WAL, from BenchmarkIngestWAL/steady.
	WALBytesPerPoint float64 `json:"wal_bytes_per_point,omitempty"`
	// ServeP50Ns/P99Ns/P999Ns are the open-loop verdict latency percentiles
	// of BenchmarkServe/points from cmd/loadgen, measured from each point's
	// scheduled arrival (coordinated-omission corrected).
	ServeP50Ns  float64 `json:"serve_p50_ns,omitempty"`
	ServeP99Ns  float64 `json:"serve_p99_ns,omitempty"`
	ServeP999Ns float64 `json:"serve_p999_ns,omitempty"`
	// ServePointsPerSec is the delivered scrape-path throughput and
	// ServeShedPct the percentage of open-loop arrivals shed (429) or
	// skipped while the generator was behind schedule.
	ServePointsPerSec float64 `json:"serve_points_per_sec,omitempty"`
	ServeShedPct      float64 `json:"serve_shed_pct,omitempty"`
	// ServeIngestPointsPerSec is BenchmarkServe/ingest — end-to-end trained
	// scoring throughput over the streaming /v1/ingest path.
	ServeIngestPointsPerSec float64 `json:"serve_ingest_points_per_sec,omitempty"`
}

const (
	coldName         = "RetrainColdVsIncremental/cold"
	incName          = "RetrainColdVsIncremental/incremental"
	probName         = "ForestProbFlat"
	restoreColdName  = "RestoreWarmVsCold/cold"
	restoreWarmName  = "RestoreWarmVsCold/warm"
	ingestBulkName   = "IngestWAL/bulk"
	ingestSteadyName = "IngestWAL/steady"
	servePointsName  = "Serve/points"
	serveIngestName  = "Serve/ingest"
)

// parseLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkIngestWAL/bulk-8   5954   209310 ns/op   1223069 pts/s   5445 B/op   25 allocs/op
//
// The tail after the iteration count is a sequence of "value unit" pairs:
// the standard ns/op, B/op and allocs/op land in dedicated fields, custom
// b.ReportMetric units in Metrics.
func parseLine(line string) (string, Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", Result{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // GOMAXPROCS suffix
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", Result{}, false
	}
	r := Result{Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			break
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = val
		case "B/op":
			r.BytesPerOp = int64(val)
		case "allocs/op":
			r.AllocsPerOp = int64(val)
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = val
		}
	}
	if r.NsPerOp == 0 {
		return "", Result{}, false
	}
	return name, r, true
}

func parse(data []byte) (*Report, error) {
	rep := &Report{Benchmarks: map[string]Result{}}
	for _, line := range strings.Split(string(data), "\n") {
		if name, r, ok := parseLine(strings.TrimSpace(line)); ok {
			rep.Benchmarks[name] = r
		}
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	cold, okC := rep.Benchmarks[coldName]
	inc, okI := rep.Benchmarks[incName]
	if okC && okI && inc.NsPerOp > 0 {
		rep.RetrainSpeedup = cold.NsPerOp / inc.NsPerOp
	}
	rcold, okRC := rep.Benchmarks[restoreColdName]
	rwarm, okRW := rep.Benchmarks[restoreWarmName]
	if okRC && okRW && rwarm.NsPerOp > 0 {
		rep.RestoreSpeedup = rcold.NsPerOp / rwarm.NsPerOp
	}
	rep.IngestPointsPerSec = rep.Benchmarks[ingestBulkName].Metrics["pts/s"]
	rep.WALBytesPerPoint = rep.Benchmarks[ingestSteadyName].Metrics["walB/pt"]
	serve := rep.Benchmarks[servePointsName].Metrics
	rep.ServeP50Ns = serve["p50-ns"]
	rep.ServeP99Ns = serve["p99-ns"]
	rep.ServeP999Ns = serve["p999-ns"]
	rep.ServePointsPerSec = serve["pts/s"]
	rep.ServeShedPct = serve["shed-pct"]
	rep.ServeIngestPointsPerSec = rep.Benchmarks[serveIngestName].Metrics["pts/s"]
	return rep, nil
}

func main() {
	var (
		in         = flag.String("in", "", "benchmark output file (default stdin)")
		out        = flag.String("out", "", "write parsed results as JSON to this file")
		check      = flag.String("check", "", "baseline JSON to compare the retrain speedup against")
		tolerance  = flag.Float64("tolerance", 0.10, "allowed fractional speedup regression vs the baseline")
		minSpeedup = flag.Float64("min-speedup", 5.0, "absolute cold/incremental retrain speedup floor (0 disables)")
		minRestore = flag.Float64("min-restore-speedup", 3.0, "absolute cold/warm restore speedup floor (0 disables)")
		minIngest  = flag.Float64("min-ingest-pps", 1e6, "absolute bulk WAL ingest points/sec floor (0 disables)")
		maxWALB    = flag.Float64("max-wal-bytes", 8.6, "steady-state WAL bytes-per-point ceiling: a fifth of the 43 B/pt the JSON-lines log it replaced wrote for the same points (0 disables)")
		maxServe99 = flag.Float64("max-serve-p99-ns", 20e6, "open-loop serving p99 verdict latency ceiling in ns from cmd/loadgen (0 disables)")
		minServe   = flag.Float64("min-serve-pps", 8000, "streaming-ingest trained scoring points/sec floor from cmd/loadgen (0 disables)")
	)
	flag.Parse()

	var (
		data []byte
		err  error
	)
	if *in == "" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(*in)
	}
	if err != nil {
		fatal("read input: %v", err)
	}
	rep, err := parse(data)
	if err != nil {
		fatal("parse: %v", err)
	}

	if *out != "" {
		rep.Generated = time.Now().UTC().Format(time.RFC3339)
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal("marshal: %v", err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fatal("write %s: %v", *out, err)
		}
		fmt.Printf("benchjson: wrote %s (retrain %.2fx, restore %.2fx, ingest %.0f pts/s, wal %.2f B/pt, serve p99 %.1fms / %.0f pts/s)\n",
			*out, rep.RetrainSpeedup, rep.RestoreSpeedup, rep.IngestPointsPerSec, rep.WALBytesPerPoint,
			rep.ServeP99Ns/1e6, rep.ServeIngestPointsPerSec)
	}

	if *check == "" {
		return
	}
	baseBuf, err := os.ReadFile(*check)
	if err != nil {
		fatal("read baseline: %v", err)
	}
	var base Report
	if err := json.Unmarshal(baseBuf, &base); err != nil {
		fatal("parse baseline %s: %v", *check, err)
	}

	failed := false
	if rep.RetrainSpeedup == 0 && rep.RestoreSpeedup == 0 && rep.IngestPointsPerSec == 0 && rep.ServeP99Ns == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: FAIL: input has no RetrainColdVsIncremental or RestoreWarmVsCold pair and no IngestWAL or Serve run")
		failed = true
	}
	if rep.RetrainSpeedup > 0 {
		floor := base.RetrainSpeedup * (1 - *tolerance)
		if base.RetrainSpeedup > 0 && rep.RetrainSpeedup < floor {
			fmt.Fprintf(os.Stderr, "benchjson: FAIL: retrain speedup %.2fx regressed >%.0f%% vs baseline %.2fx (floor %.2fx)\n",
				rep.RetrainSpeedup, *tolerance*100, base.RetrainSpeedup, floor)
			failed = true
		}
		if *minSpeedup > 0 && rep.RetrainSpeedup < *minSpeedup {
			fmt.Fprintf(os.Stderr, "benchjson: FAIL: retrain speedup %.2fx below the absolute %.1fx floor\n",
				rep.RetrainSpeedup, *minSpeedup)
			failed = true
		}
	}
	if rep.RestoreSpeedup > 0 {
		floor := base.RestoreSpeedup * (1 - *tolerance)
		if base.RestoreSpeedup > 0 && rep.RestoreSpeedup < floor {
			fmt.Fprintf(os.Stderr, "benchjson: FAIL: restore speedup %.2fx regressed >%.0f%% vs baseline %.2fx (floor %.2fx)\n",
				rep.RestoreSpeedup, *tolerance*100, base.RestoreSpeedup, floor)
			failed = true
		}
		if *minRestore > 0 && rep.RestoreSpeedup < *minRestore {
			fmt.Fprintf(os.Stderr, "benchjson: FAIL: warm-restore speedup %.2fx below the absolute %.1fx floor\n",
				rep.RestoreSpeedup, *minRestore)
			failed = true
		}
	}
	if prob, ok := rep.Benchmarks[probName]; ok && prob.AllocsPerOp != 0 {
		fmt.Fprintf(os.Stderr, "benchjson: FAIL: forest.Prob allocates %d objects/op, want 0\n", prob.AllocsPerOp)
		failed = true
	}
	if rep.IngestPointsPerSec > 0 && *minIngest > 0 && rep.IngestPointsPerSec < *minIngest {
		fmt.Fprintf(os.Stderr, "benchjson: FAIL: bulk WAL ingest %.0f pts/s below the %.0f pts/s floor\n",
			rep.IngestPointsPerSec, *minIngest)
		failed = true
	}
	if rep.WALBytesPerPoint > 0 && *maxWALB > 0 && rep.WALBytesPerPoint > *maxWALB {
		fmt.Fprintf(os.Stderr, "benchjson: FAIL: steady-state WAL cost %.2f B/pt over the %.1f B/pt ceiling\n",
			rep.WALBytesPerPoint, *maxWALB)
		failed = true
	}
	if rep.ServeP99Ns > 0 && *maxServe99 > 0 && rep.ServeP99Ns > *maxServe99 {
		fmt.Fprintf(os.Stderr, "benchjson: FAIL: serving p99 verdict latency %.1fms over the %.1fms ceiling\n",
			rep.ServeP99Ns/1e6, *maxServe99/1e6)
		failed = true
	}
	if rep.ServeIngestPointsPerSec > 0 && *minServe > 0 && rep.ServeIngestPointsPerSec < *minServe {
		fmt.Fprintf(os.Stderr, "benchjson: FAIL: streaming trained scoring %.0f pts/s below the %.0f pts/s floor\n",
			rep.ServeIngestPointsPerSec, *minServe)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	var oks []string
	if rep.RetrainSpeedup > 0 {
		oks = append(oks, fmt.Sprintf("retrain speedup %.2fx (baseline %.2fx)", rep.RetrainSpeedup, base.RetrainSpeedup))
	}
	if rep.RestoreSpeedup > 0 {
		oks = append(oks, fmt.Sprintf("restore speedup %.2fx (baseline %.2fx)", rep.RestoreSpeedup, base.RestoreSpeedup))
	}
	if rep.IngestPointsPerSec > 0 {
		oks = append(oks, fmt.Sprintf("bulk ingest %.0f pts/s (floor %.0f)", rep.IngestPointsPerSec, *minIngest))
	}
	if rep.WALBytesPerPoint > 0 {
		oks = append(oks, fmt.Sprintf("wal %.2f B/pt (ceiling %.1f)", rep.WALBytesPerPoint, *maxWALB))
	}
	if rep.ServeP99Ns > 0 {
		oks = append(oks, fmt.Sprintf("serve p99 %.1fms (ceiling %.1fms)", rep.ServeP99Ns/1e6, *maxServe99/1e6))
	}
	if rep.ServeIngestPointsPerSec > 0 {
		oks = append(oks, fmt.Sprintf("serve ingest %.0f pts/s (floor %.0f)", rep.ServeIngestPointsPerSec, *minServe))
	}
	fmt.Printf("benchjson: OK: %s (tolerance %.0f%%)\n", strings.Join(oks, ", "), *tolerance*100)
}

// fatal prints an error and exits 2 (distinct from the regression gate's 1).
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(2)
}
