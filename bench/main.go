// Command bench is the repo benchmark: it builds the real opprenticed, runs
// it as a child process, drives the workloads of workload.go over loopback
// HTTP, checks the answers against an in-process reference, and reports
// the end-to-end metrics of an untraced run and the per-layer metrics of a
// traced one. See README.md.
//
//	bench/run.sh -seed 1                      every workload, untraced then traced
//	bench/run.sh -workload scrape_fleet -trace 0 -seed 3
//	bench/run.sh -compare a/result.json b/result.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// runRecord is one (workload, traced or not) run in result.json.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	WallS     float64                `json:"wall_s"`
	Phases    []phaseInfo            `json:"phases"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples are the readings of this run behind each estimated metric.
	Samples map[string][]float64 `json:"samples,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFile is result.json: the runs and where they came from.
type resultFile struct {
	Commit    string      `json:"commit"`
	GoVersion string      `json:"go_version"`
	NProc     int         `json:"nproc"`
	Seed      int64       `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Started   time.Time   `json:"started"`
	Runs      []runRecord `json:"runs"`
}

// liveDaemon is the child to kill when the harness is interrupted.
var liveDaemon atomic.Pointer[daemon]

// traceMode is the -trace flag: unset runs both, 0/false untraced only,
// 1/true traced only. It takes a value so that "--trace 0" parses.
type traceMode struct{ untraced, traced bool }

func (m *traceMode) String() string { return "" }
func (m *traceMode) Set(s string) error {
	switch s {
	case "0", "false":
		*m = traceMode{untraced: true}
	case "1", "true":
		*m = traceMode{traced: true}
	default:
		return errors.New("want 0 or 1")
	}
	return nil
}

func main() {
	mode := traceMode{untraced: true, traced: true}
	var (
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", nominalSeconds, "seconds of steady load the number of cycles is scaled to")
		workload = flag.String("workload", "", "run only this workload (default: all)")
		outDir   = flag.String("out", "", "directory for result.json, traces, logs and the daemon's data (default bench/out)")
		compare  = flag.Bool("compare", false, "compare two result.json files (baseline, candidate) against the bounds of BENCHMARK.json")
	)
	flag.Var(&mode, "trace", "0 = untraced run only, 1 = traced run only (default: both)")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare wants two result.json files"))
		}
		worse, err := compareFiles(filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 {
		fatal(errors.New("-seconds must be positive"))
	}
	run := shapes
	if *workload != "" {
		sh, ok := shapeByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		run = []shape{sh}
	}
	if *outDir == "" {
		*outDir = filepath.Join(root, "bench", "out")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}

	ctx := context.Background()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fatal(errors.New("interrupted"))
	}()

	bin, err := buildDaemon(ctx, root, *outDir)
	if err != nil {
		fatal(err)
	}
	out := resultFile{
		Commit:    commit(root),
		GoVersion: runtime.Version(),
		NProc:     runtime.NumCPU(),
		Seed:      *seed,
		Seconds:   *seconds,
		Started:   time.Now().UTC(),
	}
	for _, traced := range []bool{false, true} {
		if traced && !mode.traced || !traced && !mode.untraced {
			continue
		}
		for _, sh := range run {
			rec, err := runOne(ctx, sh, traced, *seed, *seconds, bin, *outDir)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", sh.name, err))
			}
			out.Runs = append(out.Runs, rec)
			printRun(rec)
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(*outDir, "result.json"), append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}

	failed := 0
	for _, r := range out.Runs {
		failed += r.Failed
	}
	if len(out.Runs) == 1 {
		// The driver's contract: one JSON object as the last line.
		r := out.Runs[0]
		line, _ := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics})
		fmt.Println(string(line))
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// runOne runs one workload once, traced or not, in its own directory.
func runOne(ctx context.Context, sh shape, traced bool, seed int64, seconds float64, bin, outDir string) (runRecord, error) {
	kind := "e2e"
	if traced {
		kind = "trace"
	}
	dir := filepath.Join(outDir, kind+"_"+sh.name)
	if err := os.RemoveAll(dir); err != nil {
		return runRecord{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return runRecord{}, err
	}
	fmt.Fprintf(os.Stderr, "bench: %s %s seed %d\n", kind, sh.name, seed)
	t0 := time.Now()
	var t tally
	scaled := sh.scaled(seconds / nominalSeconds)
	if traced {
		scaled = scaled.traced()
	}
	e2e, err := runLifecycle(ctx, scaled, seed, bin, dir, &t)
	if err != nil {
		return runRecord{}, err
	}
	rec := runRecord{Workload: sh.name, Traced: traced, Phases: e2e.phases, Metrics: make(map[string]metricValue), Samples: e2e.samples}
	specs, values := endToEnd, e2e.metrics
	if traced {
		tr := newTracer()
		values, err = runLayers(ctx, tr, scaled, seed, dir, e2e, &t)
		if err != nil {
			return runRecord{}, err
		}
		if err := tr.write(filepath.Join(outDir, "trace_"+sh.name+".json")); err != nil {
			return runRecord{}, err
		}
		specs = perLayer
	}
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			return runRecord{}, fmt.Errorf("metric %s was not measured", m.Name)
		}
		rec.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	rec.Attempted, rec.Failed, rec.Failures = t.attempted, t.failed, t.reasons
	rec.Correct = t.failed == 0
	rec.WallS = time.Since(t0).Seconds()
	return rec, nil
}

// printRun prints every metric of the run by name with its unit.
func printRun(r runRecord) {
	kind, specs := "end-to-end", endToEnd
	if r.Traced {
		kind, specs = "per-layer", perLayer
	}
	fmt.Printf("== %s  %s  wall %.1fs\n", r.Workload, kind, r.WallS)
	for _, p := range r.Phases {
		fmt.Printf("   phase %-8s %9d %-9s %7.2fs", p.Name, p.Ops, p.Unit, p.WallS)
		if p.Samples > 0 {
			fmt.Printf("  n=%d", p.Samples)
		}
		if p.Beyond > 0 {
			fmt.Printf(" (%d beyond p99)", p.Beyond)
		}
		fmt.Println()
	}
	for _, m := range specs {
		fmt.Printf("%-38s %16.4f %s\n", m.Name, r.Metrics[m.Name].Value, m.Unit)
	}
	fmt.Printf("%-38s %16.6f ratio  (%d of %d operations)\n", "failed_share",
		float64(r.Failed)/float64(max(1, r.Attempted)), r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Println("   FAILED:", f)
	}
}

// findRoot locates the repo root from the working directory: the directory
// itself when run through bench/run.sh, its parent under `go run .`.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "opprenticed", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("run from the repo root or from bench/: cmd/opprenticed not found")
}

// commit names the checkout's commit, when it is a git checkout.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	if d := liveDaemon.Load(); d != nil {
		d.kill()
	}
	os.Exit(2)
}
