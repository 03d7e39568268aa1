// Command opprenticectl is the CLI companion of opprenticed: it creates
// monitored series, uploads KPI data from CSV, labels windows, triggers
// training and reads alarms over the HTTP API.
//
// Usage:
//
//	opprenticectl -server http://localhost:8080 list
//	opprenticectl create pv -interval 60 -start 2015-01-05T00:00:00Z
//	opprenticectl ingest pv -csv pv.csv            # must continue the series; a labeled CSV also labels
//	opprenticectl label pv -window 120:135
//	opprenticectl train pv
//	opprenticectl status pv
//	opprenticectl ready                            # readiness probe; non-zero exit when degraded
//	opprenticectl alarms pv -since 2015-03-01T00:00:00Z
//	opprenticectl models list                      # series with published models
//	opprenticectl models inspect pv                # generation index + current
//	opprenticectl models rollback pv               # serve the previous generation
//	opprenticectl queries list                     # pending label queries, most uncertain first
//	opprenticectl queries answer pv -window 120:135 -anomalous
//
// The wal subcommand works on a data directory directly (no server needed):
//
//	opprenticectl wal cat -data-dir ./data                 # decode every segment frame
//	opprenticectl wal cat -data-dir ./data -series pv      # one series' records
//	opprenticectl wal cat -data-dir ./data -since 3        # skip segments below 3
//	opprenticectl wal migrate -data-dir ./data             # one-shot upgrade of JSON-lines <name>.wal files (daemon stopped)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"opprentice/internal/service"
	"opprentice/internal/timeseries"
	"opprentice/internal/tsdb"
)

func main() {
	server := flag.String("server", "http://localhost:8080", "opprenticed base URL")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	client := service.NewClient(*server, nil)
	ctx := context.Background()
	var err error
	switch args[0] {
	case "list":
		err = runList(ctx, client)
	case "create":
		err = runCreate(ctx, client, args[1:])
	case "ingest":
		err = runIngest(ctx, client, args[1:])
	case "label":
		err = runLabel(ctx, client, args[1:])
	case "train":
		err = runTrain(ctx, client, args[1:])
	case "status":
		err = runStatus(ctx, client, args[1:])
	case "ready":
		err = runReady(ctx, client)
	case "alarms":
		err = runAlarms(ctx, client, args[1:])
	case "models":
		err = runModels(ctx, client, args[1:])
	case "queries":
		err = runQueries(ctx, client, args[1:])
	case "wal":
		err = runWAL(args[1:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "opprenticectl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: opprenticectl [-server URL] <list|create|ingest|label|train|status|ready|alarms|models|queries|wal> [args]")
	fmt.Fprintln(os.Stderr, "       opprenticectl models <list|inspect|rollback> [series]")
	fmt.Fprintln(os.Stderr, "       opprenticectl queries <list [-series NAME]|answer SERIES -window S:E [-anomalous]>")
	fmt.Fprintln(os.Stderr, "       opprenticectl wal cat -data-dir DIR [-series NAME] [-since SEGMENT]")
	fmt.Fprintln(os.Stderr, "       opprenticectl wal migrate -data-dir DIR")
}

func needName(args []string) (string, []string, error) {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return "", nil, fmt.Errorf("series name required")
	}
	return args[0], args[1:], nil
}

func runList(ctx context.Context, c *service.Client) error {
	names, err := c.List(ctx)
	if err != nil {
		return err
	}
	for _, n := range names {
		fmt.Println(n)
	}
	return nil
}

func runCreate(ctx context.Context, c *service.Client, args []string) error {
	name, rest, err := needName(args)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("create", flag.ContinueOnError)
	interval := fs.Int("interval", 60, "sampling interval in seconds")
	start := fs.String("start", "", "timestamp of the first point (RFC 3339)")
	recall := fs.Float64("recall", 0.66, "preference: minimum recall")
	precision := fs.Float64("precision", 0.66, "preference: minimum precision")
	trees := fs.Int("trees", 60, "forest size")
	predictor := fs.String("cthld-predictor", "", "cThld predictor: ewma (default) or evt")
	evtQ := fs.Float64("evt-q", 0, "EVT target exceedance risk in (0,1); 0 auto-calibrates weekly")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	t, err := time.Parse(time.RFC3339, *start)
	if err != nil {
		return fmt.Errorf("-start: %w", err)
	}
	if err := c.Create(ctx, name, service.CreateRequest{
		IntervalSeconds: *interval,
		Start:           t,
		Recall:          *recall,
		Precision:       *precision,
		Trees:           *trees,
		CThldPredictor:  *predictor,
		EVTQ:            *evtQ,
	}); err != nil {
		return err
	}
	fmt.Println("created", name)
	return nil
}

func runIngest(ctx context.Context, c *service.Client, args []string) error {
	name, rest, err := needName(args)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("ingest", flag.ContinueOnError)
	csvPath := fs.String("csv", "", "CSV file (timestamp,value[,label])")
	batch := fs.Int("batch", 2000, "points per request")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if *csvPath == "" {
		return fmt.Errorf("-csv required")
	}
	f, err := os.Open(*csvPath)
	if err != nil {
		return err
	}
	series, labels, err := timeseries.ReadCSV(f, name)
	f.Close()
	if err != nil {
		return err
	}
	st, err := c.Status(ctx, name)
	if err != nil {
		return err
	}
	if time.Duration(st.IntervalSeconds)*time.Second != series.Interval {
		return fmt.Errorf("%s: the CSV's interval is %v, the series' %ds", *csvPath, series.Interval, st.IntervalSeconds)
	}
	var sent, alarms int
	pts := make([]service.Point, 0, *batch)
	flush := func() error {
		if len(pts) == 0 {
			return nil
		}
		resp, err := c.Append(ctx, name, pts)
		if err != nil {
			return err
		}
		sent += resp.Appended
		for _, v := range resp.Verdicts {
			if v.Anomalous {
				alarms++
			}
		}
		pts = pts[:0]
		return nil
	}
	for i, v := range series.Values {
		p := service.Point{Value: v}
		if len(pts) == 0 {
			// The engine refuses a batch whose first point is not at the
			// series' next slot, so a re-run or a CSV that does not continue
			// the series appends nothing.
			p.Timestamp = series.TimeAt(i)
		}
		pts = append(pts, p)
		if len(pts) == *batch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	fmt.Printf("ingested %d points (%d alarms)\n", sent, alarms)
	if labels != nil {
		var windows []service.LabelWindow
		for _, w := range labels.Windows() {
			windows = append(windows, service.LabelWindow{Start: st.Points + w.Start, End: st.Points + w.End, Anomalous: true})
		}
		if err := c.Label(ctx, name, windows); err != nil {
			return err
		}
		fmt.Printf("labeled %d windows from the CSV\n", len(windows))
	}
	return nil
}

func runLabel(ctx context.Context, c *service.Client, args []string) error {
	name, rest, err := needName(args)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("label", flag.ContinueOnError)
	window := fs.String("window", "", "index range start:end (half open)")
	clear := fs.Bool("clear", false, "clear instead of set")
	atype := fs.String("type", "", "anomaly type (spike|drop|ramp|level_shift|jitter); trains the type head")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	parts := strings.SplitN(*window, ":", 2)
	if len(parts) != 2 {
		return fmt.Errorf("-window must be start:end")
	}
	start, err1 := strconv.Atoi(parts[0])
	end, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		return fmt.Errorf("-window must be numeric start:end")
	}
	if *atype != "" && *clear {
		return fmt.Errorf("-type is meaningless with -clear")
	}
	return c.Label(ctx, name, []service.LabelWindow{{Start: start, End: end, Anomalous: !*clear, Type: *atype}})
}

func runTrain(ctx context.Context, c *service.Client, args []string) error {
	name, _, err := needName(args)
	if err != nil {
		return err
	}
	cthld, err := c.Train(ctx, name)
	if err != nil {
		return err
	}
	fmt.Printf("trained %s, cThld=%.3f\n", name, cthld)
	return nil
}

func runStatus(ctx context.Context, c *service.Client, args []string) error {
	name, _, err := needName(args)
	if err != nil {
		return err
	}
	st, err := c.Status(ctx, name)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d points (%ds interval), %d anomalous in %d windows, trained=%v",
		st.Name, st.Points, st.IntervalSeconds, st.AnomalousPoints, st.LabeledWindows, st.Trained)
	if st.Trained {
		fmt.Printf(" cThld=%.3f", st.CThld)
	}
	if st.CThldPredictor != "" && st.CThldPredictor != "ewma" {
		fmt.Printf(" predictor=%s", st.CThldPredictor)
	}
	if st.TypedModel {
		fmt.Printf(" typed-model")
	}
	fmt.Println()
	return nil
}

// runReady prints the readiness probe. A not-ready service answers 503 but
// still serves the readiness body, so the degraded/quarantined names are
// printed before the non-zero exit.
func runReady(ctx context.Context, c *service.Client) error {
	r, err := c.Ready(ctx)
	if err != nil {
		var apiErr *service.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != 503 {
			return err
		}
	}
	fmt.Printf("ready: %v\n", r.Ready)
	for _, n := range r.Degraded {
		fmt.Printf("degraded: %s\n", n)
	}
	for _, n := range r.Quarantined {
		fmt.Printf("quarantined: %s\n", n)
	}
	if !r.Ready {
		return fmt.Errorf("service is not ready")
	}
	return nil
}

func runModels(ctx context.Context, c *service.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("models: subcommand required (list|inspect|rollback)")
	}
	switch args[0] {
	case "list":
		names, err := c.Models(ctx)
		if err != nil {
			return err
		}
		for _, n := range names {
			fmt.Println(n)
		}
		return nil
	case "inspect":
		name, _, err := needName(args[1:])
		if err != nil {
			return err
		}
		man, err := c.ModelManifest(ctx, name)
		if err != nil {
			return err
		}
		printManifest(man)
		return nil
	case "rollback":
		name, _, err := needName(args[1:])
		if err != nil {
			return err
		}
		man, err := c.RollbackModel(ctx, name)
		if err != nil {
			return err
		}
		fmt.Printf("rolled %s back to generation %d\n", man.Series, man.Current)
		printManifest(man)
		return nil
	default:
		return fmt.Errorf("models: unknown subcommand %q (want list|inspect|rollback)", args[0])
	}
}

// runQueries surfaces and resolves the active-learning label queue. "list"
// prints pending queries most-uncertain-first; "answer" turns one into a
// durable label action, consuming it.
func runQueries(ctx context.Context, c *service.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("queries: subcommand required (list|answer)")
	}
	switch args[0] {
	case "list":
		fs := flag.NewFlagSet("queries list", flag.ContinueOnError)
		series := fs.String("series", "", "only this series' queries")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		qs, err := c.Queries(ctx, *series)
		if err != nil {
			return err
		}
		for _, q := range qs {
			fmt.Printf("%s %d:%d  score=%.3f  points=%d  %s..%s\n",
				q.Series, q.Start, q.End, q.Score, q.Points,
				q.StartTime.Format(time.RFC3339), q.EndTime.Format(time.RFC3339))
		}
		fmt.Printf("%d pending queries\n", len(qs))
		return nil
	case "answer":
		name, rest, err := needName(args[1:])
		if err != nil {
			return err
		}
		fs := flag.NewFlagSet("queries answer", flag.ContinueOnError)
		window := fs.String("window", "", "query window start:end (half open), as printed by queries list")
		anomalous := fs.Bool("anomalous", false, "label the window anomalous (default: normal)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		parts := strings.SplitN(*window, ":", 2)
		if len(parts) != 2 {
			return fmt.Errorf("-window must be start:end")
		}
		start, err1 := strconv.Atoi(parts[0])
		end, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("-window must be numeric start:end")
		}
		if err := c.AnswerQuery(ctx, name, start, end, *anomalous); err != nil {
			return err
		}
		fmt.Printf("answered %s %d:%d anomalous=%v\n", name, start, end, *anomalous)
		return nil
	default:
		return fmt.Errorf("queries: unknown subcommand %q (want list|answer)", args[0])
	}
}

func printManifest(man service.ModelManifest) {
	fmt.Printf("%s: %d generations, current=%d\n", man.Series, len(man.Generations), man.Current)
	for _, g := range man.Generations {
		marker := " "
		if g.Gen == man.Current {
			marker = "*"
		}
		fmt.Printf("%s gen %d  trained %s  points=%d  cthld=%.3f  %d bytes  crc=%08x  fingerprint=%016x  kinds=%s\n",
			marker, g.Gen, g.TrainedAt.Format(time.RFC3339), g.Points, g.CThld, g.Size, g.CRC, g.Fingerprint,
			strings.Join(g.Kinds(), ","))
	}
}

// runWAL is the offline data-directory toolbox. cat decodes the segmented
// WAL to stdout via tsdb.Dump and never mutates the directory, so it is safe
// to point at a live opprenticed's data dir; migrate (walmigrate.go) writes
// to it and needs the daemon stopped.
func runWAL(args []string) error {
	if len(args) == 0 || (args[0] != "cat" && args[0] != "migrate") {
		return fmt.Errorf("wal: subcommand required (cat|migrate)")
	}
	fs := flag.NewFlagSet("wal "+args[0], flag.ContinueOnError)
	dataDir := fs.String("data-dir", "", "data directory holding the shard-*/ segments")
	var opts tsdb.DumpOptions
	if args[0] == "cat" {
		fs.StringVar(&opts.Series, "series", "", "only this series' records")
		fs.Uint64Var(&opts.Since, "since", 0, "skip segments numbered below this")
	}
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *dataDir == "" {
		return fmt.Errorf("wal %s: -data-dir required", args[0])
	}
	if args[0] == "migrate" {
		return walMigrate(os.Stdout, *dataDir)
	}
	return walCat(os.Stdout, *dataDir, opts)
}

// walCat renders the segment decode plus a trailing stats line onto w.
func walCat(w io.Writer, dataDir string, opts tsdb.DumpOptions) error {
	stats, err := tsdb.Dump(dataDir, w, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d segments, %d frames (%d corrupt), %d records\n",
		stats.Segments, stats.Frames, stats.CorruptFrames, stats.Records)
	return nil
}

func runAlarms(ctx context.Context, c *service.Client, args []string) error {
	name, rest, err := needName(args)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("alarms", flag.ContinueOnError)
	since := fs.String("since", "", "only alarms after this RFC 3339 time")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	var t time.Time
	if *since != "" {
		t, err = time.Parse(time.RFC3339, *since)
		if err != nil {
			return fmt.Errorf("-since: %w", err)
		}
	}
	alarms, err := c.Alarms(ctx, name, t)
	if err != nil {
		return err
	}
	for _, a := range alarms {
		fmt.Printf("%s value=%.4g probability=%.2f cthld=%.2f", a.Time.Format(time.RFC3339), a.Value, a.Probability, a.CThld)
		if a.Type != "" {
			fmt.Printf(" type=%s", a.Type)
		}
		fmt.Println()
	}
	fmt.Printf("%d alarms\n", len(alarms))
	return nil
}
