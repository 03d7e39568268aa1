package main

import (
	"encoding/json"
	"fmt"
	"os"

	"opprentice/internal/detectors"
)

// metricSpec names one metric the harness emits. The names, units and
// directions here must match BENCHMARK.json, which also holds the bounds; a
// unit test keeps the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Higher bool // true when a higher value is better
}

// endToEnd lists the metrics every untraced run reports. The share of failed
// operations is not among them because a metric of the benchmark may never
// be 0: it is the run's failed ÷ attempted, reported beside the metrics.
var endToEnd = []metricSpec{
	{"setup_s", "s", false},
	{"stream_pts_per_s", "1/s", true},
	{"stream_cpu_us_per_pt", "us", false},
	{"scrape_req_per_s", "1/s", true},
	{"scrape_p50_us", "us", false},
	{"scrape_p99_us", "us", false},
	{"rss_mb_per_series", "MB", false},
	{"backfill_pts_per_s", "1/s", true},
	{"wal_bytes_per_pt", "B", false},
	{"train_cold_ms", "ms", false},
	{"retrain_ms", "ms", false},
	{"restore_warm_ms_per_series", "ms", false},
	{"restore_cold_ms_per_series", "ms", false},
}

// detectorFamilies are the 14 detector families of Table 3 in registry
// order, by the short name used in their metric.
var detectorFamilies = []string{
	"threshold", "diff", "sma", "wma", "madiff", "ewma", "tsd", "tsdmad",
	"histavg", "histmad", "holtwinters", "svd", "wavelet", "arima",
}

// familySizes returns how many consecutive configurations of
// detectors.Registry belong to each family.
func familySizes() []int {
	var out []int
	for _, s := range detectors.Table3() {
		out = append(out, s.Configs)
	}
	return out
}

// perLayer lists the metrics every traced run reports.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	var out []metricSpec
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{Name: n, Unit: unit})
		}
	}
	add("ns", "service.ingest.ns_per_pt", "service.backfill.ns_per_pt", "service.points.ns_per_req",
		"service.handler.ns_per_req", "net.self.ns_per_req", "service.self.ns_per_pt", "service.self.ns_per_req",
		"engine.appendbulk.ns_per_pt", "engine.append.ns_per_req",
		"engine.appendbulk_nostore.ns_per_pt", "engine.append_nostore.ns_per_req",
		"engine.wal.ns_per_pt", "engine.wal.ns_per_req", "engine.self.ns_per_pt", "engine.self.ns_per_req")
	add("MB", "engine.heap_mb_per_series")
	add("count", "engine.goroutines_per_series")
	add("ms", "engine.train_cold.ms", "engine.train_incr.ms",
		"engine.restore_warm.ms_per_series", "engine.restore_cold.ms_per_series")
	add("ns", "core.stepbatch.ns_per_pt", "core.step_hot.ns_per_req", "core.step_cold.ns_per_req", "core.self.ns_per_pt")
	add("ms", "core.extract_cold.ms", "core.extract_incr.ms", "core.loadmonitor.ms")
	add("B", "core.savemodel.bytes")
	for _, f := range detectorFamilies {
		add("ns", "detectors."+f+".ns_per_pt")
	}
	add("ns", "forest.probrows.ns_per_pt")
	add("ms", "forest.train.ms")
	add("ns", "active.observe.ns_per_pt", "alerting.observe.ns_per_pt",
		"tsdb.appendpoints64.ns_per_pt", "tsdb.appendpoints256.ns_per_pt", "tsdb.appendpoints1.ns_per_req")
	add("B", "tsdb.bytes_per_pt.1", "tsdb.bytes_per_pt.64", "tsdb.bytes_per_pt.256")
	add("ms", "tsdb.load.ms_per_series", "tsdb.open.ms", "registry.publishset.ms", "registry.loadset.ms")
	add("B", "registry.bytes_per_series")
	add("count", "proc.threads")
	add("B", "proc.write_bytes_per_pt")
	add("ratio", "proc.cpu_share_user")
	add("count", "daemon.points_ingested", "daemon.trainings", "daemon.extract_points_cold",
		"daemon.extract_points_incremental", "daemon.model_publish", "daemon.model_restore_warm", "daemon.model_restore_cold")
	add("ratio", "trace.gap_ratio.stream", "trace.gap_ratio.scrape", "trace.gap_ratio.backfill", "trace.gap_ratio.retrain")
	add("ns", "trace.span_overhead.ns")
	return out
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}
