package main

import (
	"context"
	"math"
	"reflect"
	"regexp"
	"testing"

	"opprentice/internal/engine"
)

func TestPercentileNearestRank(t *testing.T) {
	sample := make([]float64, 100)
	for i := range sample {
		sample[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct{ q, want float64 }{
		{0.50, 50}, {0.99, 99}, {1, 100}, {0.001, 1}, {0.505, 51},
	} {
		if got := percentile(sample, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestTenSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true},   // exactly ten beyond
		{999, 0.99, false},   // nine beyond
		{20, 0.50, true},     // ten beyond the median
		{19, 0.50, false},    // nine
		{60000, 0.999, true}, // sixty
	} {
		if got := supportsPercentile(c.n, c.q); got != c.want {
			t.Errorf("supportsPercentile(%d, %v) = %v (%d beyond), want %v", c.n, c.q, got, samplesBeyond(c.n, c.q), c.want)
		}
	}
	// Whatever --seconds scales a shape to, traced or not, a scrape slice
	// supports its p99 and there are cycles to take a median of.
	for _, sh := range shapes {
		for _, f := range []float64{0.01, 0.1, 1, 3} {
			for _, s := range []shape{sh.scaled(f), sh.scaled(f).traced()} {
				if n := s.scrapeRequests; !supportsPercentile(n, 0.99) || s.cycles < minCycles {
					t.Errorf("%s scaled by %v: %d cycles of %d scrapes", sh.name, f, s.cycles, n)
				}
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// A hand-built trace: a parent with two disjoint children, one of which has a
// child of its own, a pair of overlapping children, and a child that runs
// past its parent.
func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 50, End: 90},
		{ID: 4, Parent: 3, Start: 60, End: 70},
		{ID: 5, Start: 200, End: 300},
		{ID: 6, Parent: 5, Start: 210, End: 250}, // overlaps 7
		{ID: 7, Parent: 5, Start: 240, End: 280},
		{ID: 8, Start: 400, End: 450},
		{ID: 9, Parent: 8, Start: 440, End: 480}, // runs past its parent
	}
	want := map[int]int64{1: 40, 2: 20, 3: 30, 4: 10, 5: 30, 6: 40, 7: 40, 8: 40, 9: 40}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestReplayReportsMedianCostPerUnit(t *testing.T) {
	tr := newTracer()
	rp := tr.replay("level")
	rp.call("f", 0, 10, func(replay) {})
	rp.call("f", 1, 10, func(replay) {})
	rp.call("g", 2, 10, func(replay) {})
	rp.done()
	// Durations by hand: costs per unit 1, 100 and 3 ns.
	for i, d := range []int64{10, 1000, 30} {
		tr.spans[i+1].Start, tr.spans[i+1].End = 0, d
	}
	if got := rp.perUnit(""); got != 3 {
		t.Errorf("perUnit over all calls = %v, want the median 3", got)
	}
	if got := rp.perUnit("f"); got != 50.5 {
		t.Errorf("perUnit over f = %v, want 50.5", got)
	}
}

func TestInputsArePureFunctionOfSeedAndIndex(t *testing.T) {
	a, b := genSeries(7, 3), genSeries(7, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("genSeries(7, 3) differs between two calls")
	}
	if len(a.history) != historyLen || len(a.weeks) != maxRetrainRounds || len(a.weeks[0].values) != weekPoints {
		t.Fatalf("history %d points, %d weeks of %d", len(a.history), len(a.weeks), len(a.weeks[0].values))
	}
	if len(a.labels) == 0 {
		t.Fatal("history has no anomalous window to train on")
	}
	for _, other := range []seriesInput{genSeries(8, 3), genSeries(7, 4), genSeries(7, 6)} {
		if reflect.DeepEqual(a.history, other.history) || reflect.DeepEqual(a.live, other.live) {
			t.Errorf("series %s of another seed or index repeats the values of %s", other.name, a.name)
		}
	}
	// The three KPI shapes rotate with the index.
	if genSeries(7, 0).name[:2] != "pv" || genSeries(7, 1).name[:2] != "sr" || genSeries(7, 2).name[:3] != "srt" {
		t.Error("profiles are not assigned PV, SR, SRT round-robin")
	}
	// The live cursor wraps without repeating or skipping.
	cur := liveCursor{vals: []float64{1, 2, 3}}
	if got := cur.next(5, nil); !reflect.DeepEqual(got, []float64{1, 2, 3, 1, 2}) {
		t.Errorf("cursor gave %v", got)
	}
	if got := cur.next(2, nil); !reflect.DeepEqual(got, []float64{3, 1}) {
		t.Errorf("cursor went on with %v", got)
	}
}

// BENCHMARK.json and the harness must name the same workloads and metrics,
// with the same units and directions, in names the driver accepts.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	b, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	unique := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not one the driver accepts", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(shapes) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(shapes))
	}
	for i, w := range b.Workloads {
		unique(w.Name)
		if w.Name != shapes[i].name || w.Why != shapes[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the harness, or their reasons differ", i, w.Name, shapes[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: reason has %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, file []benchmarkMetric, specs []metricSpec, bounded bool) {
		if len(file) != len(specs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the harness", len(file), kind, len(specs))
		}
		for i, m := range file {
			unique(m.Name)
			better := "lower"
			if specs[i].Higher {
				better = "higher"
			}
			if m.Name != specs[i].Name || m.Unit != specs[i].Unit || m.Better != better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the harness %+v", kind, i, m, specs[i])
			}
			switch {
			case !bounded && m.Bound != nil:
				t.Errorf("%s has a bound", m.Name)
			case bounded && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s needs a bound in (0, 0.25]", m.Name)
			}
		}
	}
	check("end-to-end", b.EndToEnd, endToEnd, true)
	check("per-layer", b.PerLayer, perLayer, false)
	if b.EndToEnd[0].Name != "setup_s" || b.EndToEnd[0].Unit != "s" || b.EndToEnd[0].Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in seconds, lower better")
	}
	if b.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, the harness counts are for %d", b.RunSeconds, nominalSeconds)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths %v", b.Paths)
	}
	if len(detectorFamilies) != len(familySizes()) {
		t.Errorf("%d family names for %d families in the registry", len(detectorFamilies), len(familySizes()))
	}
}

// The self times and the leaves of each chain add up to its whole-stack
// cost: per point to service.ingest, per request to service.points.
func TestSelfTimesTelescope(t *testing.T) {
	m := map[string]float64{
		"service.ingest.ns_per_pt": 40000, "engine.appendbulk.ns_per_pt": 38500.5,
		"engine.appendbulk_nostore.ns_per_pt": 35000.25, "core.stepbatch.ns_per_pt": 33000.125,
		"forest.probrows.ns_per_pt": 7000, "active.observe.ns_per_pt": 20,
		"service.points.ns_per_req": 500000, "service.handler.ns_per_req": 300000.5,
		"engine.append.ns_per_req": 250000, "engine.append_nostore.ns_per_req": 60000, "core.step_cold.ns_per_req": 50000,
	}
	leaves := m["forest.probrows.ns_per_pt"] + m["active.observe.ns_per_pt"]
	for i, f := range detectorFamilies {
		m["detectors."+f+".ns_per_pt"] = float64(100 * (i + 1))
		leaves += m["detectors."+f+".ns_per_pt"]
	}
	derive(m)
	perPoint := m["service.self.ns_per_pt"] + m["engine.wal.ns_per_pt"] + m["engine.self.ns_per_pt"] + m["core.self.ns_per_pt"] + leaves
	if perPoint != m["service.ingest.ns_per_pt"] {
		t.Errorf("per-point self times add up to %v, whole stack is %v", perPoint, m["service.ingest.ns_per_pt"])
	}
	perRequest := m["net.self.ns_per_req"] + m["service.self.ns_per_req"] + m["engine.wal.ns_per_req"] +
		m["engine.self.ns_per_req"] + m["core.step_cold.ns_per_req"] + m["active.observe.ns_per_pt"]
	if perRequest != m["service.points.ns_per_req"] {
		t.Errorf("per-request self times add up to %v, whole stack is %v", perRequest, m["service.points.ns_per_req"])
	}
}

// Mutation self-test of the oracle: a log recorded from an engine replays
// clean, and the same log with one verdict flipped does not.
func TestOracleFlagsFlippedVerdict(t *testing.T) {
	ctx := context.Background()
	in := genSeries(1, 0)
	l := &seriesLog{in: in}
	daemon := engine.New(engine.Config{Log: quiet}) // stands in for opprenticed
	defer daemon.Close()
	if err := seedSeries(ctx, daemon, in); err != nil {
		t.Fatal(err)
	}
	l.points(in.history, nil)
	l.ops = append(l.ops, seriesOp{kind: opLabel, windows: in.labels})
	res, err := daemon.Train(ctx, in.name)
	if err != nil {
		t.Fatal(err)
	}
	l.ops = append(l.ops, seriesOp{kind: opTrain, cthld: res.CThld})
	const scrapes = 20
	for _, v := range in.live[:scrapes] {
		r, err := daemon.Append(ctx, in.name, []engine.Point{{Value: v}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		l.points([]float64{v}, r.Verdicts)
	}

	compared, bad := l.replay(ctx)
	if len(bad) != 0 || compared != scrapes+1 {
		t.Fatalf("faithful log: %d comparisons, mismatches %v", compared, bad)
	}
	v := &l.ops[len(l.ops)-3].verdicts[0]
	v.Probability = math.Nextafter(v.Probability, 2) // one bit
	if _, bad := l.replay(ctx); len(bad) != 1 {
		t.Errorf("one flipped probability bit gave mismatches %v", bad)
	}
	v.Anomalous = !v.Anomalous
	l.ops[2].cthld += 0.25
	if _, bad := l.replay(ctx); len(bad) != 2 {
		t.Errorf("a flipped verdict and a wrong cthld gave mismatches %v", bad)
	}
}

func TestCompareVerdict(t *testing.T) {
	for _, c := range []struct {
		base, cand, bound float64
		higher            bool
		want              string
	}{
		{100, 104, 0.05, false, "ok"},
		{100, 106, 0.05, false, "worse"},
		{100, 94, 0.05, false, "better"},
		{100, 94, 0.05, true, "worse"},
		{100, 106, 0.05, true, "better"},
		{100, 96, 0.05, true, "ok"},
	} {
		if got := verdictOf(c.base, c.cand, c.bound, c.higher); got != c.want {
			t.Errorf("verdictOf(%v → %v, bound %v, higher better %v) = %s, want %s", c.base, c.cand, c.bound, c.higher, got, c.want)
		}
	}
}
