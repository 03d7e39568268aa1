package service

import (
	"flag"
	"net/http"
	"net/url"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden from this run's scrape")

// maskedMetrics are the samples whose value depends on wall time or on the
// allocator's slice growth; the golden keeps their lines but not their values.
var maskedMetrics = []string{
	"opprenticed_training_seconds_total",
	"opprenticed_training_stage_seconds_total",
	"opprenticed_restore_seconds",
	"opprenticed_extract_cache_bytes",
}

// TestMetricsGolden pins the whole /v1/metrics exposition — every HELP and
// TYPE line, sample name, label, value format and their order — against a
// scrape recorded before the metric table replaced the hand-written renderer
// (regenerate with -update). The scenario is memory-only and deterministic:
// an untrained three-point series, a trained one that then streams a blatant
// drop, and one 404.
func TestMetricsGolden(t *testing.T) {
	ts := newTestServer(t)
	createSeries(t, ts, "kpi", 3600)
	doJSON(t, http.MethodPost, ts.URL+"/v1/series/kpi/points", PointsRequest{
		Points: []Point{{Value: 1}, {Value: 2}, {Value: 3}},
	})
	createSeries(t, ts, "pv", 3600)
	d := trainOn(t, ts, "pv", 51)
	last := d.Series.Values[d.Series.Len()-1]
	doJSON(t, http.MethodPost, ts.URL+"/v1/series/pv/points", PointsRequest{
		Points: []Point{{Value: last * 0.1}, {Value: last * 0.1}},
	})
	doJSON(t, http.MethodGet, ts.URL+"/v1/series/ghost", nil)

	_, body := doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil)
	lines := strings.Split(string(body), "\n")
	for i, line := range lines {
		for _, name := range maskedMetrics {
			if rest, ok := strings.CutPrefix(line, name); ok && (strings.HasPrefix(rest, " ") || strings.HasPrefix(rest, "{")) {
				lines[i] = line[:strings.LastIndexByte(line, ' ')] + " <masked>"
			}
		}
	}
	got := strings.Join(lines, "\n")

	const golden = "testdata/metrics.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		wantLines := strings.Split(string(want), "\n")
		for i := 0; i < len(lines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(lines) {
				g = lines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("exposition differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, g, w)
			}
		}
	}
}

// expositionLine is the Prometheus text format's grammar for the three line
// shapes the daemon emits. A label value is any run of characters other than
// a quote, a backslash or a line feed, or one of the three escapes \\ \" \n.
var expositionLine = regexp.MustCompile(`^(?:# HELP [a-z_][a-z0-9_]* [^\n]+` +
	`|# TYPE [a-z_][a-z0-9_]* (?:counter|gauge)` +
	`|[a-z_][a-z0-9_]*(?:\{[a-z_][a-z0-9_]*="((?:[^"\\\n]|\\\\|\\"|\\n)*)"\})? -?[0-9]+(?:\.[0-9]+)?)$`)

// TestMetricsLabelEscaping creates series whose names a Go %q would render
// with escapes the exposition format does not define, and checks that every
// scraped line still parses and that the label values decode back to exactly
// the names created.
func TestMetricsLabelEscaping(t *testing.T) {
	ts := newTestServer(t)
	names := []string{`quo"te`, `back\slash`, "new\nline", "ctl\x01byte", "bidi\u202erune", `\n`}
	for _, name := range names {
		createSeries(t, ts, url.PathEscape(name), 3600)
	}
	_, body := doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil)
	text := strings.TrimSuffix(string(body), "\n")
	unescape := strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
	var got []string
	for i, line := range strings.Split(text, "\n") {
		m := expositionLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d is not valid exposition text: %q", i+1, line)
		}
		if strings.HasPrefix(line, "opprenticed_series_points{") {
			got = append(got, unescape.Replace(m[1]))
		}
	}
	sort.Strings(names)
	if !slices.Equal(got, names) {
		t.Errorf("series labels decode to %q, created %q", got, names)
	}
}

// TestMetricsTable checks the conventions every declared family must follow,
// on the headers an empty daemon already renders: a unique opprenticed_ name,
// a HELP text, counters (and only counters) ending in _total, and samples
// only under their own family's header.
func TestMetricsTable(t *testing.T) {
	ts := newTestServer(t)
	_, body := doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil)
	name := regexp.MustCompile(`^opprenticed_[a-z0-9_]+$`)
	seen := map[string]bool{}
	var family string
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		f := strings.SplitN(line, " ", 4)
		switch {
		case strings.HasPrefix(line, "# HELP "):
			family = f[2]
			if !name.MatchString(family) {
				t.Errorf("family name %q does not match %s", family, name)
			}
			if seen[family] {
				t.Errorf("family %s declared twice", family)
			}
			seen[family] = true
			if len(f) < 4 || strings.TrimSpace(f[3]) == "" {
				t.Errorf("family %s has no HELP text", family)
			}
		case strings.HasPrefix(line, "# TYPE "):
			if f[2] != family {
				t.Errorf("TYPE line for %s under the HELP of %s", f[2], family)
			}
			if counter := f[3] == "counter"; counter != strings.HasSuffix(family, "_total") {
				t.Errorf("family %s is a %s: counters, and only counters, end in _total", family, f[3])
			}
		default:
			if sample, _, _ := strings.Cut(f[0], "{"); sample != family {
				t.Errorf("sample %q rendered under family %s", f[0], family)
			}
		}
	}
	if len(seen) < 39 {
		t.Errorf("only %d families rendered, the golden has 39", len(seen))
	}
}
