package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"opprentice/internal/service"
)

// TestPprofOffServingListener pins where profiling is reachable: on the
// handler behind -pprof-addr, and not on the API handler.
func TestPprofOffServingListener(t *testing.T) {
	get := func(h http.Handler, path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	if code := get(pprofHandler(), "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("pprof handler: /debug/pprof/cmdline = %d, want 200", code)
	}
	srv := service.NewServer(slog.New(slog.NewTextHandler(io.Discard, nil)))
	defer srv.Close()
	if code := get(srv.Handler(), "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("serving handler: /debug/pprof/ = %d, want 404", code)
	}
}

func TestUnmigratedLogs(t *testing.T) {
	cases := []struct {
		entry string // a trailing "/" makes a directory
		want  []string
	}{
		{"pv.wal", []string{"pv.wal"}},
		{"pv.wal.migrated", nil},
		{"pv.wal.corrupt", nil},
		{"x.wal/", nil},
		{"shard-000/", nil},
	}
	for _, c := range cases {
		dir := t.TempDir()
		path := filepath.Join(dir, c.entry)
		var err error
		if c.entry[len(c.entry)-1] == '/' {
			err = os.Mkdir(path, 0o755)
		} else {
			err = os.WriteFile(path, []byte("{}\n"), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		got, err := unmigratedLogs(dir)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: unmigratedLogs = %v, %v; want %v", c.entry, got, err, c.want)
		}
	}

	// Every offender is named, in directory order, among entries that are fine.
	dir := t.TempDir()
	for _, name := range []string{"pv.wal", "lat.wal", "old.wal.migrated"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "shard-000"), 0o755); err != nil {
		t.Fatal(err)
	}
	if got, err := unmigratedLogs(dir); err != nil || !reflect.DeepEqual(got, []string{"lat.wal", "pv.wal"}) {
		t.Errorf("unmigratedLogs = %v, %v; want [lat.wal pv.wal]", got, err)
	}

	// A data directory that does not exist yet is a fresh start.
	if got, err := unmigratedLogs(filepath.Join(dir, "absent")); err != nil || got != nil {
		t.Errorf("absent dir: unmigratedLogs = %v, %v; want none", got, err)
	}
}

// TestParseFlagsRefusesNegative: a negative value for any numeric flag is
// refused with the flag named — an operator's old "-1 = disabled" setting
// must not silently become the default — while zero and positive values
// reach the engine's Config as given.
func TestParseFlagsRefusesNegative(t *testing.T) {
	cases := []struct {
		args    []string
		refused string // the flags the error must name; "" = accepted
	}{
		{[]string{"-wal-deadline=-1s"}, "-wal-deadline"},
		{[]string{"-train-deadline=-1ns"}, "-train-deadline"},
		{[]string{"-degraded-recovery=-5s"}, "-degraded-recovery"},
		{[]string{"-extract-cache-mb=-1"}, "-extract-cache-mb"},
		{[]string{"-ingest-inflight=-1"}, "-ingest-inflight"},
		{[]string{"-query-band=-0.5"}, "-query-band"},
		{[]string{"-query-depth=-1"}, "-query-depth"},
		{[]string{"-drift-threshold=-1"}, "-drift-threshold"},
		{[]string{"-wal-segment-bytes=-1"}, "-wal-segment-bytes"},
		{[]string{"-shutdown-timeout=-1s"}, "-shutdown-timeout"},
		{[]string{"-query-depth=-1", "-addr=:0", "-model-keep=-2"}, "-model-keep, -query-depth"},
		{[]string{"-wal-deadline=0", "-query-band=0", "-drift-threshold=0.5", "-ingest-inflight=16"}, ""},
		{nil, ""},
	}
	for _, c := range cases {
		var stderr bytes.Buffer
		_, err := parseFlags(c.args, &stderr)
		switch {
		case c.refused == "" && err != nil:
			t.Errorf("%v: %v, want accepted", c.args, err)
		case c.refused != "" && (err == nil || !strings.Contains(err.Error(), "negative value for "+c.refused+":")):
			t.Errorf("%v: error %v, want one naming %s", c.args, err, c.refused)
		case c.refused != "" && !strings.Contains(stderr.String(), c.refused):
			t.Errorf("%v: stderr %q does not name %s", c.args, stderr.String(), c.refused)
		}
	}

	// Every numeric flag the daemon defines is covered, not just the table's.
	if _, err := parseFlags([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v, want flag.ErrHelp", err)
	}
	numeric := 0
	new(options).flags(io.Discard).VisitAll(func(f *flag.Flag) {
		var neg string
		switch f.Value.(flag.Getter).Get().(type) {
		case int, int64, float64:
			neg = "-1"
		case time.Duration:
			neg = "-1s"
		default:
			return
		}
		numeric++
		if _, err := parseFlags([]string{"-" + f.Name + "=" + neg}, io.Discard); err == nil || !strings.Contains(err.Error(), "-"+f.Name+":") {
			t.Errorf("-%s=%s: %v, want refused by name", f.Name, neg, err)
		}
	})
	if numeric != 13 {
		t.Errorf("%d numeric flags probed, want 13", numeric)
	}

	o, err := parseFlags([]string{"-wal-deadline=3s", "-drift-threshold=+Inf", "-ingest-inflight=16"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.engine.WALDeadline != 3*time.Second || !math.IsInf(o.engine.DriftThreshold, 1) || o.engine.IngestInflight != 16 {
		t.Errorf("parsed engine config %+v, want WALDeadline 3s, DriftThreshold +Inf, IngestInflight 16", o.engine)
	}
}
