package main

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

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
