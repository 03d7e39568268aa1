package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"opprentice/internal/tsdb"
)

// copyLegacyFixture copies the committed data directory written by the
// JSON-lines store (pv checksummed; lat bare JSON with a torn final line)
// into a writable temp dir.
func copyLegacyFixture(t *testing.T) string {
	t.Helper()
	dst := t.TempDir()
	for _, name := range []string{"pv.wal", "lat.wal"} {
		data, err := os.ReadFile(filepath.Join("testdata", "legacy", name))
		if err != nil {
			t.Fatal(err)
		}
		writeFile(t, filepath.Join(dst, name), string(data))
	}
	return dst
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func openStore(t *testing.T, dir string) *tsdb.Store {
	t.Helper()
	s, err := tsdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func checkLoad(t *testing.T, stage string, s *tsdb.Store, want tsdb.Loaded) {
	t.Helper()
	got, err := s.Load(want.Meta.Name)
	if err != nil {
		t.Fatalf("%s: Load(%q): %v", stage, want.Meta.Name, err)
	}
	if !reflect.DeepEqual(*got, want) {
		t.Errorf("%s: Load(%q) =\n  %+v\nwant\n  %+v", stage, want.Meta.Name, *got, want)
	}
}

func checkList(t *testing.T, stage string, s *tsdb.Store, want ...string) {
	t.Helper()
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("%s: List = %v, want %v", stage, names, want)
	}
}

// checkSetAside asserts the migrate commit point: <name>.wal is gone and
// <name>.wal.migrated holds it.
func checkSetAside(t *testing.T, dir, name string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(dir, name+".wal")); !os.IsNotExist(err) {
		t.Errorf("%s.wal still present after migration: %v", name, err)
	}
	if _, err := os.Stat(filepath.Join(dir, name+".wal.migrated")); err != nil {
		t.Errorf("%s.wal.migrated missing: %v", name, err)
	}
}

func dirListing(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			out = append(out, strings.TrimPrefix(path, dir)+" "+info.ModTime().String()+" "+info.Mode().String())
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWALMigrateFixture is the cross-version gate: a data directory written
// by the JSON-lines store migrates with its replayed state preserved
// exactly, keeps taking appends, and survives a cold reopen; a second run
// changes nothing.
func TestWALMigrateFixture(t *testing.T) {
	dir := copyLegacyFixture(t)
	var out bytes.Buffer
	if err := walMigrate(&out, dir); err != nil {
		t.Fatalf("walMigrate: %v\n%s", err, out.String())
	}
	checkSetAside(t, dir, "pv")
	checkSetAside(t, dir, "lat")

	// The exact state the fixture encodes (pv checksummed, lat bare-JSON
	// with a torn tail line that must be forgiven).
	wantPV := tsdb.Loaded{
		Meta: tsdb.Meta{Name: "pv", Start: time.Date(2015, 1, 5, 0, 0, 0, 0, time.UTC),
			IntervalSeconds: 60, Recall: 0.66, Precision: 0.66, Trees: 60},
		Values: []float64{10.5, 11, 11.5, 12, 80, 12.5, 13, 13.5},
		Labels: []bool{false, false, false, false, true, false, false, false},
	}
	wantLat := tsdb.Loaded{
		Meta: tsdb.Meta{Name: "lat", Start: time.Date(2015, 2, 1, 0, 0, 0, 0, time.UTC),
			IntervalSeconds: 300, Recall: 0.75, Precision: 0.6, Trees: 40},
		Values: []float64{1, 2, 3, 4},
		Labels: []bool{false, false, false, false},
	}
	s := openStore(t, dir)
	checkList(t, "migrated", s, "lat", "pv")
	checkLoad(t, "migrated", s, wantPV)
	checkLoad(t, "migrated", s, wantLat)

	// Appends land after the imported history.
	if err := s.AppendPoints(context.Background(), "pv", []float64{14}); err != nil {
		t.Fatal(err)
	}
	wantPV.Values = append(wantPV.Values, 14)
	wantPV.Labels = append(wantPV.Labels, false)
	checkLoad(t, "appended", s, wantPV)
	checkLoad(t, "appended", s, wantLat)
	s.Close()

	// Rerunning is a no-op: no file is created, rewritten or renamed.
	before := dirListing(t, dir)
	out.Reset()
	if err := walMigrate(&out, dir); err != nil {
		t.Fatalf("second walMigrate: %v", err)
	}
	if after := dirListing(t, dir); !reflect.DeepEqual(before, after) {
		t.Errorf("second run changed the directory:\n  %v\n→\n  %v", before, after)
	}
	if !strings.Contains(out.String(), "nothing to migrate") {
		t.Errorf("second run printed %q", out.String())
	}

	s2 := openStore(t, dir)
	checkList(t, "reopen", s2, "lat", "pv")
	checkLoad(t, "reopen", s2, wantPV)
	checkLoad(t, "reopen", s2, wantLat)
}

// A name the segment store already holds is not imported again — the state
// after a crash between import and rename, or a series recreated since: the
// store's copy wins and the file is set aside unread (it is not even parsed).
func TestWALMigrateSegmentCopyWins(t *testing.T) {
	dir := t.TempDir()
	meta := tsdb.Meta{Name: "pv", Start: time.Date(2015, 1, 5, 0, 0, 0, 0, time.UTC), IntervalSeconds: 60, Trees: 60}
	s := openStore(t, dir)
	if err := s.Import(context.Background(), meta, []float64{1, 2, 3}, []bool{false, true, false}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	writeFile(t, filepath.Join(dir, "pv.wal"), "stale and not even JSON lines\nat all\n")

	var out bytes.Buffer
	if err := walMigrate(&out, dir); err != nil {
		t.Fatalf("walMigrate: %v\n%s", err, out.String())
	}
	checkSetAside(t, dir, "pv")
	s2 := openStore(t, dir)
	checkList(t, "both present", s2, "pv")
	checkLoad(t, "both present", s2, tsdb.Loaded{Meta: meta, Values: []float64{1, 2, 3}, Labels: []bool{false, true, false}})
}

// Logs of the pre-checksum format are bare JSON lines.
func TestWALMigrateBareJSONLines(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "old.wal"), `{"kind":"meta","meta":{"name":"old","interval_seconds":60}}
{"kind":"points","values":[1,2,3]}
{"kind":"label","start":0,"end":2,"anomalous":true}
`)
	if err := walMigrate(&bytes.Buffer{}, dir); err != nil {
		t.Fatalf("bare JSON log should migrate: %v", err)
	}
	checkSetAside(t, dir, "old")
	s := openStore(t, dir)
	got, err := s.Load("old")
	if err != nil {
		t.Fatalf("migrated log should load: %v", err)
	}
	if len(got.Values) != 3 || !got.Labels[0] || !got.Labels[1] || got.Labels[2] {
		t.Errorf("migrated replay = %v / %v", got.Values, got.Labels)
	}
	if err := s.AppendPoints(context.Background(), "old", []float64{4}); err != nil {
		t.Fatal(err)
	}
	got, err = s.Load("old")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Values) != 4 || got.Values[3] != 4 || !got.Labels[0] {
		t.Errorf("replay after append = %v / %v", got.Values, got.Labels)
	}
}

// A final line torn by a crash is forgiven, whether the tear broke the JSON
// or the checksum.
func TestWALMigrateTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "pv.wal"), `{"kind":"meta","meta":{"name":"pv","interval_seconds":60}}
{"kind":"points","values":[1,2]}
{"kind":"points","values":[9,9`)
	writeFile(t, filepath.Join(dir, "crc.wal"), `{"kind":"meta","meta":{"name":"crc","interval_seconds":60}}
0642509c {"kind":"points","values":[10.5,11,11.5,12,80,12.5]}
f503232c {"kind":"points","values":[13,1`)
	if err := walMigrate(&bytes.Buffer{}, dir); err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	s := openStore(t, dir)
	for name, want := range map[string]int{"pv": 2, "crc": 6} {
		got, err := s.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Values) != want {
			t.Errorf("%s: values = %v, want the %d intact points", name, got.Values, want)
		}
	}
}

// A log that does not replay cleanly is refused — not imported, not renamed,
// not one byte changed — while the healthy ones beside it still migrate, and
// the run reports failure (main turns the error into exit status 1).
func TestWALMigrateRefusesDamagedLogs(t *testing.T) {
	const meta = `{"kind":"meta","meta":{"name":"x","interval_seconds":60}}` + "\n"
	damaged := map[string]string{
		// Bit rot under an intact line structure: 10.5 became 10.6.
		"crc": `d82da226 {"kind":"meta","meta":{"name":"pv","start":"2015-01-05T00:00:00Z","interval_seconds":60,"recall":0.66,"precision":0.66,"trees":60}}
0642509c {"kind":"points","values":[10.6,11,11.5,12,80,12.5]}
ff432fed {"kind":"label","start":4,"end":5,"anomalous":true}
`,
		"prefix":     meta + "0642509 {\"kind\":\"points\",\"values\":[1]}\n" + `{"kind":"points","values":[1]}` + "\n",
		"midlog":     meta + "not json at all\n" + `{"kind":"points","values":[1]}` + "\n",
		"nometa":     `{"kind":"points","values":[1]}` + "\n",
		"labelfirst": `{"kind":"label","start":0,"end":1,"anomalous":true}` + "\n",
		"dupmeta":    meta + meta,
		"emptymeta":  `{"kind":"meta"}` + "\n",
		"unknown":    meta + `{"kind":"zap"}` + "\n",
		"badlabel":   meta + `{"kind":"label","start":0,"end":5,"anomalous":true}` + "\n",
		"neglabel":   meta + `{"kind":"points","values":[1,2]}` + "\n" + `{"kind":"label","start":-1,"end":1,"anomalous":true}` + "\n",
		"empty":      "",
	}
	dir := t.TempDir()
	for name, content := range damaged {
		writeFile(t, filepath.Join(dir, name+".wal"), content)
	}
	writeFile(t, filepath.Join(dir, "good.wal"), meta+`{"kind":"points","values":[1,2,3]}`+"\n")

	var out bytes.Buffer
	err := walMigrate(&out, dir)
	if err == nil || !strings.Contains(err.Error(), "11 of 12 logs refused") {
		t.Errorf("walMigrate = %v, want 11 of 12 logs refused\n%s", err, out.String())
	}
	for name, content := range damaged {
		got, err := os.ReadFile(filepath.Join(dir, name+".wal"))
		if err != nil || string(got) != content {
			t.Errorf("%s.wal not left byte-identical: %v", name, err)
		}
		if _, err := os.Stat(filepath.Join(dir, name+".wal.migrated")); !os.IsNotExist(err) {
			t.Errorf("%s.wal.migrated exists: %v", name, err)
		}
		if !strings.Contains(out.String(), name+".wal: refused") {
			t.Errorf("output does not name %s.wal as refused:\n%s", name, out.String())
		}
	}
	checkSetAside(t, dir, "good")
	s := openStore(t, dir)
	checkList(t, "after refusals", s, "good")
	if got, err := s.Load("good"); err != nil || len(got.Values) != 3 {
		t.Errorf("good = %+v, %v", got, err)
	}
}
