package registry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"opprentice/internal/faultinject"
)

func openTest(t *testing.T, keep int) *Registry {
	t.Helper()
	r, err := Open(Config{Dir: t.TempDir(), Keep: keep})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustPublish(t *testing.T, r *Registry, series string, gen int) Generation {
	t.Helper()
	g, err := r.PublishSet(series, Info{
		Fingerprint: 0xfeed,
		Points:      gen * 100,
		CThld:       0.5,
		TrainedAt:   time.Date(2015, 1, gen, 0, 0, 0, 0, time.UTC),
	}, map[string][]byte{KindVerdict: []byte(fmt.Sprintf("model payload generation %d", gen))})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPublishLoadRoundTrip(t *testing.T) {
	r := openTest(t, 3)
	g := mustPublish(t, r, "pv", 1)
	if g.Gen != 1 {
		t.Fatalf("first generation = %d, want 1", g.Gen)
	}
	art, err := r.LoadSet("pv")
	if err != nil {
		t.Fatal(err)
	}
	if string(art.Payloads[KindVerdict]) != "model payload generation 1" {
		t.Fatalf("payload = %q", art.Payloads[KindVerdict])
	}
	if art.Gen != 1 || art.Fingerprint != 0xfeed || art.Points != 100 {
		t.Fatalf("metadata = %+v", art.Generation)
	}

	if _, err := r.LoadSet("nope"); !errors.Is(err, ErrUnknownSeries) {
		t.Fatalf("unknown series: err = %v, want ErrUnknownSeries", err)
	}
}

func TestRetentionKeepsLastN(t *testing.T) {
	r := openTest(t, 2)
	for i := 1; i <= 5; i++ {
		mustPublish(t, r, "pv", i)
	}
	man, err := r.Manifest("pv")
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Generations) != 2 || man.Generations[0].Gen != 4 || man.Generations[1].Gen != 5 {
		t.Fatalf("retained generations = %+v, want [4 5]", man.Generations)
	}
	if man.Current != 5 {
		t.Fatalf("current = %d, want 5", man.Current)
	}
	// Pruned artifact files are gone.
	dir := filepath.Join(r.dir, "pv")
	if _, err := os.Stat(filepath.Join(dir, genFileName(1))); !os.IsNotExist(err) {
		t.Fatalf("gen 1 artifact not pruned: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, genFileName(5))); err != nil {
		t.Fatalf("gen 5 artifact missing: %v", err)
	}
}

func TestRollbackWalksBackwards(t *testing.T) {
	r := openTest(t, 3)
	for i := 1; i <= 3; i++ {
		mustPublish(t, r, "pv", i)
	}
	man, err := r.Rollback("pv")
	if err != nil {
		t.Fatal(err)
	}
	if man.Current != 2 {
		t.Fatalf("current after rollback = %d, want 2", man.Current)
	}
	art, err := r.LoadSet("pv")
	if err != nil {
		t.Fatal(err)
	}
	if art.Gen != 2 {
		t.Fatalf("LoadSet after rollback served gen %d, want 2", art.Gen)
	}
	if man, err = r.Rollback("pv"); err != nil || man.Current != 1 {
		t.Fatalf("second rollback: current=%d err=%v, want 1", man.Current, err)
	}
	if _, err := r.Rollback("pv"); !errors.Is(err, ErrNoArtifact) {
		t.Fatalf("rollback past the oldest generation: err = %v, want ErrNoArtifact", err)
	}
	// A fresh publish supersedes the rollback.
	g := mustPublish(t, r, "pv", 4)
	if art, err := r.LoadSet("pv"); err != nil || art.Gen != g.Gen {
		t.Fatalf("publish after rollback: load gen=%d err=%v, want %d", art.Gen, err, g.Gen)
	}
}

// TestFaultCorruptCurrentFallsBack: flipping a byte in the current artifact
// must quarantine it and serve the previous generation — the previous
// generation always remains loadable.
func TestFaultCorruptCurrentFallsBack(t *testing.T) {
	r := openTest(t, 3)
	mustPublish(t, r, "pv", 1)
	g2 := mustPublish(t, r, "pv", 2)

	path := filepath.Join(r.dir, "pv", g2.File)
	if err := faultinject.FlipByte(path, -3); err != nil {
		t.Fatal(err)
	}
	art, err := r.LoadSet("pv")
	if err != nil {
		t.Fatal(err)
	}
	if art.Gen != 1 || string(art.Payloads[KindVerdict]) != "model payload generation 1" {
		t.Fatalf("fallback served gen %d (%q), want gen 1", art.Gen, art.Payloads[KindVerdict])
	}
	if r.Stats().ChecksumFailures != 1 {
		t.Fatalf("ChecksumFailures = %d, want 1", r.Stats().ChecksumFailures)
	}
	// The damaged artifact is quarantined, not deleted.
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt artifact not quarantined: %v", err)
	}
	// The fallback is persisted: a second load serves gen 1 directly.
	if art, err := r.LoadSet("pv"); err != nil || art.Gen != 1 {
		t.Fatalf("second load: gen=%d err=%v, want 1", art.Gen, err)
	}
}

// TestFaultShortWrite: a truncated current artifact (crash mid-write after a
// partial flush) falls back to the previous generation.
func TestFaultShortWrite(t *testing.T) {
	r := openTest(t, 3)
	mustPublish(t, r, "pv", 1)
	g2 := mustPublish(t, r, "pv", 2)
	if err := faultinject.TruncateTail(filepath.Join(r.dir, "pv", g2.File), 7); err != nil {
		t.Fatal(err)
	}
	art, err := r.LoadSet("pv")
	if err != nil {
		t.Fatal(err)
	}
	if art.Gen != 1 {
		t.Fatalf("short-written current: served gen %d, want 1", art.Gen)
	}
}

// TestFaultTornTempFile: a stray temp file from a crash mid-publish must not
// confuse Load and must be swept by the next publish.
func TestFaultTornTempFile(t *testing.T) {
	r := openTest(t, 3)
	mustPublish(t, r, "pv", 1)
	torn := filepath.Join(r.dir, "pv", ".tmp-000000000002.model-123")
	if err := os.WriteFile(torn, []byte("half a mo"), 0o644); err != nil {
		t.Fatal(err)
	}
	// And a fully-written but unreferenced artifact (crash between artifact
	// rename and manifest write).
	orphan := filepath.Join(r.dir, "pv", genFileName(2))
	if err := os.WriteFile(orphan, frame([]byte("orphan")), 0o644); err != nil {
		t.Fatal(err)
	}

	if art, err := r.LoadSet("pv"); err != nil || art.Gen != 1 {
		t.Fatalf("load with torn temp present: gen=%d err=%v, want 1", art.Gen, err)
	}
	// Next publish must skip the orphaned gen number and sweep the debris.
	g := mustPublish(t, r, "pv", 3)
	if g.Gen != 3 {
		t.Fatalf("publish after orphaned gen 2 assigned gen %d, want 3", g.Gen)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("torn temp file not swept: %v", err)
	}
}

// TestFaultRenameFailure: when the atomic rename fails mid-publish, Publish
// errors and the previous generation remains current and loadable.
func TestFaultRenameFailure(t *testing.T) {
	dir := t.TempDir()
	fail := false
	r, err := Open(Config{Dir: dir, Rename: func(oldpath, newpath string) error {
		if fail {
			return fmt.Errorf("faultinject: rename %s: disk on fire", filepath.Base(newpath))
		}
		return os.Rename(oldpath, newpath)
	}})
	if err != nil {
		t.Fatal(err)
	}
	mustPublish(t, r, "pv", 1)

	fail = true
	if _, err := r.PublishSet("pv", Info{}, map[string][]byte{KindVerdict: []byte("doomed")}); err == nil {
		t.Fatal("publish with failing rename succeeded")
	}
	fail = false
	art, err := r.LoadSet("pv")
	if err != nil {
		t.Fatal(err)
	}
	if art.Gen != 1 || string(art.Payloads[KindVerdict]) != "model payload generation 1" {
		t.Fatalf("after failed publish: gen=%d payload=%q, want intact gen 1", art.Gen, art.Payloads[KindVerdict])
	}
	// And the store still accepts new publishes.
	if g := mustPublish(t, r, "pv", 2); g.Gen < 2 {
		t.Fatalf("post-recovery publish gen = %d, want >= 2", g.Gen)
	}
}

// TestFaultEveryGenerationCorrupt: when every candidate fails its checksum,
// Load reports ErrNoArtifact (the caller's cue to retrain cold).
func TestFaultEveryGenerationCorrupt(t *testing.T) {
	r := openTest(t, 3)
	g1 := mustPublish(t, r, "pv", 1)
	g2 := mustPublish(t, r, "pv", 2)
	for _, g := range []Generation{g1, g2} {
		if err := faultinject.FlipByte(filepath.Join(r.dir, "pv", g.File), -1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.LoadSet("pv"); !errors.Is(err, ErrNoArtifact) {
		t.Fatalf("all-corrupt load: err = %v, want ErrNoArtifact", err)
	}
	if got := r.Stats().ChecksumFailures; got != 2 {
		t.Fatalf("ChecksumFailures = %d, want 2", got)
	}
}

// TestFaultCorruptManifest: a damaged manifest is quarantined and reported
// as ErrCorruptManifest; a subsequent publish starts a fresh index.
func TestFaultCorruptManifest(t *testing.T) {
	r := openTest(t, 3)
	mustPublish(t, r, "pv", 1)
	path := filepath.Join(r.dir, "pv", manifestName)
	if err := os.WriteFile(path, []byte(`{"series":"pv","current":9,"generations":[{"gen":1,"file":"x"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.LoadSet("pv"); !errors.Is(err, ErrCorruptManifest) {
		t.Fatalf("corrupt manifest load: err = %v, want ErrCorruptManifest", err)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt manifest not quarantined: %v", err)
	}
	if g := mustPublish(t, r, "pv", 2); g.Gen != 2 {
		t.Fatalf("publish after manifest quarantine assigned gen %d, want 2 (fresh index past the stray gen-1 file)", g.Gen)
	}
}

func TestQuarantineGeneration(t *testing.T) {
	r := openTest(t, 3)
	mustPublish(t, r, "pv", 1)
	g2 := mustPublish(t, r, "pv", 2)
	if err := r.Quarantine("pv", g2.Gen); err != nil {
		t.Fatal(err)
	}
	if art, err := r.LoadSet("pv"); err != nil || art.Gen != 1 {
		t.Fatalf("load after quarantine: gen=%d err=%v, want 1", art.Gen, err)
	}
	if err := r.Quarantine("pv", 99); err == nil {
		t.Fatal("quarantining an unknown generation succeeded")
	}
}

func TestListAndManifest(t *testing.T) {
	r := openTest(t, 3)
	mustPublish(t, r, "b", 1)
	mustPublish(t, r, "a", 1)
	names, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("List = %v, want [a b]", names)
	}
	if _, err := r.Manifest("missing"); !errors.Is(err, ErrUnknownSeries) {
		t.Fatalf("Manifest(missing): err = %v, want ErrUnknownSeries", err)
	}
	if _, err := r.PublishSet("../evil", Info{}, map[string][]byte{KindVerdict: []byte("x")}); err == nil {
		t.Fatal("path-escaping series name accepted")
	}
}

// FuzzParseManifest: manifest parsing must never panic and must either
// return a structurally valid manifest or an ErrCorruptManifest-wrapped
// error.
func FuzzParseManifest(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"series":"pv","current":2,"generations":[{"gen":1,"file":"000000000001.model"},{"gen":2,"file":"000000000002.model"}]}`))
	f.Add([]byte(`{"series":"pv","current":9,"generations":[{"gen":1,"file":"../../etc/passwd"}]}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"generations":[{"gen":2},{"gen":1}]}`))
	valid, _ := json.Marshal(Manifest{Series: "pv", Current: 1, Generations: []Generation{{Gen: 1, File: "000000000001.model"}}})
	f.Add(valid)
	// Kind-tagged seeds: a valid set (verdict mirrored into the top-level
	// fields), a duplicate kind, a missing verdict entry, a path escape in a
	// secondary kind, and a broken top-level mirror.
	multi := Manifest{Series: "pv", Current: 1, Generations: []Generation{{
		Gen: 1, File: "000000000001.model", CRC: 7, Size: 3,
		Artifacts: []ArtifactRef{
			{Kind: KindVerdict, File: "000000000001.model", CRC: 7, Size: 3},
			{Kind: KindType, File: "000000000001.atype.model", CRC: 9, Size: 5},
		},
	}}}
	validMulti, _ := json.Marshal(multi)
	f.Add(validMulti)
	f.Add([]byte(`{"current":1,"generations":[{"gen":1,"file":"a","artifacts":[{"kind":"atype","file":"a"},{"kind":"atype","file":"b"}]}]}`))
	f.Add([]byte(`{"current":1,"generations":[{"gen":1,"file":"a","artifacts":[{"kind":"atype","file":"b"}]}]}`))
	f.Add([]byte(`{"current":1,"generations":[{"gen":1,"file":"a","artifacts":[{"kind":"verdict","file":"a"},{"kind":"atype","file":"../x"}]}]}`))
	f.Add([]byte(`{"current":1,"generations":[{"gen":1,"file":"a","crc":1,"artifacts":[{"kind":"verdict","file":"a","crc":2}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		man, err := ParseManifest(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptManifest) {
				t.Fatalf("parse error %v does not wrap ErrCorruptManifest", err)
			}
			return
		}
		// A valid manifest must survive a marshal/parse round trip.
		out, err := json.Marshal(man)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		again, err := ParseManifest(out)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if man.Current != again.Current || len(man.Generations) != len(again.Generations) {
			t.Fatalf("round trip changed the manifest: %+v vs %+v", man, again)
		}
	})
}

func TestFrameRejectsDamage(t *testing.T) {
	payload := []byte("some model bytes")
	data := frame(payload)
	if got, _, err := unframe(data); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %q err=%v", got, err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"truncated header": func(b []byte) []byte { return b[:10] },
		"bad magic":        func(b []byte) []byte { c := append([]byte(nil), b...); c[0] ^= 0xFF; return c },
		"short payload":    func(b []byte) []byte { return b[:len(b)-1] },
		"flipped payload":  func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)-1] ^= 0x01; return c },
	} {
		if _, _, err := unframe(mutate(data)); !errors.Is(err, ErrCorruptArtifact) {
			t.Errorf("%s: err = %v, want ErrCorruptArtifact", name, err)
		}
	}
}
