package registry

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func mustPublishSet(t *testing.T, r *Registry, series string, gen int, kinds ...string) Generation {
	t.Helper()
	payloads := map[string][]byte{
		KindVerdict: []byte(fmt.Sprintf("verdict payload generation %d", gen)),
	}
	for _, k := range kinds {
		payloads[k] = []byte(fmt.Sprintf("%s payload generation %d", k, gen))
	}
	g, err := r.PublishSet(series, Info{
		Fingerprint: 0xfeed,
		Points:      gen * 100,
		CThld:       0.5,
		TrainedAt:   time.Date(2015, 1, gen, 0, 0, 0, 0, time.UTC),
	}, payloads)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPublishSetLoadSetRoundTrip(t *testing.T) {
	r := openTest(t, 3)
	g := mustPublishSet(t, r, "pv", 1, KindType)
	if len(g.Artifacts) != 2 || g.Artifacts[0].Kind != KindVerdict || g.Artifacts[1].Kind != KindType {
		t.Fatalf("artifacts = %+v, want [verdict atype]", g.Artifacts)
	}
	// The legacy mirror fields must duplicate the verdict artifact.
	if g.File != g.Artifacts[0].File || g.CRC != g.Artifacts[0].CRC || g.Size != g.Artifacts[0].Size {
		t.Fatalf("legacy fields do not mirror the verdict ref: %+v", g)
	}
	set, err := r.LoadSet("pv")
	if err != nil {
		t.Fatal(err)
	}
	if string(set.Payloads[KindVerdict]) != "verdict payload generation 1" {
		t.Fatalf("verdict payload = %q", set.Payloads[KindVerdict])
	}
	if string(set.Payloads[KindType]) != "atype payload generation 1" {
		t.Fatalf("type payload = %q", set.Payloads[KindType])
	}
	if len(set.Unavailable) != 0 {
		t.Fatalf("unavailable = %v, want none", set.Unavailable)
	}
}

func TestPublishSetRequiresVerdict(t *testing.T) {
	r := openTest(t, 3)
	if _, err := r.PublishSet("pv", Info{}, map[string][]byte{KindType: []byte("x")}); err == nil {
		t.Fatal("publish without a verdict payload succeeded")
	}
	if _, err := r.PublishSet("pv", Info{}, map[string][]byte{KindVerdict: []byte("x"), "Bad/Kind": []byte("y")}); err == nil {
		t.Fatal("publish with an invalid kind succeeded")
	}
}

// TestTornTypeArtifactQuarantinesOnlyThatKind: a flipped bit in the type
// artifact costs the type head, not the generation — the verdict still
// serves from the same generation and the damaged file is set aside.
func TestTornTypeArtifactQuarantinesOnlyThatKind(t *testing.T) {
	r := openTest(t, 3)
	g := mustPublishSet(t, r, "pv", 1, KindType)
	dir := filepath.Join(r.dir, "pv")
	tpath := filepath.Join(dir, g.Artifacts[1].File)
	data, err := os.ReadFile(tpath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF
	if err := os.WriteFile(tpath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	set, err := r.LoadSet("pv")
	if err != nil {
		t.Fatal(err)
	}
	if set.Gen != 1 {
		t.Fatalf("served gen %d, want 1 (verdict must not fall back on the type head's account)", set.Gen)
	}
	if string(set.Payloads[KindVerdict]) != "verdict payload generation 1" {
		t.Fatalf("verdict payload = %q", set.Payloads[KindVerdict])
	}
	if _, ok := set.Payloads[KindType]; ok {
		t.Fatal("damaged type payload was served")
	}
	if len(set.Unavailable) != 1 || set.Unavailable[0] != KindType {
		t.Fatalf("unavailable = %v, want [atype]", set.Unavailable)
	}
	if _, err := os.Stat(tpath + ".corrupt"); err != nil {
		t.Fatalf("damaged type artifact not quarantined: %v", err)
	}
	if got := r.Stats().ChecksumFailures; got != 1 {
		t.Fatalf("ChecksumFailures = %d, want 1", got)
	}
}

// TestTornVerdictFallsBackWholeGeneration: verdict damage still walks back a
// whole generation, and the older generation's full kind set is served.
func TestTornVerdictFallsBackWholeGeneration(t *testing.T) {
	r := openTest(t, 3)
	mustPublishSet(t, r, "pv", 1, KindType)
	g2 := mustPublishSet(t, r, "pv", 2, KindType)
	dir := filepath.Join(r.dir, "pv")
	vpath := filepath.Join(dir, g2.File)
	data, err := os.ReadFile(vpath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF
	if err := os.WriteFile(vpath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	set, err := r.LoadSet("pv")
	if err != nil {
		t.Fatal(err)
	}
	if set.Gen != 1 {
		t.Fatalf("served gen %d, want fallback to 1", set.Gen)
	}
	if string(set.Payloads[KindType]) != "atype payload generation 1" {
		t.Fatalf("fallback type payload = %q", set.Payloads[KindType])
	}
	man, err := r.Manifest("pv")
	if err != nil {
		t.Fatal(err)
	}
	if man.Current != 1 {
		t.Fatalf("fallback not persisted: current = %d", man.Current)
	}
}

func TestQuarantineKind(t *testing.T) {
	r := openTest(t, 3)
	g := mustPublishSet(t, r, "pv", 1, KindType)
	if err := r.QuarantineKind("pv", g.Gen, KindType); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(r.dir, "pv")
	if _, err := os.Stat(filepath.Join(dir, g.Artifacts[1].File) + ".corrupt"); err != nil {
		t.Fatalf("type artifact not set aside: %v", err)
	}
	set, err := r.LoadSet("pv")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := set.Payloads[KindType]; ok {
		t.Fatal("quarantined kind still served")
	}
	if err := r.QuarantineKind("pv", g.Gen, "nosuch"); err == nil {
		t.Fatal("quarantining an unknown kind succeeded")
	}
	if err := r.QuarantineKind("pv", 99, KindType); err == nil {
		t.Fatal("quarantining an unknown generation succeeded")
	}
}

// TestQuarantineGenerationSetsAsideAllKinds: whole-generation quarantine
// (a snapshot that decodes but cannot load) discredits every kind.
func TestQuarantineGenerationSetsAsideAllKinds(t *testing.T) {
	r := openTest(t, 3)
	mustPublishSet(t, r, "pv", 1, KindType)
	g2 := mustPublishSet(t, r, "pv", 2, KindType)
	if err := r.Quarantine("pv", g2.Gen); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(r.dir, "pv")
	for _, ref := range g2.Artifacts {
		if _, err := os.Stat(filepath.Join(dir, ref.File) + ".corrupt"); err != nil {
			t.Fatalf("%s artifact not set aside: %v", ref.Kind, err)
		}
	}
	set, err := r.LoadSet("pv")
	if err != nil {
		t.Fatal(err)
	}
	if set.Gen != 1 {
		t.Fatalf("served gen %d, want fallback to 1", set.Gen)
	}
}

// TestRollbackRestoresFullKindSet: rolling back serves the older
// generation's verdict AND type artifacts bitwise.
func TestRollbackRestoresFullKindSet(t *testing.T) {
	r := openTest(t, 3)
	mustPublishSet(t, r, "pv", 1, KindType)
	mustPublishSet(t, r, "pv", 2, KindType)
	man, err := r.Rollback("pv")
	if err != nil {
		t.Fatal(err)
	}
	if man.Current != 1 {
		t.Fatalf("rollback current = %d, want 1", man.Current)
	}
	set, err := r.LoadSet("pv")
	if err != nil {
		t.Fatal(err)
	}
	if string(set.Payloads[KindVerdict]) != "verdict payload generation 1" ||
		string(set.Payloads[KindType]) != "atype payload generation 1" {
		t.Fatalf("rollback payloads = %q / %q", set.Payloads[KindVerdict], set.Payloads[KindType])
	}
}

// TestRetentionPrunesAllKinds: pruning a generation removes every kind's
// file, not just the verdict's.
func TestRetentionPrunesAllKinds(t *testing.T) {
	r := openTest(t, 2)
	for i := 1; i <= 4; i++ {
		mustPublishSet(t, r, "pv", i, KindType)
	}
	dir := filepath.Join(r.dir, "pv")
	for gen := 1; gen <= 2; gen++ {
		for _, name := range []string{genFileName(uint64(gen)), kindFileName(uint64(gen), KindType)} {
			if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("pruned gen %d file %s still on disk (err=%v)", gen, name, err)
			}
		}
	}
	for gen := 3; gen <= 4; gen++ {
		for _, name := range []string{genFileName(uint64(gen)), kindFileName(uint64(gen), KindType)} {
			if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
				t.Errorf("kept gen %d file %s missing: %v", gen, name, err)
			}
		}
	}
}

// TestQuarantineKindCountsOnlyARename: a kind whose file is already gone is
// tolerated, but nothing was set aside, so nothing is counted.
func TestQuarantineKindCountsOnlyARename(t *testing.T) {
	r := openTest(t, 3)
	g := mustPublishSet(t, r, "pv", 1, KindType)
	if err := os.Remove(filepath.Join(r.dir, "pv", g.Ref(KindType).File)); err != nil {
		t.Fatal(err)
	}
	if err := r.QuarantineKind("pv", g.Gen, KindType); err != nil {
		t.Fatal(err)
	}
	if n := r.Stats().ChecksumFailures; n != 0 {
		t.Fatalf("quarantining a missing file counted %d checksum failures, want 0", n)
	}
}

// TestParseManifestRequiresArtifacts: a generation without its artifact set,
// the shape manifests had before kind-tagged artifacts, is corrupt.
func TestParseManifestRequiresArtifacts(t *testing.T) {
	_, err := ParseManifest([]byte(`{"series":"pv","current":1,"generations":[{"gen":1,"file":"000000000001.model","crc":7,"size":3}]}`))
	if !errors.Is(err, ErrCorruptManifest) {
		t.Fatalf("a generation without artifacts: err = %v, want ErrCorruptManifest", err)
	}
}
