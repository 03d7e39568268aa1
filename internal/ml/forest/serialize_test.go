package forest

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"
)

func TestForestSaveLoadWithinPackage(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cols, labels := makeBlobs(500, 2, rng)
	f := Train(cols, labels, Config{Trees: 7, Seed: 1})
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := f.ProbAll(cols), g.ProbAll(cols)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestForestLoadRejectsEmptyAndVersion(t *testing.T) {
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty snapshot accepted")
	}
	// A snapshot with no trees must be rejected even if it decodes.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(forestDTO{Version: serializationVersion}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Error("tree-less snapshot accepted")
	}
	// A wrong-version snapshot must be rejected.
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(forestDTO{Version: 99, Trees: [][]byte{{1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Error("future-version snapshot accepted")
	}
}
