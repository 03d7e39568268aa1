package forest

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

func TestForestSaveLoadWithinPackage(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cols, labels := makeBlobs(500, 2, rng)
	f := Train(cols, labels, Config{Trees: 7, Seed: 1})
	rec := f.Append([]byte("prefix"))[len("prefix"):]
	g, rest, err := Load(append(rec, "suffix"...), len(cols))
	if err != nil {
		t.Fatal(err)
	}
	if string(rest) != "suffix" {
		t.Fatalf("Load left %q after the record, want the suffix", rest)
	}
	if !bytes.Equal(g.Append(nil), rec) {
		t.Fatal("the loaded forest appends different bytes")
	}
	a, b := f.ProbAll(cols), g.ProbAll(cols)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// stumpRecord is a one-tree record over d features: an internal root at
// node 0 whose children are the leaves 1 and 2.
func stumpRecord(d int, root uint32, thr float64, left int32, feature uint16) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, uint32(d))
	b = le.AppendUint32(b, 1)
	b = le.AppendUint32(b, 3)
	b = le.AppendUint32(b, root)
	node := func(val float64, left int32, feature uint16) {
		b = le.AppendUint64(b, math.Float64bits(val))
		b = le.AppendUint32(b, uint32(left))
		b = le.AppendUint16(b, feature)
		b = append(b, 0, 0)
	}
	node(thr, left, feature)
	node(0, -1, 0)
	node(1, -1, 0)
	return b
}

func TestForestLoadRejectsMalformedRecords(t *testing.T) {
	valid := stumpRecord(2, 0, 0.5, 1, 1)
	f, rest, err := Load(valid, 2)
	if err != nil || len(rest) != 0 {
		t.Fatalf("the valid stump: %v (%d bytes left)", err, len(rest))
	}
	if p := f.Prob([]float64{0, 1}); p != 1 {
		t.Fatalf("stump votes %v for a row right of its threshold, want 1", p)
	}
	treeless := binary.LittleEndian.AppendUint32(nil, 2)
	treeless = append(treeless, make([]byte, 8)...)
	for name, c := range map[string]struct {
		b []byte
		d int
	}{
		"empty":                {nil, 2},
		"truncated header":     {valid[:recordHeader-1], 2},
		"truncated nodes":      {valid[:len(valid)-1], 2},
		"no trees":             {treeless, 2},
		"feature count":        {valid, 3},
		"root past the nodes":  {stumpRecord(2, 3, 0.5, 1, 1), 2},
		"feature past d":       {stumpRecord(2, 0, 0.5, 1, 2), 2},
		"child before parent":  {stumpRecord(2, 0, 0.5, 0, 1), 2},
		"right child past end": {stumpRecord(2, 0, 0.5, 2, 1), 2},
		"NaN threshold":        {stumpRecord(2, 0, math.NaN(), 1, 1), 2},
	} {
		if _, _, err := Load(c.b, c.d); err == nil {
			t.Errorf("%s: record accepted", name)
		}
	}
}

// walkInBounds fails t unless every root of f indexes a node and every
// internal node tests a feature below d and has both children after itself
// and inside the array, which is what makes every walk end in bounds; then
// it walks a few rows through Prob.
func walkInBounds(t *testing.T, f *Forest, d int) {
	t.Helper()
	n := len(f.flat)
	for _, r := range f.roots {
		if r < 0 || int(r) >= n {
			t.Fatalf("root %d outside %d nodes", r, n)
		}
	}
	for i, nd := range f.flat {
		if nd.Left >= 0 && (int(nd.Feature) >= d || int(nd.Left) <= i || int(nd.Left)+1 >= n) {
			t.Fatalf("node %d: feature %d of %d, children %d and %d of %d", i, nd.Feature, d, nd.Left, nd.Left+1, n)
		}
	}
	row := make([]float64, d)
	for _, v := range []float64{0, math.Inf(1), math.Inf(-1), math.NaN()} {
		for j := range row {
			row[j] = v
		}
		f.Prob(row)
	}
}

// FuzzForestDecode feeds Load and LoadMulti arbitrary bytes, as a registry
// artifact's checksum can sit over anything: neither may panic, and every
// forest either accepts walks in bounds.
func FuzzForestDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(equivalenceSeed))
	cols, labels, classes := edgeFixture(rng, 40) // small records keep minimizing cheap
	cfg := Config{Trees: 2, Seed: equivalenceSeed}
	rec := Train(cols, labels, cfg).Append(nil)
	multi := trainMulti(cols, classes, cfg).Append(nil)
	f.Add(rec, uint8(len(cols)))
	f.Add(multi, uint8(len(cols)))
	f.Add(rec[:len(rec)/2], uint8(len(cols)))
	f.Add(stumpRecord(2, 0, 0.5, 1, 1), uint8(2))
	f.Fuzz(func(t *testing.T, b []byte, d uint8) {
		if fst, _, err := Load(b, int(d)); err == nil {
			walkInBounds(t, fst, int(d))
		}
		if mc, _, err := LoadMulti(b, int(d)); err == nil {
			for _, h := range mc.heads {
				walkInBounds(t, h, int(d))
			}
			mc.PredictRow(make([]float64, d))
		}
	})
}
