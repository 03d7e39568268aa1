package forest

import (
	"bytes"
	"math/rand"
	"testing"

	"opprentice/internal/ml/tree"
)

// multiSeed pins the RNG of the multiclass tests (PR 5 seed policy).
const multiSeed int64 = 20260809

// multiFixture builds a 3-feature, 4-class training set with well-separated
// clusters so a small forest can classify it reliably.
func multiFixture(rng *rand.Rand, n int) (cols [][]float64, classes []uint8) {
	cols = make([][]float64, 3)
	for j := range cols {
		cols[j] = make([]float64, n)
	}
	classes = make([]uint8, n)
	for i := 0; i < n; i++ {
		c := uint8(rng.Intn(4)) // 0 = none, 1..3 = types
		classes[i] = c
		base := float64(c) * 10
		for j := range cols {
			cols[j][i] = base + float64(j) + 0.1*rng.NormFloat64()
		}
	}
	return cols, classes
}

func TestMultiClassTrainPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(multiSeed))
	cols, classes := multiFixture(rng, 400)
	mc := TrainMulti(tree.Presort(cols), classes, Config{Trees: 20, Seed: multiSeed})
	if mc == nil {
		t.Fatal("TrainMulti returned nil on a trainable set")
	}
	if got := mc.Classes(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Classes() = %v, want [1 2 3]", got)
	}
	correct := 0
	row := make([]float64, 3)
	for i := range classes {
		for j := range row {
			row[j] = cols[j][i]
		}
		if got, _ := mc.PredictRow(row); got == classes[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(classes)); acc < 0.9 {
		t.Fatalf("training-set accuracy %.3f, want ≥ 0.9 on separated clusters", acc)
	}
}

func TestMultiClassUntrainable(t *testing.T) {
	cols := [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}}
	if mc := TrainMulti(tree.Presort(cols), []uint8{0, 0, 0, 0}, Config{Trees: 5, Seed: multiSeed}); mc != nil {
		t.Error("all-none labels should yield a nil head")
	}
	if mc := TrainMulti(tree.Presort(cols), []uint8{2, 2, 2, 2}, Config{Trees: 5, Seed: multiSeed}); mc != nil {
		t.Error("a single class covering every row has no negatives; want nil head")
	}
}

func TestMultiClassSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(multiSeed + 1))
	cols, classes := multiFixture(rng, 200)
	mc := TrainMulti(tree.Presort(cols), classes, Config{Trees: 10, Seed: multiSeed})
	var buf bytes.Buffer
	if err := mc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMulti(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, 3)
	for i := range classes {
		for j := range row {
			row[j] = cols[j][i]
		}
		c1, p1 := mc.PredictRow(row)
		c2, p2 := got.PredictRow(row)
		if c1 != c2 || p1 != p2 {
			t.Fatalf("row %d: prediction diverged after round trip: (%d, %v) vs (%d, %v)", i, c1, p1, c2, p2)
		}
	}
}

func TestMultiClassPredictRowZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(multiSeed + 2))
	cols, classes := multiFixture(rng, 200)
	mc := TrainMulti(tree.Presort(cols), classes, Config{Trees: 10, Seed: multiSeed})
	row := []float64{10, 11, 12}
	if allocs := testing.AllocsPerRun(100, func() { mc.PredictRow(row) }); allocs != 0 {
		t.Fatalf("PredictRow allocates %.1f/op, want 0", allocs)
	}
}

func TestLoadMultiRejectsDamage(t *testing.T) {
	rng := rand.New(rand.NewSource(multiSeed + 3))
	cols, classes := multiFixture(rng, 100)
	mc := TrainMulti(tree.Presort(cols), classes, Config{Trees: 5, Seed: multiSeed})
	var buf bytes.Buffer
	if err := mc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := LoadMulti(bytes.NewReader(b[:len(b)/2])); err == nil {
		t.Error("truncated multiclass snapshot loaded without error")
	}
	if _, err := LoadMulti(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage multiclass snapshot loaded without error")
	}
}
