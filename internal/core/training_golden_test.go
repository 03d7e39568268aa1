package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"opprentice/internal/detectors"
	"opprentice/internal/kpigen"
	"opprentice/internal/ml/forest"
)

var updateTrainingGolden = flag.Bool("update", false, "rewrite testdata/training.golden from this run's training rounds")

// trainingGolden holds one line per KPI, predictor and field:
// "<kpi>/<predictor> <field> <value>".
const trainingGolden = "testdata/training.golden"

// TestTrainingRoundGolden pins what a first training round produces — the
// verdict forest and the type head (SHA-256 of their codec records, and of
// the flat node arrays their inference walks, which their saved artifacts
// must decode back to) and the
// threshold the monitor starts from (Float64bits: the cross-validated cThld
// under EWMA, the POT threshold fitted on the held-out scores under EVT) — on
// nine hourly weeks of kpigen PV, SR and SRT under both predictors, at
// GOMAXPROCS 1, 2 and 4: the presort, the binning, the extraction and the
// trees fan out over that many workers, and no count may move a byte. A
// change to the fit that keeps forests bit-identical must pass it unedited;
// one that means to move them regenerates the file with -update and says why
// in CHANGES.md.
func TestTrainingRoundGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			checkTrainingGolden(t, trainingRoundLines(t), *updateTrainingGolden && procs == 1)
		})
	}
}

// trainingRoundLines trains the golden's rounds and renders them as its
// lines.
func trainingRoundLines(t *testing.T) []string {
	var got []string
	for _, p := range kpigen.Profiles(kpigen.Small) {
		p.Interval, p.Weeks = time.Hour, 9
		d := kpigen.Generate(p, evtSeed)
		types := kpigen.TypedLabels(d)
		for _, kind := range []PredictorKind{PredictEWMA, PredictEVT} {
			dets, err := detectors.Registry(p.Interval)
			if err != nil {
				t.Fatal(err)
			}
			mon, err := NewMonitor(d.Series, d.Labels, dets, MonitorConfig{
				Forest: forest.Config{Trees: 20, Seed: evtSeed}, Predictor: kind, TypeLabels: types,
			})
			if err != nil {
				t.Fatal(err)
			}
			if mon.typeModel == nil {
				t.Fatalf("%s/%v: typed labels did not train a head", p.Name, kind)
			}
			threshold := "cv_cthld"
			if kind == PredictEVT {
				threshold = "evt_threshold"
			}
			at := fmt.Sprintf("%s/%v", p.Name, kind)
			forestFlat := sha256.Sum256(flatBytes(mon.model.Append(nil), false))
			headFlat := sha256.Sum256(flatBytes(mon.typeModel.Append(nil), true))
			got = append(got,
				fmt.Sprintf("%s forest %x", at, sha256.Sum256(mon.model.Append(nil))),
				fmt.Sprintf("%s forest_flat %x", at, forestFlat),
				fmt.Sprintf("%s type_head %x", at, sha256.Sum256(mon.typeModel.Append(nil))),
				fmt.Sprintf("%s type_head_flat %x", at, headFlat),
				fmt.Sprintf("%s %s %#016x", at, threshold, math.Float64bits(mon.cthld)))

			// The artifacts decode back to the very arrays they were saved from.
			var verdict, typed bytes.Buffer
			if err := mon.SaveModel(&verdict); err != nil {
				t.Fatal(err)
			}
			if err := mon.SaveTypeModel(&typed); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadMonitor(&verdict, d.Series, dets, LoadConfig{Trees: 20})
			if err != nil {
				t.Fatal(err)
			}
			if err := loaded.RestoreTypeModel(&typed); err != nil {
				t.Fatal(err)
			}
			if sha256.Sum256(flatBytes(loaded.model.Append(nil), false)) != forestFlat {
				t.Errorf("%s: the decoded verdict artifact walks other nodes than were saved", at)
			}
			if sha256.Sum256(flatBytes(loaded.typeModel.Append(nil), true)) != headFlat {
				t.Errorf("%s: the decoded type artifact walks other nodes than were saved", at)
			}
		}
	}
	return got
}

// flatBytes returns the roots and flat nodes of a forest record, or of every
// head of a multi-class record in order, as the codec stores them: the
// record's bytes after its d, root-count and node-count header.
func flatBytes(rec []byte, multi bool) []byte {
	one := func(rec []byte) (flat, rest []byte) {
		roots, nodes := binary.LittleEndian.Uint32(rec[4:]), binary.LittleEndian.Uint32(rec[8:])
		end := 12 + 4*int(roots) + 16*int(nodes)
		return rec[12:end], rec[end:]
	}
	if !multi {
		flat, _ := one(rec)
		return flat
	}
	var out []byte
	heads, rec := int(rec[0]), rec[1:]
	for k := 0; k < heads; k++ {
		var flat []byte
		flat, rec = one(rec[1:]) // after the head's class code
		out = append(out, flat...)
	}
	return out
}

// checkTrainingGolden compares got line by line against the golden file,
// rewriting the file first when update is set.
func checkTrainingGolden(t *testing.T, got []string, update bool) {
	if update {
		if err := os.WriteFile(trainingGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(trainingGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{} // "<kpi>/<predictor> <field>" → value
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			want[line[:i]] = line[i+1:]
		}
	}
	for _, line := range got {
		i := strings.LastIndexByte(line, ' ')
		key, value := line[:i], line[i+1:]
		w, ok := want[key]
		delete(want, key)
		kpi, field, _ := strings.Cut(key, " ")
		switch {
		case !ok:
			t.Errorf("%s: %s = %s is not in %s", kpi, field, value, trainingGolden)
		case value != w:
			t.Errorf("%s: %s = %s, golden %s", kpi, field, value, w)
		}
	}
	for key := range want {
		t.Errorf("%s: no round produced %q", trainingGolden, key)
	}
}
