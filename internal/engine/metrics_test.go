package engine

import (
	"reflect"
	"testing"
)

// exported flattens what the engine would export into sample → value, keyed
// the way a scrape prints it: family name plus rendered labels.
func exported(e *Engine) map[string]float64 {
	out := make(map[string]float64)
	for _, f := range e.Metrics() {
		for _, s := range f.Samples {
			out[f.Name+s.Labels] = s.Value
		}
	}
	return out
}

// TestMetricDeclarations checks the tag grammar's corners on the real
// tables: a labelled field without a metric tag joins the family above it, an
// untagged field is not exported, and the transport's families land where
// metricSet says.
func TestMetricDeclarations(t *testing.T) {
	e := newTestEngine(t)
	e.met.ModelRestoreCold.Add(3)
	e.met.TrainingMillis.Add(1250)
	fams := e.Metrics(Family{Name: "transport_row"})
	byName := make(map[string]Family)
	for i, f := range fams {
		byName[f.Name] = f
		if f.Name == "transport_row" && fams[i-1].Name != "opprenticed_trainings_total" {
			t.Errorf("transport family rendered after %s", fams[i-1].Name)
		}
	}
	if _, ok := byName["transport_row"]; !ok {
		t.Error("transport family not rendered")
	}
	want := []Sample{{"ModelRestoreWarm", `{mode="warm"}`, 0}, {"ModelRestoreCold", `{mode="cold"}`, 3}}
	if got := byName["opprenticed_model_restore_total"].Samples; !reflect.DeepEqual(got, want) {
		t.Errorf("restore family samples = %v, want %v", got, want)
	}
	if got := byName["opprenticed_training_seconds_total"].Samples[0].Value; got != 1.25 {
		t.Errorf("1250 ms of training exported as %v s", got)
	}
	if c := e.Counters(); c.ModelRestoreCold != 3 || c.TrainingMillis != 1250 {
		t.Errorf("Counters() = %+v, want the live values", c)
	}
	if _, ok := byName[""]; ok {
		t.Error("a snapshot-only field was exported as a nameless family")
	}
}
