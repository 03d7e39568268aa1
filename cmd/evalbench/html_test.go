package main

import (
	"bytes"
	"strings"
	"testing"

	"opprentice/internal/experiments"
)

func TestHTMLRendersTablesAndSparks(t *testing.T) {
	tables := []*experiments.Table{
		{
			ID:      "F6",
			Title:   "PR curve",
			Columns: []string{"cthld", "recall", "precision"},
			Rows: [][]string{
				{"0.9", "0.2", "1.0"},
				{"0.5", "0.6", "0.8"},
				{"0.1", "0.9", "0.4"},
			},
			Notes: "a note with <angle brackets>",
		},
		{
			ID:      "T3",
			Title:   "inventory",
			Columns: []string{"detector", "configs"},
			Rows:    [][]string{{"ewma", "5"}, {"svd", "15"}},
		},
	}
	var buf bytes.Buffer
	if err := writeHTML(&buf, "Opprentice results", tables); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<h1>Opprentice results</h1>",
		"F6: PR curve",
		"<svg",                   // sparkline for numeric columns
		"&lt;angle brackets&gt;", // notes are escaped
		"<td>ewma</td>",          // plain tables render
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// The detector-name column must not grow a sparkline.
	if strings.Count(out, "<figure>") < 3 {
		t.Errorf("expected sparklines for the 3 numeric F6 columns, got %d figures",
			strings.Count(out, "<figure>"))
	}
}

func TestNumericColumnParsing(t *testing.T) {
	rows := [][]string{{"0.94 (tsd_mad)"}, {"57%"}, {"3/136"}, {"-"}, {""}}
	vals, ok := numericColumn(rows, 0)
	if !ok {
		t.Fatal("annotated numeric cells should parse")
	}
	want := []float64{0.94, 57, 3}
	if len(vals) != len(want) {
		t.Fatalf("vals = %v", vals)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Errorf("vals[%d] = %v, want %v", i, vals[i], want[i])
		}
	}
	if _, ok := numericColumn([][]string{{"abc"}}, 0); ok {
		t.Error("non-numeric column accepted")
	}
	if _, ok := numericColumn([][]string{{"1"}}, 3); ok {
		t.Error("missing column accepted")
	}
}

func TestHTMLOnRealExperiment(t *testing.T) {
	tabs, err := experiments.Table3(experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeHTML(&buf, "T3", tabs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Holt-Winters") {
		t.Error("real experiment content missing")
	}
}
