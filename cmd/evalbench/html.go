package main

import (
	"html/template"
	"io"
	"strconv"
	"strings"

	"opprentice/internal/experiments"
	"opprentice/internal/report"
)

// writeHTML writes a self-contained page for the given tables: every table
// becomes an HTML table with an inline SVG sparkline per numeric column, so
// the shapes the paper plots (PR curves, AUCPR series, weekly cThlds) are
// visible at a glance without external tooling.
func writeHTML(w io.Writer, title string, tables []*experiments.Table) error {
	data := page{Title: title}
	for _, t := range tables {
		ht := htmlTable{ID: t.ID, Title: t.Title, Columns: t.Columns, Rows: t.Rows, Notes: t.Notes}
		for j := range t.Columns {
			if vals, ok := numericColumn(t.Rows, j); ok && len(vals) >= 3 {
				ht.Sparks = append(ht.Sparks, spark{
					Column: t.Columns[j],
					SVG:    report.Sparkline(vals, 260, 48),
				})
			}
		}
		data.Tables = append(data.Tables, ht)
	}
	return pageTemplate.Execute(w, data)
}

type page struct {
	Title  string
	Tables []htmlTable
}

type htmlTable struct {
	ID, Title string
	Columns   []string
	Rows      [][]string
	Notes     string
	Sparks    []spark
}

type spark struct {
	Column string
	SVG    template.HTML
}

// numericColumn extracts column j when every non-empty cell parses as a
// float (ignoring trailing annotations like "%" or "(name)").
func numericColumn(rows [][]string, j int) ([]float64, bool) {
	var vals []float64
	for _, row := range rows {
		if j >= len(row) {
			return nil, false
		}
		cell := strings.TrimSuffix(strings.TrimSpace(row[j]), "%")
		if i := strings.IndexByte(cell, ' '); i > 0 {
			cell = cell[:i]
		}
		if i := strings.IndexByte(cell, '/'); i > 0 {
			cell = cell[:i]
		}
		if cell == "" || cell == "-" {
			continue
		}
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return nil, false
		}
		vals = append(vals, v)
	}
	return vals, len(vals) > 0
}

var pageTemplate = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8"><title>{{.Title}}</title>
<style>
body { font: 14px/1.4 system-ui, sans-serif; margin: 2rem auto; max-width: 72rem; color: #222; }
h2 { border-bottom: 2px solid #2962a8; padding-bottom: .2rem; }
table { border-collapse: collapse; margin: .6rem 0; }
th, td { border: 1px solid #ccc; padding: .25rem .6rem; text-align: left; font-variant-numeric: tabular-nums; }
th { background: #f0f4fa; }
pre { background: #f7f7f7; padding: .6rem; overflow-x: auto; }
.sparks { display: flex; gap: 1.2rem; flex-wrap: wrap; margin: .4rem 0; }
.sparks figure { margin: 0; }
.sparks figcaption { font-size: 11px; color: #555; }
</style></head><body>
<h1>{{.Title}}</h1>
{{range .Tables}}
<h2>{{.ID}}: {{.Title}}</h2>
{{if .Sparks}}<div class="sparks">{{range .Sparks}}<figure>{{.SVG}}<figcaption>{{.Column}}</figcaption></figure>{{end}}</div>{{end}}
{{if .Columns}}<table><thead><tr>{{range .Columns}}<th>{{.}}</th>{{end}}</tr></thead>
<tbody>{{range .Rows}}<tr>{{range .}}<td>{{.}}</td>{{end}}</tr>{{end}}</tbody></table>{{end}}
{{if .Notes}}<pre>{{.Notes}}</pre>{{end}}
{{end}}
</body></html>
`))
