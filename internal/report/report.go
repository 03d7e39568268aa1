// Package report renders values as inline SVG sparklines, for the daemon's
// dashboard and evalbench's HTML report.
package report

import (
	"fmt"
	"html/template"
	"strings"
)

// Sparkline renders values as a self-contained SVG polyline, for embedding
// in reports and dashboards. It returns an empty fragment for empty input.
func Sparkline(vals []float64, width, height int) template.HTML {
	if len(vals) == 0 {
		return ""
	}
	return template.HTML(sparkline(vals, width, height))
}

// sparkline renders values as a simple SVG polyline.
func sparkline(vals []float64, width, height int) string {
	minV, maxV := vals[0], vals[0]
	for _, v := range vals {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if maxV == minV {
		maxV = minV + 1
	}
	var pts strings.Builder
	for i, v := range vals {
		x := float64(i) / float64(max(len(vals)-1, 1)) * float64(width-4)
		y := (maxV - v) / (maxV - minV) * float64(height-4)
		fmt.Fprintf(&pts, "%.1f,%.1f ", x+2, y+2)
	}
	return fmt.Sprintf(
		`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" role="img">`+
			`<polyline fill="none" stroke="#2962a8" stroke-width="1.5" points="%s"/>`+
			`<text x="2" y="10" font-size="9" fill="#777">%.3g..%.3g</text></svg>`,
		width, height, strings.TrimSpace(pts.String()), minV, maxV)
}
