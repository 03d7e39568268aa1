package service

import (
	"html/template"
	"net/http"
	"time"

	"opprentice/internal/engine"
	"opprentice/internal/report"
)

// dashboard is the daemon's human-facing front page (GET /): one card per
// monitored series with a sparkline of the most recent points, labeling and
// training state, and the latest alarms — the at-a-glance view an on-call
// operator wants before deciding to open the labeling tool.

// dashboardWindow is how many trailing points each sparkline shows.
const dashboardWindow = 500

type dashboardSeries struct {
	engine.Inspection
	Spark template.HTML
}

type dashboardData struct {
	Generated time.Time
	Series    []dashboardSeries
}

func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	data := dashboardData{Generated: time.Now().UTC()}
	for _, ins := range s.eng.Inspect(dashboardWindow, 5) {
		data.Series = append(data.Series, dashboardSeries{ins, report.Sparkline(ins.Recent, 420, 64)})
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = dashboardTemplate.Execute(w, data)
}

var dashboardTemplate = template.Must(template.New("dash").Parse(`<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8"><title>opprenticed</title>
<meta http-equiv="refresh" content="30">
<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 64rem; color: #222; }
.card { border: 1px solid #ddd; border-radius: 6px; padding: 1rem; margin: 1rem 0; }
.card h2 { margin: 0 0 .4rem; }
.meta { color: #555; font-size: 13px; }
.alarm { color: #b3261e; font-variant-numeric: tabular-nums; }
.empty { color: #777; }
</style></head><body>
<h1>opprenticed</h1>
<p class="meta">generated {{.Generated.Format "2006-01-02 15:04:05 MST"}} · auto-refreshes every 30 s</p>
{{if not .Series}}<p class="empty">No series yet. Create one:
<code>curl -X PUT .../v1/series/pv -d '{"interval_seconds":60,"start":"..."}'</code></p>{{end}}
{{range .Series}}
<div class="card">
<h2>{{.Name}}</h2>
<div>{{.Spark}}</div>
<p class="meta">{{.Points}} points · {{.LabeledWindows}} labeled windows ·
{{if .Trained}}trained, cThld {{printf "%.3f" .CThld}}{{else}}not trained yet{{end}}</p>
{{if .LastAlarms}}<p>recent alarms:</p><ul>
{{range .LastAlarms}}<li class="alarm">{{.Time.Format "2006-01-02 15:04"}} — value {{printf "%.4g" .Value}} (p={{printf "%.2f" .Probability}})</li>{{end}}
</ul>{{else}}<p class="empty">no alarms</p>{{end}}
</div>
{{end}}
</body></html>
`))
