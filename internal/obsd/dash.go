package obsd

import (
	"fmt"
	"html"
	"net/http"
	"strings"
	"time"

	"blugpu/internal/metrics"
)

// dashPanel is one sparkline panel on /debug/dash.
type dashPanel struct {
	Title string
	Query string // expression template; %s receives the rate window
	Unit  string
}

// dashPanels are the headline series, in render order. Rate windows
// span 4 scrape steps, matching DefaultRules.
var dashPanels = []dashPanel{
	{Title: "p50 wall by class", Query: "histogram_quantile(0.50, rate(blu_serve_wall_seconds_bucket[%s]))", Unit: "s"},
	{Title: "p99 wall by class", Query: "histogram_quantile(0.99, rate(blu_serve_wall_seconds_bucket[%s]))", Unit: "s"},
	{Title: "queue depth", Query: "blu_serve_queue_depth", Unit: ""},
	{Title: "shed rate", Query: `rate(blu_serve_queries_total{outcome="shed"}[%s])`, Unit: "/s"},
	{Title: "device busy ratio", Query: "blu_device_busy_ratio", Unit: ""},
	{Title: "fusion H2D saved", Query: "rate(blu_transfer_saved_bytes_total[%s])", Unit: "B/s"},
	{Title: "SLO burn rate", Query: "blu_slo_burn_rate", Unit: "x"},
}

// sparkline geometry.
const (
	sparkW   = 240
	sparkH   = 48
	sparkPad = 4
)

// palette cycles per series within a panel; plain hex, no dependencies.
var palette = []string{"#2563eb", "#dc2626", "#16a34a", "#9333ea", "#ea580c", "#0891b2"}

// handleDash renders the dependency-free HTML dashboard: one inline
// SVG sparkline per headline panel over the retention window, plus the
// alert table. Under an injected clock the page is byte-stable.
func (s *Store) handleDash(w http.ResponseWriter, req *http.Request) {
	now := s.clock()
	start := now.Add(-s.retention)
	window := (4 * s.step).String()

	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>blu dash</title>\n")
	b.WriteString("<style>body{font:13px monospace;margin:16px;background:#fafafa;color:#111}")
	b.WriteString(".panel{display:inline-block;margin:6px;padding:8px;background:#fff;border:1px solid #ddd;vertical-align:top}")
	b.WriteString(".t{font-weight:bold;margin-bottom:4px}.leg{font-size:11px;color:#555}")
	b.WriteString("table{border-collapse:collapse;margin-top:12px}td,th{border:1px solid #ddd;padding:3px 8px;text-align:left}")
	b.WriteString(".firing{color:#dc2626;font-weight:bold}.pending{color:#ea580c}.inactive{color:#16a34a}</style></head><body>\n")
	fmt.Fprintf(&b, "<h3>blu dash</h3>\n<div class=\"leg\">as of %s · step %s · retention %s</div>\n",
		html.EscapeString(now.UTC().Format(time.RFC3339)), s.step, s.retention)

	for _, p := range dashPanels {
		expr := p.Query
		if strings.Contains(expr, "%s") {
			expr = fmt.Sprintf(expr, window)
		}
		series, err := s.QueryRange(expr, start, now, s.step)
		b.WriteString("<div class=\"panel\"><div class=\"t\">")
		b.WriteString(html.EscapeString(p.Title))
		b.WriteString("</div>\n")
		if err != nil {
			fmt.Fprintf(&b, "<div class=\"leg\">error: %s</div>", html.EscapeString(err.Error()))
		} else {
			writeSparkline(&b, series, p.Unit)
		}
		b.WriteString("</div>\n")
	}

	// Alert table.
	snap := s.engine.snapshot()
	b.WriteString("<table><tr><th>alert</th><th>severity</th><th>state</th><th>since</th><th>value</th><th>summary</th></tr>\n")
	if snap.Rules == 0 {
		b.WriteString("<tr><td colspan=\"6\">no rules loaded</td></tr>\n")
	}
	for _, st := range snap.States {
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td class=%q>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
			html.EscapeString(st.Name), html.EscapeString(st.Severity), st.State, st.State,
			html.EscapeString(st.Since), metrics.FormatValue(st.Value), html.EscapeString(st.Summary))
	}
	b.WriteString("</table>\n")

	if len(snap.Transitions) > 0 {
		b.WriteString("<table><tr><th>at</th><th>alert</th><th>→</th><th>value</th></tr>\n")
		// Newest last in the ring; render newest first.
		for i := len(snap.Transitions) - 1; i >= 0; i-- {
			tr := snap.Transitions[i]
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td class=%q>%s</td><td>%s</td></tr>\n",
				html.EscapeString(tr.At), html.EscapeString(tr.Alert), tr.To, tr.To, metrics.FormatValue(tr.Value))
		}
		b.WriteString("</table>\n")
	}
	b.WriteString("</body></html>\n")

	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write([]byte(b.String()))
}

// writeSparkline renders one panel's series as SVG polylines with a
// shared y-scale and a per-series legend line.
func writeSparkline(b *strings.Builder, series []RangeSeries, unit string) {
	if len(series) == 0 {
		b.WriteString("<div class=\"leg\">no data</div>")
		return
	}
	// Shared scale across the panel's series.
	var tMin, tMax, vMin, vMax float64
	first := true
	for _, rs := range series {
		for _, p := range rs.Points {
			if first {
				tMin, tMax, vMin, vMax = p.T, p.T, p.V, p.V
				first = false
				continue
			}
			if p.T < tMin {
				tMin = p.T
			}
			if p.T > tMax {
				tMax = p.T
			}
			if p.V < vMin {
				vMin = p.V
			}
			if p.V > vMax {
				vMax = p.V
			}
		}
	}
	if vMax == vMin {
		vMax = vMin + 1
	}
	if tMax == tMin {
		tMax = tMin + 1
	}
	sx := func(t float64) float64 {
		return sparkPad + (t-tMin)/(tMax-tMin)*(sparkW-2*sparkPad)
	}
	sy := func(v float64) float64 {
		return sparkH - sparkPad - (v-vMin)/(vMax-vMin)*(sparkH-2*sparkPad)
	}
	fmt.Fprintf(b, "<svg width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\">", sparkW, sparkH, sparkW, sparkH)
	for i, rs := range series {
		color := palette[i%len(palette)]
		var pts strings.Builder
		for j, p := range rs.Points {
			if j > 0 {
				pts.WriteByte(' ')
			}
			fmt.Fprintf(&pts, "%.2f,%.2f", sx(p.T), sy(p.V))
		}
		fmt.Fprintf(b, "<polyline fill=\"none\" stroke=%q stroke-width=\"1.5\" points=%q/>", color, pts.String())
	}
	b.WriteString("</svg>\n")
	for i, rs := range series {
		color := palette[i%len(palette)]
		last := rs.Points[len(rs.Points)-1].V
		label := seriesLegend(rs)
		fmt.Fprintf(b, "<div class=\"leg\"><span style=\"color:%s\">—</span> %s: %s%s</div>\n",
			color, html.EscapeString(label), metrics.FormatValue(last), html.EscapeString(unit))
	}
}

// seriesLegend compresses a series identity for the legend: label
// values only when present, else the metric name.
func seriesLegend(rs RangeSeries) string {
	if len(rs.Labels) == 0 {
		return rs.Name
	}
	vals := make([]string, len(rs.Labels))
	for i, l := range rs.Labels {
		vals[i] = l.Value
	}
	return strings.Join(vals, "/")
}
