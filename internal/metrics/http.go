package metrics

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// AdminMux builds the admin HTTP surface over a scrape-time source
// function:
//
//	/metrics        Prometheus text exposition of Collect(src())
//	/metrics.json   the same snapshot as structured JSON
//	/healthz        scheduler device health and circuit-breaker state
//	/debug/queries  recent per-query rollups + the tracer's flame summary
//	/debug/explain  run ?q=<sql> and return its EXPLAIN ANALYZE audit
//	                (&format=text for the text tree; JSON by default)
//
// src is called per request, so every response reflects live state.
func AdminMux(src func() Sources) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		Collect(src()).WriteText(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		Collect(src()).WriteJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		writeHealth(w, src())
	})
	mux.HandleFunc("/debug/queries", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeDebugQueries(w, src())
	})
	mux.HandleFunc("/debug/explain", func(w http.ResponseWriter, req *http.Request) {
		writeDebugExplain(w, req, src())
	})
	return mux
}

// writeDebugExplain runs the query named by ?q= through the source's
// Explain hook and renders the decision audit: JSON by default,
// &format=text for the same report as the shell renders it.
func writeDebugExplain(w http.ResponseWriter, req *http.Request, src Sources) {
	if src.Explain == nil {
		http.Error(w, "no explain source attached", http.StatusNotFound)
		return
	}
	sql := req.URL.Query().Get("q")
	if sql == "" {
		http.Error(w, "missing q parameter (the SQL to explain)", http.StatusBadRequest)
		return
	}
	rep, err := src.Explain(sql)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rep.WriteText(w)
		return
	}
	data, err := rep.JSON()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// deviceHealth is one device's entry in the /healthz body.
type deviceHealth struct {
	Device              int    `json:"device"`
	Quarantined         bool   `json:"quarantined"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Trips               uint64 `json:"breaker_trips"`
	Recoveries          uint64 `json:"breaker_recoveries"`
	ReopenAtSeconds     string `json:"reopen_at,omitempty"`
}

// healthAlerts summarizes the alert engine's contribution to /healthz.
type healthAlerts struct {
	Firing      int          `json:"firing"`
	Pending     int          `json:"pending"`
	PagesFiring int          `json:"pages_firing"`
	FiringNames []AlertState `json:"firing_alerts,omitempty"`
}

// healthBody is the /healthz response.
type healthBody struct {
	Status     string         `json:"status"` // ok | degraded | unhealthy
	GPUEnabled bool           `json:"gpu_enabled"`
	Devices    []deviceHealth `json:"devices,omitempty"`
	Alerts     *healthAlerts  `json:"alerts,omitempty"`
}

// writeHealth renders scheduler health. Status is "ok" with every
// breaker closed (or no GPU fleet at all — the CPU path serves),
// "degraded" with some devices quarantined, and "unhealthy" (HTTP 503)
// when every device is quarantined — or when the attached alert engine
// has a severity-page alert firing, so probes and admission degrade on
// the same signal an operator would page on.
func writeHealth(w http.ResponseWriter, src Sources) {
	pagesFiring := 0
	var alerts *healthAlerts
	if src.Obs != nil {
		if o := src.Obs(); o != nil && o.Alerts.Rules > 0 {
			a := o.Alerts
			pagesFiring = a.PagesFiring
			alerts = &healthAlerts{Firing: a.Firing, Pending: a.Pending, PagesFiring: a.PagesFiring}
			for _, st := range a.States {
				if st.State == AlertFiring {
					alerts.FiringNames = append(alerts.FiringNames, st)
				}
			}
		}
	}
	body := healthBody{Status: HealthStatusWith(src.Sched, pagesFiring), GPUEnabled: src.GPUEnabled, Alerts: alerts}
	if src.Sched != nil {
		for _, h := range src.Sched.Health() {
			dh := deviceHealth{
				Device:              h.Device,
				Quarantined:         h.Quarantined,
				ConsecutiveFailures: h.ConsecutiveFails,
				Trips:               h.Trips,
				Recoveries:          h.Recoveries,
			}
			if h.Quarantined {
				dh.ReopenAtSeconds = fmt.Sprintf("%.6f", float64(h.ReopenAt))
			}
			body.Devices = append(body.Devices, dh)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if body.Status == HealthUnhealthy {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.Encode(body)
}

// writeDebugQueries renders the per-query latency rollups and, when a
// tracer is attached, its flame summary.
func writeDebugQueries(w http.ResponseWriter, src Sources) {
	if src.Monitor == nil {
		fmt.Fprintln(w, "no monitor attached")
		return
	}
	queries := src.Monitor.Queries()
	fmt.Fprintf(w, "queries: %d distinct\n", len(queries))
	if len(queries) > 0 {
		fmt.Fprintf(w, "%-24s %-6s %-6s %-12s %-12s %-12s %-12s %s\n",
			"query", "runs", "gpu", "total", "p50", "p95", "p99", "max")
		for _, q := range queries {
			fmt.Fprintf(w, "%-24s %-6d %-6d %-12s %-12s %-12s %-12s %s\n",
				q.Name, q.Count, q.GPURuns, q.Total, q.P50, q.P95, q.P99, q.Max)
		}
	}
	if src.Tracer != nil {
		fmt.Fprintf(w, "\nflame summary (%d traced queries, %d spans):\n",
			src.Tracer.Queries(), src.Tracer.Held())
		src.Tracer.WriteFlame(w)
	}
	if src.Admission != nil {
		if snap := src.Admission(); snap != nil && len(snap.Recent) > 0 {
			fmt.Fprintf(w, "\nrecent requests (newest first):\n")
			fmt.Fprintf(w, "%-14s %-16s %-12s %-10s %12s %12s\n",
				"request", "query", "class", "outcome", "queue_ms", "total_ms")
			for _, rr := range snap.Recent {
				name := rr.Query
				if name == "" {
					name = "-"
				}
				slow := ""
				if rr.Slow {
					slow = "  SLOW"
				}
				fmt.Fprintf(w, "%-14s %-16s %-12s %-10s %12.3f %12.3f%s\n",
					rr.RequestID, name, rr.Class, rr.Outcome, rr.WaitMs, rr.TotalMs, slow)
			}
		}
	}
}

// MountPprof registers the net/http/pprof handlers on mux under
// /debug/pprof/. Not mounted by default — profiling endpoints expose
// stacks and timing side-channels, so serving binaries gate this
// behind a flag.
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Serve starts the admin surface on addr (host:port; port 0 picks a
// free port) and returns the server and its bound listener. The caller
// owns shutdown; serve errors after Close are swallowed.
func Serve(addr string, src func() Sources) (*http.Server, net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: AdminMux(src)}
	go srv.Serve(ln)
	return srv, ln, nil
}
