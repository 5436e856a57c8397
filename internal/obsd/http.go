package obsd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"blugpu/internal/metrics"
)

// Mount registers the store's HTTP surface:
//
//	/api/v1/query_range   Prometheus-compatible range query
//	/api/v1/query         Prometheus-compatible instant query
//	/debug/alerts         rule-engine state + recent transitions (JSON)
//	/debug/dash           dependency-free HTML dashboard (inline SVG)
func (s *Store) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/api/v1/query_range", s.handleQueryRange)
	mux.HandleFunc("/api/v1/query", s.handleQuery)
	mux.HandleFunc("/debug/alerts", s.handleAlerts)
	mux.HandleFunc("/debug/dash", s.handleDash)
}

// apiError writes the Prometheus API error envelope.
func apiError(w http.ResponseWriter, status int, errType, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{
		"status":    "error",
		"errorType": errType,
		"error":     msg,
	})
}

// parseTime accepts unix seconds (float) or RFC3339.
func parseTime(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, fmt.Errorf("missing time parameter")
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		sec := int64(f)
		return time.Unix(sec, int64((f-float64(sec))*1e9)).UTC(), nil
	}
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return time.Time{}, fmt.Errorf("bad time %q", s)
	}
	return t.UTC(), nil
}

// parseStep accepts a duration string or bare seconds.
func parseStep(s string) (time.Duration, error) {
	if s == "" {
		return 0, fmt.Errorf("missing step parameter")
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return time.Duration(f * float64(time.Second)), nil
	}
	return time.ParseDuration(s)
}

// promPair marshals one [ts, "value"] pair with millisecond timestamp
// precision and exposition-style value formatting — byte-stable.
type promPair RangePoint

func (p promPair) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`[%s,%q]`, strconv.FormatFloat(p.T, 'f', 3, 64), metrics.FormatValue(p.V))), nil
}

// promSeries is one matrix/vector entry in the Prometheus API shape.
// encoding/json sorts map keys, so the metric object is deterministic.
type promSeries struct {
	Metric map[string]string `json:"metric"`
	Values []promPair        `json:"values,omitempty"`
	Value  *promPair         `json:"value,omitempty"`
}

func writeMatrix(w http.ResponseWriter, series []RangeSeries) {
	result := make([]promSeries, 0, len(series))
	for _, rs := range series {
		ps := promSeries{Metric: labelsToMap(rs.Name, rs.Labels)}
		for _, p := range rs.Points {
			ps.Values = append(ps.Values, promPair(p))
		}
		result = append(result, ps)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status": "success",
		"data": map[string]any{
			"resultType": "matrix",
			"result":     result,
		},
	})
}

func (s *Store) handleQueryRange(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	expr := q.Get("query")
	if expr == "" {
		apiError(w, http.StatusBadRequest, "bad_data", "missing query parameter")
		return
	}
	start, err := parseTime(q.Get("start"))
	if err != nil {
		apiError(w, http.StatusBadRequest, "bad_data", "start: "+err.Error())
		return
	}
	end, err := parseTime(q.Get("end"))
	if err != nil {
		apiError(w, http.StatusBadRequest, "bad_data", "end: "+err.Error())
		return
	}
	step, err := parseStep(q.Get("step"))
	if err != nil {
		apiError(w, http.StatusBadRequest, "bad_data", "step: "+err.Error())
		return
	}
	series, err := s.QueryRange(expr, start, end, step)
	if err != nil {
		apiError(w, http.StatusBadRequest, "bad_data", err.Error())
		return
	}
	writeMatrix(w, series)
}

func (s *Store) handleQuery(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	expr := q.Get("query")
	if expr == "" {
		apiError(w, http.StatusBadRequest, "bad_data", "missing query parameter")
		return
	}
	ts := q.Get("time")
	var t time.Time
	if ts == "" {
		t = s.clock()
	} else {
		var err error
		t, err = parseTime(ts)
		if err != nil {
			apiError(w, http.StatusBadRequest, "bad_data", "time: "+err.Error())
			return
		}
	}
	series, err := s.QueryInstant(expr, t)
	if err != nil {
		apiError(w, http.StatusBadRequest, "bad_data", err.Error())
		return
	}
	result := make([]promSeries, 0, len(series))
	for _, rs := range series {
		p := promPair(rs.Points[0])
		result = append(result, promSeries{Metric: labelsToMap(rs.Name, rs.Labels), Value: &p})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status": "success",
		"data": map[string]any{
			"resultType": "vector",
			"result":     result,
		},
	})
}

func (s *Store) handleAlerts(w http.ResponseWriter, req *http.Request) {
	snap := s.engine.snapshot()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap)
}
