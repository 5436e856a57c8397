package obsd

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"blugpu/internal/metrics"
)

// The query language is the Prometheus subset the dash and rules need:
//
//	name
//	name{label="value",...}                 instant vector (equality matchers)
//	rate(sel[dur])                          per-second positive-delta rate
//	delta(sel[dur])                         last - first over the window
//	histogram_quantile(φ, sel | rate(...))  bucket interpolation, grouped
//	                                        by labels minus le
//	<any of the above> OP number            filter (> >= < <= == !=)
//
// Instant selectors look back 2×Step for the newest point. Rates
// divide the summed positive deltas by the literal window, so a
// counter that moved X over rate(c[10s]) reads X/10 — deterministic
// and independent of sample phase.

// Expr is one parsed query expression.
type Expr struct {
	Quantile float64 // histogram_quantile φ
	HasQuant bool
	Fn       string // "", "rate", "delta"
	Window   time.Duration
	Name     string
	Matchers []metrics.Label // equality only
	CmpOp    string          // "", ">", ">=", "<", "<=", "==", "!="
	CmpVal   float64
	src      string
}

// String returns the original expression text.
func (e *Expr) String() string { return e.src }

// ParseExpr parses the query subset above.
func ParseExpr(input string) (*Expr, error) {
	e := &Expr{src: input}
	s := strings.TrimSpace(input)
	if s == "" {
		return nil, fmt.Errorf("obsd: empty query")
	}

	// Trailing comparison: "expr OP number".
	if op, rest, num, ok := splitComparison(s); ok {
		e.CmpOp, e.CmpVal = op, num
		s = rest
	}

	if strings.HasPrefix(s, "histogram_quantile(") {
		inner := strings.TrimPrefix(s, "histogram_quantile(")
		if !strings.HasSuffix(inner, ")") {
			return nil, fmt.Errorf("obsd: unclosed histogram_quantile in %q", input)
		}
		inner = inner[:len(inner)-1]
		comma := strings.Index(inner, ",")
		if comma < 0 {
			return nil, fmt.Errorf("obsd: histogram_quantile needs (φ, expr) in %q", input)
		}
		phi, err := strconv.ParseFloat(strings.TrimSpace(inner[:comma]), 64)
		if err != nil || phi < 0 || phi > 1 {
			return nil, fmt.Errorf("obsd: bad quantile %q in %q", inner[:comma], input)
		}
		e.Quantile, e.HasQuant = phi, true
		s = strings.TrimSpace(inner[comma+1:])
	}

	for _, fn := range []string{"rate", "delta"} {
		if strings.HasPrefix(s, fn+"(") {
			inner := strings.TrimPrefix(s, fn+"(")
			if !strings.HasSuffix(inner, ")") {
				return nil, fmt.Errorf("obsd: unclosed %s in %q", fn, input)
			}
			inner = inner[:len(inner)-1]
			lb := strings.LastIndex(inner, "[")
			if lb < 0 || !strings.HasSuffix(inner, "]") {
				return nil, fmt.Errorf("obsd: %s needs a range selector sel[dur] in %q", fn, input)
			}
			d, err := time.ParseDuration(inner[lb+1 : len(inner)-1])
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("obsd: bad range %q in %q", inner[lb+1:len(inner)-1], input)
			}
			e.Fn, e.Window = fn, d
			s = strings.TrimSpace(inner[:lb])
			break
		}
	}

	name, matchers, err := parseSelector(s)
	if err != nil {
		return nil, fmt.Errorf("obsd: %w in %q", err, input)
	}
	e.Name, e.Matchers = name, matchers
	if e.HasQuant && e.Fn == "delta" {
		return nil, fmt.Errorf("obsd: histogram_quantile over delta is not supported in %q", input)
	}
	return e, nil
}

// splitComparison peels a trailing top-level "OP number" off s.
func splitComparison(s string) (op, rest string, num float64, ok bool) {
	depth := 0
	for i := len(s) - 1; i >= 0; i-- {
		switch s[i] {
		case ')', '}', ']':
			depth++
		case '(', '{', '[':
			depth--
		case '>', '<', '=', '!':
			if depth != 0 {
				continue
			}
			start := i
			if i > 0 && (s[i-1] == '>' || s[i-1] == '<' || s[i-1] == '=' || s[i-1] == '!') {
				start = i - 1
			}
			candidate := strings.TrimSpace(s[start:])
			for _, o := range []string{">=", "<=", "==", "!=", ">", "<"} {
				if strings.HasPrefix(candidate, o) {
					n, err := strconv.ParseFloat(strings.TrimSpace(candidate[len(o):]), 64)
					if err != nil {
						return "", "", 0, false
					}
					return o, strings.TrimSpace(s[:start]), n, true
				}
			}
			return "", "", 0, false
		}
	}
	return "", "", 0, false
}

// parseSelector parses name{k="v",...}.
func parseSelector(s string) (string, []metrics.Label, error) {
	s = strings.TrimSpace(s)
	brace := strings.Index(s, "{")
	name := s
	var matchers []metrics.Label
	if brace >= 0 {
		if !strings.HasSuffix(s, "}") {
			return "", nil, fmt.Errorf("unclosed selector braces")
		}
		name = s[:brace]
		body := s[brace+1 : len(s)-1]
		for _, part := range splitMatchers(body) {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			eq := strings.Index(part, "=")
			if eq < 0 {
				return "", nil, fmt.Errorf("bad matcher %q", part)
			}
			key := strings.TrimSpace(part[:eq])
			val := strings.TrimSpace(part[eq+1:])
			if len(val) < 2 || val[0] != '"' || val[len(val)-1] != '"' {
				return "", nil, fmt.Errorf("matcher value must be quoted in %q", part)
			}
			matchers = append(matchers, metrics.L(key, val[1:len(val)-1]))
		}
	}
	name = strings.TrimSpace(name)
	if name == "" {
		return "", nil, fmt.Errorf("empty metric name")
	}
	for _, c := range name {
		if !(c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')) {
			return "", nil, fmt.Errorf("bad metric name %q", name)
		}
	}
	sort.Slice(matchers, func(i, j int) bool { return matchers[i].Name < matchers[j].Name })
	return name, matchers, nil
}

// splitMatchers splits on commas outside quotes.
func splitMatchers(s string) []string {
	var out []string
	inQ := false
	last := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inQ = !inQ
		case ',':
			if !inQ {
				out = append(out, s[last:i])
				last = i + 1
			}
		}
	}
	return append(out, s[last:])
}

// samplePoint is one instant-vector element.
type samplePoint struct {
	key    string
	name   string
	labels []metrics.Label
	v      float64
}

// matches reports whether a series satisfies the selector.
func (e *Expr) matches(sr *series, matchName string) bool {
	if sr.name != matchName {
		return false
	}
	for _, m := range e.Matchers {
		found := false
		for _, l := range sr.labels {
			if l.Name == m.Name {
				found = l.Value == m.Value
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// evalInstant evaluates e at tMs, holding s.mu.RLock for the scan.
func (s *Store) evalInstant(e *Expr, tMs int64) []samplePoint {
	s.mu.RLock()
	defer s.mu.RUnlock()
	matchName := e.Name
	if e.HasQuant {
		// histogram_quantile consumes the flattened bucket series.
		if !strings.HasSuffix(matchName, "_bucket") {
			matchName += "_bucket"
		}
	}

	var out []samplePoint
	for _, key := range s.keys {
		sr := s.series[key]
		if !e.matches(sr, matchName) {
			continue
		}
		var v float64
		var ok bool
		switch e.Fn {
		case "rate":
			v, ok = rateOver(&sr.ring, tMs, e.Window)
		case "delta":
			v, ok = deltaOver(&sr.ring, tMs, e.Window)
		default:
			v, ok = instantAt(&sr.ring, tMs, 2*s.step)
		}
		if !ok {
			continue
		}
		out = append(out, samplePoint{key: key, name: sr.name, labels: sr.labels, v: v})
	}

	if e.HasQuant {
		out = histogramQuantile(e.Quantile, matchName, out)
	}
	if e.CmpOp != "" {
		kept := out[:0]
		for _, p := range out {
			if compare(p.v, e.CmpOp, e.CmpVal) {
				kept = append(kept, p)
			}
		}
		out = kept
	}
	return out
}

func compare(v float64, op string, ref float64) bool {
	switch op {
	case ">":
		return v > ref
	case ">=":
		return v >= ref
	case "<":
		return v < ref
	case "<=":
		return v <= ref
	case "==":
		return v == ref
	case "!=":
		return v != ref
	}
	return false
}

// instantAt returns the newest point at or before tMs within lookback.
func instantAt(r *ring, tMs int64, lookback time.Duration) (float64, bool) {
	lb := tMs - lookback.Milliseconds()
	for i := r.n - 1; i >= 0; i-- {
		p := r.at(i)
		if p.t > tMs {
			continue
		}
		if p.t <= lb {
			return 0, false
		}
		return p.v, true
	}
	return 0, false
}

// rateOver sums positive deltas of points in (tMs-window, tMs] and
// divides by the window — counter resets contribute the post-reset
// value, like Prometheus.
func rateOver(r *ring, tMs int64, window time.Duration) (float64, bool) {
	lo := tMs - window.Milliseconds()
	var prev point
	havePrev := false
	sum := 0.0
	count := 0
	for i := 0; i < r.n; i++ {
		p := r.at(i)
		if p.t <= lo || p.t > tMs {
			continue
		}
		if havePrev {
			if p.v >= prev.v {
				sum += p.v - prev.v
			} else {
				sum += p.v // counter reset
			}
		}
		prev, havePrev = p, true
		count++
	}
	if count < 2 {
		return 0, false
	}
	return sum / window.Seconds(), true
}

// deltaOver returns last-first over the window (gauges).
func deltaOver(r *ring, tMs int64, window time.Duration) (float64, bool) {
	lo := tMs - window.Milliseconds()
	var first, last point
	count := 0
	for i := 0; i < r.n; i++ {
		p := r.at(i)
		if p.t <= lo || p.t > tMs {
			continue
		}
		if count == 0 {
			first = p
		}
		last = p
		count++
	}
	if count < 2 {
		return 0, false
	}
	return last.v - first.v, true
}

// histogramQuantile groups flattened bucket samples by labels minus le
// and interpolates the φ-quantile inside the target bucket, Prometheus
// style. Input samples are cumulative bucket counts (or their rates).
func histogramQuantile(phi float64, bucketName string, in []samplePoint) []samplePoint {
	type bucket struct {
		le  float64
		cum float64
	}
	groups := make(map[string]*struct {
		labels []metrics.Label
		bks    []bucket
	})
	var order []string
	name := strings.TrimSuffix(bucketName, "_bucket")
	for _, p := range in {
		var le float64
		rest := make([]metrics.Label, 0, len(p.labels))
		haveLe := false
		for _, l := range p.labels {
			if l.Name == "le" {
				v, err := strconv.ParseFloat(l.Value, 64)
				if err != nil {
					continue
				}
				le, haveLe = v, true
				continue
			}
			rest = append(rest, l)
		}
		if !haveLe {
			continue
		}
		gk := metrics.SeriesID(name, rest)
		g, ok := groups[gk]
		if !ok {
			g = &struct {
				labels []metrics.Label
				bks    []bucket
			}{labels: rest}
			groups[gk] = g
			order = append(order, gk)
		}
		g.bks = append(g.bks, bucket{le: le, cum: p.v})
	}

	var out []samplePoint
	for _, gk := range order {
		g := groups[gk]
		sort.Slice(g.bks, func(i, j int) bool { return g.bks[i].le < g.bks[j].le })
		// Enforce monotone cumulative counts (rates can jitter).
		for i := 1; i < len(g.bks); i++ {
			if g.bks[i].cum < g.bks[i-1].cum {
				g.bks[i].cum = g.bks[i-1].cum
			}
		}
		n := len(g.bks)
		if n < 2 {
			continue
		}
		total := g.bks[n-1].cum
		if total <= 0 {
			continue
		}
		rank := phi * total
		idx := 0
		for idx < n && g.bks[idx].cum < rank {
			idx++
		}
		if idx >= n {
			idx = n - 1
		}
		var v float64
		switch {
		case idx == n-1:
			// Target falls in the +Inf bucket: report the highest
			// finite bound (Prometheus behavior).
			v = g.bks[n-2].le
		default:
			lower, lowerCum := 0.0, 0.0
			if idx > 0 {
				lower, lowerCum = g.bks[idx-1].le, g.bks[idx-1].cum
			}
			upper, upperCum := g.bks[idx].le, g.bks[idx].cum
			if upperCum > lowerCum {
				v = lower + (upper-lower)*(rank-lowerCum)/(upperCum-lowerCum)
			} else {
				v = upper
			}
		}
		out = append(out, samplePoint{key: gk, name: name, labels: g.labels, v: v})
	}
	return out
}

// RangePoint is one evaluated (time, value) pair; T is unix seconds.
type RangePoint struct {
	T float64
	V float64
}

// RangeSeries is one series of a range-query matrix.
type RangeSeries struct {
	Name   string
	Labels []metrics.Label
	Points []RangePoint
}

// QueryRange evaluates expr at every step from start to end inclusive
// and groups results into a deterministic matrix (series sorted by
// identity).
func (s *Store) QueryRange(expr string, start, end time.Time, step time.Duration) ([]RangeSeries, error) {
	e, err := ParseExpr(expr)
	if err != nil {
		return nil, err
	}
	if step <= 0 {
		return nil, fmt.Errorf("obsd: non-positive step")
	}
	if end.Before(start) {
		return nil, fmt.Errorf("obsd: end before start")
	}
	if end.Sub(start)/step > 10000 {
		return nil, fmt.Errorf("obsd: range too dense (>10000 points)")
	}
	byKey := make(map[string]*RangeSeries)
	var order []string
	for t := start; !t.After(end); t = t.Add(step) {
		tMs := t.UnixMilli()
		for _, p := range s.evalInstant(e, tMs) {
			rs, ok := byKey[p.key]
			if !ok {
				rs = &RangeSeries{Name: p.name, Labels: p.labels}
				byKey[p.key] = rs
				order = append(order, p.key)
			}
			rs.Points = append(rs.Points, RangePoint{T: float64(tMs) / 1000, V: p.v})
		}
	}
	sort.Strings(order)
	out := make([]RangeSeries, 0, len(order))
	for _, k := range order {
		out = append(out, *byKey[k])
	}
	return out, nil
}

// QueryInstant evaluates expr at t, returning a deterministic vector.
func (s *Store) QueryInstant(expr string, t time.Time) ([]RangeSeries, error) {
	e, err := ParseExpr(expr)
	if err != nil {
		return nil, err
	}
	pts := s.evalInstant(e, t.UnixMilli())
	sort.Slice(pts, func(i, j int) bool { return pts[i].key < pts[j].key })
	out := make([]RangeSeries, 0, len(pts))
	for _, p := range pts {
		out = append(out, RangeSeries{
			Name:   p.name,
			Labels: p.labels,
			Points: []RangePoint{{T: float64(t.UnixMilli()) / 1000, V: p.v}},
		})
	}
	return out, nil
}
