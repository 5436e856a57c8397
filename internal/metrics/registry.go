// Package metrics is the exposition half of the engine's observability
// stack: a typed metric registry (counters, gauges, label-set
// histograms) whose contents flatten once into samples that render as
// deterministic Prometheus text exposition format, plus the admin
// HTTP surface (/metrics, /healthz, /debug/queries) that bluserve,
// blubench and blushell mount.
//
// internal/monitor aggregates telemetry inside the process; this
// package is how it gets out. Collect snapshots a monitor, a scheduler
// and a device fleet into a fresh Registry on every scrape, so the
// registry itself carries no long-lived state and every render is a
// pure function of the sources — the property the golden-file tests
// rely on.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"blugpu/internal/monitor"
)

// Type is a metric family's type, named after the Prometheus kinds.
type Type string

// Metric family types.
const (
	CounterType   Type = "counter"
	GaugeType     Type = "gauge"
	HistogramType Type = "histogram"
)

// Label is one name=value label pair.
type Label struct {
	Name  string
	Value string
}

// L builds a label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Bucket is one cumulative histogram bucket: the count of observations
// at or below UpperBound (seconds). It is monitor.Hist's own bucket
// type — monitor.Hist is the only thing in the tree that takes samples;
// a Histogram here only carries a snapshot of one out.
type Bucket = monitor.HistBucket

// series is one labeled time series within a family.
type series struct {
	labels []Label // sorted by name
	value  float64 // counter/gauge value; histogram sum
	count  uint64  // histogram observation count
	bucket []Bucket
}

// family groups the series of one metric name.
type family struct {
	name   string
	help   string
	typ    Type
	series map[string]*series // keyed by canonical label encoding
}

// Registry holds metric families. Safe for concurrent use; renders
// deterministically (families sorted by name, series by label set,
// buckets by bound).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family returns (creating if needed) the named family. A name reused
// with a different type panics: that is a programming error, not data.
func (r *Registry) family(name, help string, typ Type) *family {
	name = SanitizeName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: family %q redefined as %s (was %s)", name, typ, f.typ))
	}
	return f
}

// seriesFor returns (creating if needed) the series with the given
// labels, which are normalized: names sanitized, pairs sorted.
func (f *family) seriesFor(labels []Label) *series {
	norm := normalizeLabels(labels)
	key := labelKey(norm)
	s := f.series[key]
	if s == nil {
		s = &series{labels: norm}
		f.series[key] = s
	}
	return s
}

// Counter is a monotonically accumulating series handle.
type Counter struct {
	f *Counter0
	s *series
}

// Counter0 is a counter family; With selects a labeled series.
type Counter0 struct {
	r *Registry
	f *family
}

// Counter declares (or fetches) a counter family.
func (r *Registry) Counter(name, help string) *Counter0 {
	return &Counter0{r: r, f: r.family(name, help, CounterType)}
}

// With returns the series for the given labels.
func (c *Counter0) With(labels ...Label) *Counter {
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	return &Counter{f: c, s: c.f.seriesFor(labels)}
}

// Add accumulates v; negative deltas are ignored (counters only rise).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	c.f.r.mu.Lock()
	c.s.value += v
	c.f.r.mu.Unlock()
}

// AddUint accumulates an unsigned count.
func (c *Counter) AddUint(v uint64) { c.Add(float64(v)) }

// Gauge0 is a gauge family; With selects a labeled series.
type Gauge0 struct {
	r *Registry
	f *family
}

// Gauge is a settable series handle.
type Gauge struct {
	f *Gauge0
	s *series
}

// Gauge declares (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string) *Gauge0 {
	return &Gauge0{r: r, f: r.family(name, help, GaugeType)}
}

// With returns the series for the given labels.
func (g *Gauge0) With(labels ...Label) *Gauge {
	g.r.mu.Lock()
	defer g.r.mu.Unlock()
	return &Gauge{f: g, s: g.f.seriesFor(labels)}
}

// Set assigns the gauge value.
func (g *Gauge) Set(v float64) {
	g.f.r.mu.Lock()
	g.s.value = v
	g.f.r.mu.Unlock()
}

// Histogram0 is a histogram family; With selects a labeled series.
type Histogram0 struct {
	r *Registry
	f *family
}

// Histogram is a labeled histogram series handle.
type Histogram struct {
	f *Histogram0
	s *series
}

// Histogram declares (or fetches) a histogram family.
func (r *Registry) Histogram(name, help string) *Histogram0 {
	return &Histogram0{r: r, f: r.family(name, help, HistogramType)}
}

// With returns the series for the given labels.
func (h *Histogram0) With(labels ...Label) *Histogram {
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	return &Histogram{f: h, s: h.f.seriesFor(labels)}
}

// SetCumulative installs a pre-aggregated distribution wholesale:
// cumulative buckets (ascending bounds, non-decreasing counts), the sum
// of all observations in seconds, and the observation count. This is
// how monitor.Hist snapshots (and the Go runtime's own distributions)
// land here; a Histogram has no other way in.
func (h *Histogram) SetCumulative(buckets []Bucket, sum float64, count uint64) {
	h.f.r.mu.Lock()
	defer h.f.r.mu.Unlock()
	h.s.bucket = append([]Bucket(nil), buckets...)
	sort.Slice(h.s.bucket, func(i, j int) bool { return h.s.bucket[i].UpperBound < h.s.bucket[j].UpperBound })
	h.s.value = sum
	h.s.count = count
}

// SanitizeName maps s onto the Prometheus metric/label name alphabet
// [a-zA-Z_:][a-zA-Z0-9_:]*, replacing every invalid rune with '_' and
// prefixing '_' when the first rune would be invalid. Empty input
// becomes "_".
func SanitizeName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else if i == 0 && r >= '0' && r <= '9' {
			b.WriteByte('_')
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// normalizeLabels sanitizes names and sorts pairs by name (then value,
// so duplicate names stay deterministic rather than undefined).
func normalizeLabels(labels []Label) []Label {
	out := make([]Label, len(labels))
	for i, l := range labels {
		out[i] = Label{Name: SanitizeName(l.Name), Value: l.Value}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// labelKey canonically encodes a normalized label set.
func labelKey(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte(',')
	}
	return b.String()
}
