package metrics

// Sample is one flattened sample point: the structured twin of a text
// exposition sample line. Histograms flatten exactly as WriteText
// renders them — per-bucket <name>_bucket series with an le label
// (including the +Inf bucket), plus <name>_sum and <name>_count — so a
// consumer storing Samples over time holds the same series a Prometheus
// server scraping /metrics would.
type Sample struct {
	Name   string
	Labels []Label // sorted by name; histogram buckets carry le last
	Value  float64
}

// Samples flattens the registry into sample points in the same
// deterministic order as the text exposition: families sorted by name,
// series by canonical label key, buckets ascending. internal/obsd's
// self-scraper is the consumer — every Collect snapshot becomes one
// column of ring-buffer history.
func (r *Registry) Samples() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Sample
	for _, f := range r.snapshotLocked() {
		if len(f.series) == 0 {
			continue
		}
		for _, s := range f.sortedSeries() {
			switch f.typ {
			case HistogramType:
				for _, b := range s.bucket {
					out = append(out, Sample{
						Name:   f.name + "_bucket",
						Labels: appendLabel(s.labels, L("le", formatFloat(b.UpperBound.Seconds()))),
						Value:  float64(b.CumCount),
					})
				}
				out = append(out, Sample{
					Name:   f.name + "_bucket",
					Labels: appendLabel(s.labels, L("le", "+Inf")),
					Value:  float64(s.count),
				})
				out = append(out, Sample{Name: f.name + "_sum", Labels: s.labels, Value: s.value})
				out = append(out, Sample{Name: f.name + "_count", Labels: s.labels, Value: float64(s.count)})
			default:
				out = append(out, Sample{Name: f.name, Labels: s.labels, Value: s.value})
			}
		}
	}
	return out
}

// appendLabel copies labels and appends one more, so flattened bucket
// samples never alias a series' own label slice.
func appendLabel(labels []Label, l Label) []Label {
	out := make([]Label, 0, len(labels)+1)
	out = append(out, labels...)
	return append(out, l)
}
