package metrics

// Sample is one flattened sample point: the structured twin of a text
// exposition sample line. Histograms flatten to per-bucket
// <name>_bucket series with an le label (including the +Inf bucket),
// plus <name>_sum and <name>_count — so a consumer storing Samples over
// time holds the same series a Prometheus server scraping /metrics
// would.
type Sample struct {
	Name   string
	Labels []Label // sorted by name; histogram buckets carry le last
	Value  float64
}

// Samples flattens the registry into sample points in exposition
// order: families sorted by name, series by canonical label key,
// buckets ascending. WriteText renders exactly these samples, and
// internal/obsd's self-scraper stores them — every Collect snapshot
// becomes one column of ring-buffer history.
func (r *Registry) Samples() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Sample
	for _, f := range r.snapshotLocked() {
		out = append(out, f.samples()...)
	}
	return out
}

// samples flattens one family; a family with no series has none.
func (f *family) samples() []Sample {
	var out []Sample
	for _, s := range f.sortedSeries() {
		if f.typ != HistogramType {
			out = append(out, Sample{Name: f.name, Labels: s.labels, Value: s.value})
			continue
		}
		bucket := f.name + "_bucket"
		for _, b := range s.bucket {
			out = append(out, Sample{
				Name:   bucket,
				Labels: appendLabel(s.labels, L("le", FormatValue(b.UpperBound.Seconds()))),
				Value:  float64(b.CumCount),
			})
		}
		out = append(out,
			Sample{Name: bucket, Labels: appendLabel(s.labels, L("le", "+Inf")), Value: float64(s.count)},
			Sample{Name: f.name + "_sum", Labels: s.labels, Value: s.value},
			Sample{Name: f.name + "_count", Labels: s.labels, Value: float64(s.count)})
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
