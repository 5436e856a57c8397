package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// snapshotLocked returns the families sorted by name and each family's
// series sorted by canonical label key. Caller holds r.mu.
func (r *Registry) snapshotLocked() []*family {
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedSeries returns a family's series in canonical label-key order.
func (f *family) sortedSeries() []*series {
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*series, len(keys))
	for i, k := range keys {
		out[i] = f.series[k]
	}
	return out
}

// WriteText renders the registry in Prometheus text exposition format
// (version 0.0.4): families sorted by name, series sorted by label set,
// histogram buckets ascending with a final +Inf bucket plus _sum and
// _count. Output is byte-deterministic for identical registry contents.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, f := range r.snapshotLocked() {
		// A declared family with no series yet (e.g. no kernels have run)
		// renders nothing: metadata-only families would fail validation
		// and carry no information.
		if len(f.series) == 0 {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.sortedSeries() {
			switch f.typ {
			case HistogramType:
				for _, b := range s.bucket {
					writeSample(bw, f.name+"_bucket", s.labels, L("le", formatFloat(b.UpperBound.Seconds())), float64(b.CumCount))
				}
				writeSample(bw, f.name+"_bucket", s.labels, L("le", "+Inf"), float64(s.count))
				writeSample(bw, f.name+"_sum", s.labels, Label{}, s.value)
				writeSample(bw, f.name+"_count", s.labels, Label{}, float64(s.count))
			default:
				writeSample(bw, f.name, s.labels, Label{}, s.value)
			}
		}
	}
	return bw.Flush()
}

// writeSample emits one sample line. extra, when non-zero, is appended
// after the series labels (the histogram le label).
func writeSample(w io.Writer, name string, labels []Label, extra Label, value float64) {
	io.WriteString(w, name)
	if len(labels) > 0 || extra.Name != "" {
		io.WriteString(w, "{")
		first := true
		for _, l := range labels {
			if !first {
				io.WriteString(w, ",")
			}
			first = false
			fmt.Fprintf(w, `%s="%s"`, l.Name, escapeLabelValue(l.Value))
		}
		if extra.Name != "" {
			if !first {
				io.WriteString(w, ",")
			}
			fmt.Fprintf(w, `%s="%s"`, extra.Name, escapeLabelValue(extra.Value))
		}
		io.WriteString(w, "}")
	}
	fmt.Fprintf(w, " %s\n", formatFloat(value))
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote and newline. The result is what goes between
// the quotes on a sample line.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP text: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a sample value deterministically: integers
// without exponent or decimal point, everything else in Go's shortest
// 'g' form, infinities as +Inf/-Inf.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatFloat(v, 'f', -1, 64)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// WriteJSON renders the registry as one structured JSON object — the
// machine-readable twin of WriteText, used by /metrics.json and the
// blubench -metrics-json event log. Families, series and labels appear
// in the same canonical order as the text form, so the output is
// byte-deterministic too.
func (r *Registry) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"families":[`)
	fi := 0
	for _, f := range r.snapshotLocked() {
		if len(f.series) == 0 {
			continue
		}
		if fi > 0 {
			bw.WriteByte(',')
		}
		fi++
		fmt.Fprintf(bw, `{"name":%q,"type":%q,"help":%q,"series":[`, f.name, f.typ, f.help)
		for si, s := range f.sortedSeries() {
			if si > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(`{"labels":{`)
			for li, l := range s.labels {
				if li > 0 {
					bw.WriteByte(',')
				}
				fmt.Fprintf(bw, `%q:%q`, l.Name, l.Value)
			}
			bw.WriteString(`}`)
			switch f.typ {
			case HistogramType:
				fmt.Fprintf(bw, `,"sum":%s,"count":%d,"buckets":[`, jsonFloat(s.value), s.count)
				for bi, b := range s.bucket {
					if bi > 0 {
						bw.WriteByte(',')
					}
					fmt.Fprintf(bw, `{"le":%s,"count":%d}`, jsonFloat(b.UpperBound.Seconds()), b.CumCount)
				}
				bw.WriteString(`]`)
			default:
				fmt.Fprintf(bw, `,"value":%s`, jsonFloat(s.value))
			}
			bw.WriteString(`}`)
		}
		bw.WriteString(`]}`)
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// jsonFloat renders a float as a JSON number (infinities, invalid in
// JSON, become strings).
func jsonFloat(v float64) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fmt.Sprintf("%q", formatFloat(v))
	}
	return formatFloat(v)
}

// --- exposition validation (the check behind `blucheck metrics`) ---

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	helpRe  = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) (.*)$`)
	typeRe  = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	valueRe = regexp.MustCompile(`^[+-]?(Inf|NaN|[0-9].*|\.[0-9].*)$`)
)

// ValidateExposition checks that data is syntactically valid Prometheus
// text exposition format and structurally sane: every sample line
// parses (name, balanced quoted labels, float value), every sample
// belongs to a declared TYPE family (histogram samples may use the
// _bucket/_sum/_count suffixes and _bucket requires an le label),
// every histogram label set has a +Inf bucket, and no series repeats.
func ValidateExposition(data []byte) error {
	types := map[string]Type{}
	seen := map[string]bool{}
	histInf := map[string]bool{}    // histogram family+labels with a +Inf bucket
	histSeries := map[string]bool{} // histogram family+labels seen at all
	samples := 0
	for ln, line := range strings.Split(string(data), "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if m := helpRe.FindStringSubmatch(line); m != nil {
				continue
			}
			if m := typeRe.FindStringSubmatch(line); m != nil {
				if _, dup := types[m[1]]; dup {
					return fmt.Errorf("metrics: line %d: duplicate TYPE for %s", lineNo, m[1])
				}
				types[m[1]] = Type(m[2])
				continue
			}
			if strings.HasPrefix(line, "# HELP") || strings.HasPrefix(line, "# TYPE") {
				return fmt.Errorf("metrics: line %d: malformed comment %q", lineNo, line)
			}
			continue // free-form comment
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("metrics: line %d: %w", lineNo, err)
		}
		samples++
		fam, suffix := name, ""
		if types[fam] == "" {
			for _, sfx := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(name, sfx)
				if base != name && types[base] == HistogramType {
					fam, suffix = base, sfx
					break
				}
			}
		}
		t, ok := types[fam]
		if !ok {
			return fmt.Errorf("metrics: line %d: sample %s has no TYPE declaration", lineNo, name)
		}
		if t == HistogramType && suffix == "" {
			return fmt.Errorf("metrics: line %d: histogram %s sample must use _bucket/_sum/_count", lineNo, fam)
		}
		le, rest := splitLE(labels)
		if suffix == "_bucket" {
			if le == "" {
				return fmt.Errorf("metrics: line %d: %s_bucket without le label", lineNo, fam)
			}
			histKey := fam + "|" + rest
			histSeries[histKey] = true
			if le == "+Inf" {
				histInf[histKey] = true
			}
		}
		serKey := name + "|" + labels
		if seen[serKey] {
			return fmt.Errorf("metrics: line %d: duplicate series %s{%s}", lineNo, name, labels)
		}
		seen[serKey] = true
		_ = value
	}
	if samples == 0 {
		return fmt.Errorf("metrics: no samples")
	}
	for k := range histSeries {
		if !histInf[k] {
			return fmt.Errorf("metrics: histogram series %s missing le=\"+Inf\" bucket", strings.ReplaceAll(k, "|", "{")+"}")
		}
	}
	return nil
}

// parseSample splits one sample line into (name, canonical label text,
// value), validating each part.
func parseSample(line string) (name, labels, value string, err error) {
	rest := line
	brace := strings.IndexByte(rest, '{')
	sp := strings.IndexByte(rest, ' ')
	if brace >= 0 && (sp < 0 || brace < sp) {
		name = rest[:brace]
		end, err := scanLabels(rest[brace+1:])
		if err != nil {
			return "", "", "", err
		}
		labels = rest[brace+1 : brace+1+end]
		rest = rest[brace+1+end+1:] // skip closing brace
	} else {
		if sp < 0 {
			return "", "", "", fmt.Errorf("sample %q missing value", line)
		}
		name = rest[:sp]
		rest = rest[sp:]
	}
	if !nameRe.MatchString(name) {
		return "", "", "", fmt.Errorf("invalid metric name %q", name)
	}
	rest = strings.TrimLeft(rest, " ")
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", "", "", fmt.Errorf("sample %q: want value [timestamp]", line)
	}
	if !valueRe.MatchString(fields[0]) {
		return "", "", "", fmt.Errorf("invalid sample value %q", fields[0])
	}
	if _, ferr := strconv.ParseFloat(strings.Replace(fields[0], "Inf", "inf", 1), 64); ferr != nil {
		return "", "", "", fmt.Errorf("invalid sample value %q", fields[0])
	}
	return name, labels, fields[0], nil
}

// scanLabels validates `name="value",...` up to the closing brace of a
// label set and returns the index of that brace within s.
func scanLabels(s string) (int, error) {
	i := 0
	for {
		if i < len(s) && s[i] == '}' {
			return i, nil
		}
		start := i
		for i < len(s) && s[i] != '=' {
			i++
		}
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label set %q", s)
		}
		if !nameRe.MatchString(s[start:i]) {
			return 0, fmt.Errorf("invalid label name %q", s[start:i])
		}
		i++ // '='
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("label value must be quoted in %q", s)
		}
		i++
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' {
				if i+1 >= len(s) {
					return 0, fmt.Errorf("dangling escape in %q", s)
				}
				switch s[i+1] {
				case '\\', '"', 'n':
				default:
					return 0, fmt.Errorf("invalid escape \\%c in %q", s[i+1], s)
				}
				i++
			}
			i++
		}
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label value in %q", s)
		}
		i++ // closing quote
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

// splitLE extracts the le label from a canonical label text and returns
// (leValue, remaining label text with le removed) for histogram-series
// grouping.
func splitLE(labels string) (le, rest string) {
	if labels == "" {
		return "", ""
	}
	var kept []string
	for _, part := range splitLabelParts(labels) {
		if strings.HasPrefix(part, `le="`) {
			le = strings.TrimSuffix(strings.TrimPrefix(part, `le="`), `"`)
			continue
		}
		kept = append(kept, part)
	}
	return le, strings.Join(kept, ",")
}

// splitLabelParts splits canonical label text on commas outside quotes.
func splitLabelParts(s string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
