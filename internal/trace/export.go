package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
	"unicode/utf8"

	"blugpu/internal/vtime"
)

// ExportChrome writes the span set as a Chrome trace-event JSON array
// (loadable in chrome://tracing or Perfetto). Every span becomes one
// complete ("ph":"X") event:
//
//   - ts/dur are the span's virtual-time bounds in microseconds,
//   - pid is the query sequence number (each query gets its own track
//     group), tid is the span's tree depth,
//   - args carries the attributes in recording order.
//
// Only virtual time is exported, so a fixed-seed run produces
// byte-identical output; wall-clock bounds appear in WriteFlame instead.
func (t *Tracer) ExportChrome(w io.Writer) error {
	spans := t.Spans()
	bw := bufio.NewWriter(w)
	bw.WriteString("[\n")
	for i, s := range spans {
		if i > 0 {
			bw.WriteString(",\n")
		}
		dur := s.End.Sub(s.Start)
		if dur < 0 {
			dur = 0
		}
		fmt.Fprintf(bw, `{"name":%s,"cat":%s,"ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d`,
			jsonString(s.Name), jsonString(s.Cat),
			float64(s.Start)*1e6, dur.Seconds()*1e6, s.Query, s.Depth)
		if len(s.Attrs) > 0 {
			bw.WriteString(`,"args":{`)
			for j, a := range s.Attrs {
				if j > 0 {
					bw.WriteByte(',')
				}
				key := a.Key
				if j > 0 && duplicateKeyBefore(s.Attrs, j) {
					key = fmt.Sprintf("%s#%d", a.Key, j)
				}
				bw.WriteString(jsonString(key))
				bw.WriteByte(':')
				if a.IsInt {
					fmt.Fprintf(bw, "%d", a.Int)
				} else {
					bw.WriteString(jsonString(a.Str))
				}
			}
			bw.WriteByte('}')
		}
		bw.WriteByte('}')
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}

// duplicateKeyBefore reports whether attrs[j].Key already appeared at a
// lower index (repeated fault attributes must stay distinct JSON keys).
func duplicateKeyBefore(attrs []Attr, j int) bool {
	for i := 0; i < j; i++ {
		if attrs[i].Key == attrs[j].Key {
			return true
		}
	}
	return false
}

// jsonString encodes s as a JSON string literal. Hand-rolled so the
// byte-stable golden test does not depend on encoding/json's escaping
// choices across Go versions.
func jsonString(s string) string {
	buf := make([]byte, 0, len(s)+2)
	buf = append(buf, '"')
	for _, r := range s {
		switch r {
		case '"':
			buf = append(buf, '\\', '"')
		case '\\':
			buf = append(buf, '\\', '\\')
		case '\n':
			buf = append(buf, '\\', 'n')
		case '\r':
			buf = append(buf, '\\', 'r')
		case '\t':
			buf = append(buf, '\\', 't')
		default:
			if r < 0x20 {
				buf = append(buf, []byte(fmt.Sprintf(`\u%04x`, r))...)
			} else {
				buf = utf8.AppendRune(buf, r)
			}
		}
	}
	return string(append(buf, '"'))
}

// chromeEvent mirrors the trace-event fields ValidateChrome checks.
type chromeEvent struct {
	Name *string        `json:"name"`
	Cat  *string        `json:"cat"`
	Ph   *string        `json:"ph"`
	Ts   *float64       `json:"ts"`
	Dur  *float64       `json:"dur"`
	Pid  *int64         `json:"pid"`
	Tid  *int64         `json:"tid"`
	Args map[string]any `json:"args"`
}

// ValidateChrome checks that data is a well-formed Chrome trace-event
// JSON array of complete events: every event must carry name, cat,
// ph=="X", non-negative ts and dur, and pid/tid. It is the schema check
// behind `blucheck trace`.
func ValidateChrome(data []byte) error {
	var events []chromeEvent
	if err := json.Unmarshal(data, &events); err != nil {
		return fmt.Errorf("trace: not a JSON event array: %w", err)
	}
	if len(events) == 0 {
		return fmt.Errorf("trace: empty event array")
	}
	for i, e := range events {
		switch {
		case e.Name == nil || *e.Name == "":
			return fmt.Errorf("trace: event %d: missing name", i)
		case e.Cat == nil || *e.Cat == "":
			return fmt.Errorf("trace: event %d: missing cat", i)
		case e.Ph == nil || *e.Ph != "X":
			return fmt.Errorf("trace: event %d: ph must be \"X\"", i)
		case e.Ts == nil || *e.Ts < 0:
			return fmt.Errorf("trace: event %d: missing or negative ts", i)
		case e.Dur == nil || *e.Dur < 0:
			return fmt.Errorf("trace: event %d: missing or negative dur", i)
		case e.Pid == nil || e.Tid == nil:
			return fmt.Errorf("trace: event %d: missing pid/tid", i)
		}
	}
	return nil
}

// WriteFlame writes a plain-text per-query flame summary: each query
// root followed by its span tree, indented by depth, with virtual-time
// durations, percentage of the query, and the root's wall-clock cost.
func (t *Tracer) WriteFlame(w io.Writer) {
	spans := t.Spans()
	children := make(map[SpanID][]int, len(spans))
	var roots []int
	for i, s := range spans {
		if s.Parent == 0 {
			roots = append(roots, i)
		} else {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	var dump func(idx int, rootDur vtime.Duration)
	dump = func(idx int, rootDur vtime.Duration) {
		s := spans[idx]
		d := s.End.Sub(s.Start)
		pct := 0.0
		if rootDur > 0 {
			pct = d.Seconds() / rootDur.Seconds() * 100
		}
		indent := 2 * s.Depth
		fmt.Fprintf(w, "%*s%-*s %12s %5.1f%%", indent, "", 36-indent, s.Cat+":"+s.Name, d, pct)
		for _, a := range s.Attrs {
			fmt.Fprintf(w, "  %s=%s", a.Key, a.Value())
		}
		fmt.Fprintln(w)
		for _, c := range children[s.ID] {
			dump(c, rootDur)
		}
	}
	for _, r := range roots {
		s := spans[r]
		d := s.End.Sub(s.Start)
		fmt.Fprintf(w, "query %s  modeled=%s wall=%s\n", s.Name, d, s.WallEnd.Sub(s.WallStart).Round(time.Microsecond))
		for _, c := range children[s.ID] {
			dump(c, d)
		}
	}
}
