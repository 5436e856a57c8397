package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"blugpu/internal/vtime"
)

func TestZeroContextIsNoop(t *testing.T) {
	var c Context
	if c.Enabled() {
		t.Error("zero context reports Enabled")
	}
	if c.ID() != 0 {
		t.Errorf("zero context ID = %d", c.ID())
	}
	// None of these may panic or allocate spans anywhere.
	child := c.Begin("op", "x", 0)
	if child.Enabled() {
		t.Error("Begin on a zero context returned an enabled context")
	}
	c.End(1, Str("k", "v"))
	c.Emit("op", "y", 0, vtime.Millisecond)
	c.Annotate(Int("n", 3))

	var tr *Tracer
	if got := tr.StartQuery("q", 0); got.Enabled() {
		t.Error("StartQuery on nil tracer returned an enabled context")
	}
	tr.RecordDeviceEvent(1, 0, "kernel", "k", 8, vtime.Millisecond)
}

func TestSpanTreeStructure(t *testing.T) {
	tr := New()
	q := tr.StartQuery("", 1.0)
	if !q.Enabled() {
		t.Fatal("query context disabled")
	}
	op := q.Begin("op", "groupby", 1.0)
	op.Emit("eval", "hash", 1.0, vtime.Duration(0.25), Int("rows", 100))
	op.End(1.5, Str("path", "gpu"))
	q.End(2.0, Int("rows", 10))

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	root, opSpan, leaf := spans[0], spans[1], spans[2]
	if root.Name != "q1" || root.Cat != "query" || root.Parent != 0 || root.Depth != 0 {
		t.Errorf("root = %+v", root)
	}
	if root.Query != 1 || opSpan.Query != 1 || leaf.Query != 1 {
		t.Error("query sequence numbers differ within one tree")
	}
	if opSpan.Parent != root.ID || opSpan.Depth != 1 {
		t.Errorf("op span parentage = parent %d depth %d", opSpan.Parent, opSpan.Depth)
	}
	if leaf.Parent != opSpan.ID || leaf.Depth != 2 {
		t.Errorf("emitted leaf parentage = parent %d depth %d", leaf.Parent, leaf.Depth)
	}
	if leaf.Start != 1.0 || leaf.End != 1.25 {
		t.Errorf("leaf bounds = [%v, %v]", leaf.Start, leaf.End)
	}
	if root.End != 2.0 || opSpan.End != 1.5 {
		t.Errorf("ends = root %v op %v", root.End, opSpan.End)
	}
	if len(opSpan.Attrs) != 1 || opSpan.Attrs[0].Key != "path" || opSpan.Attrs[0].Value() != "gpu" {
		t.Errorf("op attrs = %v", opSpan.Attrs)
	}
	if tr.Queries() != 1 {
		t.Errorf("queries = %d", tr.Queries())
	}
}

func TestEndTwiceOnlyAppendsAttrs(t *testing.T) {
	tr := New()
	q := tr.StartQuery("q", 0)
	q.End(1.0)
	q.End(5.0, Str("late", "attr"))
	s := tr.Spans()[0]
	if s.End != 1.0 {
		t.Errorf("second End moved the bound to %v", s.End)
	}
	if len(s.Attrs) != 1 || s.Attrs[0].Key != "late" {
		t.Errorf("attrs = %v", s.Attrs)
	}
}

func TestDeviceEventLayout(t *testing.T) {
	tr := New()
	q := tr.StartQuery("q", 0)
	g := q.Begin("gpu", "attempt", 1.0)

	// Kernels and transfers become leaves laid out sequentially from the
	// parent's start.
	tr.RecordDeviceEvent(g.ID(), 1, "kernel", "groupby_k1", 64, vtime.Duration(0.5))
	tr.RecordDeviceEvent(g.ID(), 1, "h2d", "stage", 4096, vtime.Duration(0.25))
	// Reserve events are dropped; faults and reserve-fails become attrs.
	tr.RecordDeviceEvent(g.ID(), 1, "reserve", "", 128, 0)
	tr.RecordDeviceEvent(g.ID(), 1, "fault", "kernel-fault", 0, 0)
	tr.RecordDeviceEvent(g.ID(), 1, "reserve-fail", "", 1024, 0)
	// Unknown parent: orphan.
	tr.RecordDeviceEvent(9999, 0, "kernel", "lost", 0, 0)
	tr.RecordDeviceEvent(0, 0, "kernel", "untraced", 0, 0)

	spans := tr.Spans()
	// query, gpu attempt, kernel leaf, transfer leaf, orphan-counted events
	// add nothing.
	if len(spans) != 4 {
		t.Fatalf("spans = %d, want 4", len(spans))
	}
	k, x := spans[2], spans[3]
	if k.Cat != "kernel" || k.Name != "groupby_k1" || k.Start != 1.0 || k.End != 1.5 {
		t.Errorf("kernel leaf = %+v", k)
	}
	if x.Cat != "transfer" || x.Name != "h2d" || x.Start != 1.5 || x.End != 1.75 {
		t.Errorf("transfer leaf = %+v", x)
	}
	for _, leaf := range []Span{k, x} {
		var device, bytes bool
		for _, a := range leaf.Attrs {
			device = device || (a.Key == "device" && a.Int == 1)
			bytes = bytes || a.Key == "bytes"
		}
		if !device || !bytes {
			t.Errorf("%s leaf missing device/bytes attrs: %v", leaf.Cat, leaf.Attrs)
		}
	}
	gs := spans[1]
	var fault, rfail bool
	for _, a := range gs.Attrs {
		fault = fault || (a.Key == "fault" && a.Str == "kernel-fault")
		rfail = rfail || (a.Key == "reserve-fail-bytes" && a.Int == 1024)
	}
	if !fault || !rfail {
		t.Errorf("gpu span attrs = %v", gs.Attrs)
	}
	if tr.Orphans() != 2 {
		t.Errorf("orphans = %d, want 2", tr.Orphans())
	}
	if tr.FaultAttrCount() != 1 {
		t.Errorf("fault attrs = %d, want 1", tr.FaultAttrCount())
	}
}

func TestReset(t *testing.T) {
	tr := New()
	q := tr.StartQuery("q", 0)
	q.End(1)
	tr.RecordDeviceEvent(999, 0, "kernel", "k", 0, 0)
	tr.Reset()
	if len(tr.Spans()) != 0 || tr.Queries() != 0 || tr.Orphans() != 0 {
		t.Error("Reset left state behind")
	}
	// IDs restart, so a fresh query root is span 1 again.
	q2 := tr.StartQuery("q", 0)
	if q2.ID() != 1 {
		t.Errorf("post-reset first span ID = %d, want 1", q2.ID())
	}
}

// TestTakeQuery: taking a finished query removes exactly its spans, in
// creation order, and leaves interleaved spans of other queries held.
func TestTakeQuery(t *testing.T) {
	tr := New()
	q1 := tr.StartQuery("a", 0)
	q2 := tr.StartQuery("b", 0)
	op1 := q1.Begin("op", "x", 0)
	op2 := q2.Begin("op", "y", 0)
	tr.RecordDeviceEvent(op1.ID(), 0, "kernel", "k", 8, vtime.Millisecond)
	op1.End(1)
	q1.End(1)

	took := tr.TakeQuery(q1.Query())
	if len(took) != 3 || took[0].Name != "a" || took[1].Name != "x" || took[2].Cat != "kernel" {
		t.Fatalf("took %+v", took)
	}
	if tr.Held() != 2 || len(tr.QuerySpans(q1.Query())) != 0 || len(tr.TakeQuery(q1.Query())) != 0 {
		t.Fatalf("query 1 still held: %d spans", tr.Held())
	}
	if rest := tr.Spans(); len(rest) != 2 || rest[0].Name != "b" || rest[1].ID != op2.ID() {
		t.Fatalf("other query disturbed: %+v", rest)
	}
	// A late event for the taken query has no span to land on.
	tr.RecordDeviceEvent(op1.ID(), 0, "kernel", "late", 8, vtime.Millisecond)
	if tr.Orphans() != 1 || tr.Held() != 2 {
		t.Fatalf("orphans = %d, held = %d", tr.Orphans(), tr.Held())
	}
	if tr.Queries() != 2 {
		t.Fatalf("queries = %d: taking must not rewind the sequence", tr.Queries())
	}
}

// buildFixedTrace assembles the same span tree every call — the
// determinism fixture for the export tests.
func buildFixedTrace() *Tracer {
	tr := New()
	for i := 0; i < 3; i++ {
		q := tr.StartQuery(fmt.Sprintf("bd-%02d", i), vtime.Time(float64(i)))
		op := q.Begin("op", "groupby", vtime.Time(float64(i)))
		tr.RecordDeviceEvent(op.ID(), i%2, "kernel", "groupby_k1", 1<<uint(i+6), vtime.Duration(0.001))
		tr.RecordDeviceEvent(op.ID(), i%2, "fault", "h2d-fault", 0, 0)
		tr.RecordDeviceEvent(op.ID(), i%2, "fault", "kernel-fault", 0, 0)
		op.End(vtime.Time(float64(i)+0.5), Str("path", `gpu "raced"`), Int("groups", int64(10*i)))
		q.End(vtime.Time(float64(i)+1), Int("rows", int64(i)))
	}
	return tr
}

func TestExportChromeDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildFixedTrace().ExportChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildFixedTrace().ExportChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two identical traces exported different bytes")
	}
	if err := ValidateChrome(a.Bytes()); err != nil {
		t.Errorf("export fails its own validator: %v", err)
	}
}

func TestExportChromeEscapingAndDuplicateKeys(t *testing.T) {
	tr := New()
	q := tr.StartQuery("q\"with\\quotes\nand\tctrl\x01", 0)
	q.End(1,
		Str("fault", "first"),
		Str("fault", "second"),
		Int("fault", 3))

	var buf bytes.Buffer
	if err := tr.ExportChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("escaped export invalid: %v\n%s", err, buf.String())
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	args, ok := events[0]["args"].(map[string]any)
	if !ok {
		t.Fatalf("event has no args object: %v", events[0])
	}
	// Repeated keys must stay distinct so no fault attribute is lost in
	// JSON object semantics.
	if len(args) != 3 {
		t.Errorf("args = %v, want 3 distinct keys", args)
	}
	if args["fault"] != "first" || args["fault#1"] != "second" || args["fault#2"] != float64(3) {
		t.Errorf("duplicate-key renaming wrong: %v", args)
	}
	if name := events[0]["name"].(string); !strings.Contains(name, `"with\quotes`) {
		t.Errorf("name round-trip lost characters: %q", name)
	}
}

func TestValidateChromeRejects(t *testing.T) {
	cases := map[string]string{
		"not-json":    `{"name": "x"}`,
		"empty-array": `[]`,
		"no-name":     `[{"cat":"c","ph":"X","ts":0,"dur":0,"pid":1,"tid":0}]`,
		"no-cat":      `[{"name":"n","ph":"X","ts":0,"dur":0,"pid":1,"tid":0}]`,
		"bad-ph":      `[{"name":"n","cat":"c","ph":"B","ts":0,"dur":0,"pid":1,"tid":0}]`,
		"neg-ts":      `[{"name":"n","cat":"c","ph":"X","ts":-1,"dur":0,"pid":1,"tid":0}]`,
		"no-dur":      `[{"name":"n","cat":"c","ph":"X","ts":0,"pid":1,"tid":0}]`,
		"no-pid":      `[{"name":"n","cat":"c","ph":"X","ts":0,"dur":0,"tid":0}]`,
	}
	for name, data := range cases {
		if err := ValidateChrome([]byte(data)); err == nil {
			t.Errorf("%s: validator accepted %s", name, data)
		}
	}
	ok := `[{"name":"n","cat":"c","ph":"X","ts":0,"dur":0,"pid":1,"tid":0}]`
	if err := ValidateChrome([]byte(ok)); err != nil {
		t.Errorf("validator rejected minimal valid event: %v", err)
	}
}

func TestWriteFlame(t *testing.T) {
	var buf bytes.Buffer
	buildFixedTrace().WriteFlame(&buf)
	out := buf.String()
	for _, want := range []string{"query bd-00", "query bd-02", "op:groupby", "kernel:groupby_k1", "fault=h2d-fault", "50.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("flame summary missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentStress hammers one tracer from many goroutines — span
// begin/end/annotate, device events, exports and snapshots all racing.
// Run under -race this is the data-race check for the whole package.
func TestConcurrentStress(t *testing.T) {
	tr := New()
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				at := vtime.Time(float64(w) + float64(i)/perWorker)
				q := tr.StartQuery(fmt.Sprintf("w%d-q%d", w, i), at)
				op := q.Begin("op", "groupby", at)
				tr.RecordDeviceEvent(op.ID(), w%2, "kernel", "k", 64, vtime.Microsecond)
				tr.RecordDeviceEvent(op.ID(), w%2, "fault", "kernel-fault", 0, 0)
				op.Emit("eval", "hash", at, vtime.Microsecond, Int("rows", int64(i)))
				op.Annotate(Str("path", "gpu"))
				op.End(at.Add(vtime.Millisecond))
				q.End(at.Add(2 * vtime.Millisecond))
			}
		}(w)
	}
	// Readers race the writers: snapshot and export continuously.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = tr.Spans()
				_ = tr.ExportChrome(io.Discard)
				_ = tr.FaultAttrCount()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if got := tr.Queries(); got != workers*perWorker {
		t.Errorf("queries = %d, want %d", got, workers*perWorker)
	}
	// 4 spans per iteration: query, op, kernel leaf, emitted eval.
	if got := len(tr.Spans()); got != 4*workers*perWorker {
		t.Errorf("spans = %d, want %d", got, 4*workers*perWorker)
	}
	if got := tr.FaultAttrCount(); got != workers*perWorker {
		t.Errorf("fault attrs = %d, want %d", got, workers*perWorker)
	}
	if tr.Orphans() != 0 {
		t.Errorf("orphans = %d", tr.Orphans())
	}
	var buf bytes.Buffer
	if err := tr.ExportChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChrome(buf.Bytes()); err != nil {
		t.Errorf("post-stress export invalid: %v", err)
	}
}
