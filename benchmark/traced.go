package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"blugpu/internal/engine"
	"blugpu/internal/plan"
	"blugpu/internal/prof"
	"blugpu/internal/qlog"
	"blugpu/internal/serve"
	"blugpu/internal/sqlparse"
	"blugpu/internal/trace"
	"blugpu/internal/workload"
)

// The traced run is in-process and serial, so one goroutine opens and
// closes every span and a stack gives each span its parent. Spans are
// the benchmark's own, recorded around calls into public functions —
// nothing inside the program is touched. They stay in memory until the
// run ends.

// span is one recorded interval. Req is the request it belongs to; all
// spans of one request share it.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1 for a request's root
	Req     int     `json:"req"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	Allocs  uint64  `json:"allocs"` // heap objects allocated inside, process-wide
	// Wall split of an engine.execute span, from the public Result.Wall.
	GPUUs, HostUs, GatherUs float64 `json:",omitempty"`
}

type recorder struct {
	on     bool
	t0     time.Time
	paused time.Duration // spent reading allocation counts; not on the spans' clock
	req    int
	spans  []span
	stack  []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// allocs is the process's cumulative heap-object count. ReadMemStats
// stops the world to flush the per-P caches — the cheaper
// runtime/metrics counter lags by up to a cache's worth, which reads as
// zero allocations on a 15 µs parse. The tens of microseconds each read
// takes are kept off the spans' clock, so a parent's self time does not
// carry its children's bookkeeping.
func (r *recorder) allocs() uint64 {
	start := time.Now()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.paused += time.Since(start)
	return m.Mallocs
}

func (r *recorder) us() float64 { return us(time.Since(r.t0) - r.paused) }

// begin opens a span under the innermost open one; -1 when recording
// is off.
func (r *recorder) begin(name string) int {
	if !r.on {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: r.req, Name: name, Allocs: r.allocs()})
	r.stack = append(r.stack, id)
	r.spans[id].StartUs = r.us()
	return id
}

func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	end := r.us()
	s := &r.spans[id]
	s.EndUs, s.Allocs = end, r.allocs()-s.Allocs
	r.stack = r.stack[:len(r.stack)-1]
}

// tracedExec wraps the engine behind serve.Executor so that the
// engine's share of a request is a child span of whatever called it.
type tracedExec struct {
	*engine.Engine
	rec *recorder
}

func (x *tracedExec) QueryNamedCtxAttrs(ctx context.Context, name, sql string, attrs ...trace.Attr) (*engine.Result, error) {
	id := x.rec.begin("engine.execute")
	res, err := x.Engine.QueryNamedCtxAttrs(ctx, name, sql, attrs...)
	x.rec.end(id)
	if id >= 0 && res != nil {
		s := &x.rec.spans[id]
		s.GPUUs, s.HostUs, s.GatherUs = us(res.Wall.ExecGPU), us(res.Wall.ExecHost), us(res.Wall.ExecGather)
	}
	return res, err
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runTraced makes the traced run for one workload's statement set and
// writes the spans to outDir/trace-<workload>.json. Per statement, in
// seeded order, it executes
//
//	W  an unmeasured warm-up through the mux,
//	A  sinks off, spans off, through the mux      (the baseline),
//	B  sinks off, spans on: sqlparse.Parse, plan.Build, the mux, and
//	   serve.Do with a serialize hook, each under one request span,
//	C  sinks on (engine tracer + query log to io.Discard + prof
//	   accountant), spans off, through the mux,
//
// and stops after the statement that exhausts the time budget — half
// of --seconds, so a traced run costs about what an end-to-end run with
// its three set-ups does. Layer
// metrics are medians over statements of per-statement self times, so
// one slow statement cannot carry a layer; the three differences
// (B−A span overhead, C−A sink tax, mux−Do HTTP share) are taken per
// statement before the median, which cancels the statement's own cost.
func runTraced(w *workloadDef, opt runOpts, refs map[string]table, res *runResult) error {
	rec := newRecorder()
	eng, err := engine.New(engine.Config{Devices: devices, Degree: degree})
	if err != nil {
		return err
	}
	if err := workload.Generate(opt.SF, dataSeed).RegisterAll(eng); err != nil {
		return err
	}
	exec := &tracedExec{Engine: eng, rec: rec}
	srvOff, err := serve.New(exec, serve.Config{})
	if err != nil {
		return err
	}
	srvOn, err := serve.New(exec, serve.Config{Log: qlog.New(io.Discard), Prof: prof.NewAccountant()})
	if err != nil {
		return err
	}
	muxOff, muxOn := serve.NewMux(srvOff, nil), serve.NewMux(srvOn, nil)
	sinkTracer := trace.New()

	stmts := w.Stmts()
	type timing struct{ us, allocs float64 }
	// viaMux posts one statement through a mux and returns the body.
	viaMux := func(mux http.Handler, q workload.Query) ([]byte, timing, error) {
		body, _ := json.Marshal(map[string]string{"sql": q.SQL, "session": "traced", "class": string(q.Class), "name": q.ID})
		req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
		rw := httptest.NewRecorder()
		a0, t0 := rec.allocs(), time.Now()
		id := rec.begin("http")
		mux.ServeHTTP(rw, req)
		rec.end(id)
		tm := timing{us(time.Since(t0)), float64(rec.allocs() - a0)}
		if rw.Code != http.StatusOK {
			return nil, tm, fmt.Errorf("HTTP %d: %.200s", rw.Code, rw.Body.Bytes())
		}
		return rw.Body.Bytes(), tm, nil
	}
	// The hook does what the HTTP handler's private one does: row-major
	// rows via the exported serve.TableRows, then JSON.
	serialize := func(resp *serve.Response) (int, error) {
		id := rec.begin("serve.serialize")
		defer rec.end(id)
		var buf bytes.Buffer
		err := json.NewEncoder(&buf).Encode(map[string]any{
			"columns": resp.Result.Columns,
			"rows":    serve.TableRows(resp.Result.Table.Columns()),
		})
		return buf.Len(), err
	}

	var spanOverhead, sinkTax, sinkAllocs []float64
	begin := time.Now()
	budget := time.Duration(opt.Seconds / 2 * float64(time.Second))
	for _, r := range schedule(opt.Seed, len(stmts), 1, 0) {
		q := stmts[r.Stmt]
		fail := func(err error) {
			res.Failed++
			res.Failures = append(res.Failures, fmt.Sprintf("%s (traced): %v", q.ID, err))
		}
		res.Attempted++

		if _, _, err := viaMux(muxOff, q); err != nil { // W
			fail(err)
			continue
		}
		bodyA, a, err := viaMux(muxOff, q) // A
		if err != nil {
			fail(err)
			continue
		}
		one := []sample{{Stmt: q.ID, body: bodyA}}
		if verify(one, refs); !one[0].OK {
			fail(fmt.Errorf("%s", one[0].Err))
			continue
		}

		rec.on, rec.req = true, rec.req+1 // B
		root := rec.begin("request")
		id := rec.begin("sqlparse.parse")
		stmt, err := sqlparse.Parse(q.SQL)
		rec.end(id)
		if err == nil {
			id = rec.begin("plan.build")
			_, err = plan.Build(stmt)
			rec.end(id)
		}
		var b timing
		if err == nil {
			_, b, err = viaMux(muxOff, q)
		}
		if err == nil {
			id = rec.begin("serve.do")
			_, err = srvOff.Do(context.Background(), serve.Request{
				Session: "traced", SQL: q.SQL, Class: q.Class, Name: q.ID, Serialize: serialize,
			})
			rec.end(id)
		}
		rec.end(root)
		rec.on = false
		if err != nil {
			fail(err)
			continue
		}

		eng.SetTracer(sinkTracer) // C
		_, c, err := viaMux(muxOn, q)
		eng.SetTracer(nil)
		if err != nil {
			fail(err)
			continue
		}

		spanOverhead = append(spanOverhead, b.us-a.us)
		sinkTax = append(sinkTax, c.us-a.us)
		sinkAllocs = append(sinkAllocs, c.allocs-a.allocs)
		if time.Since(begin) > budget {
			break
		}
	}

	layerMetrics(res, rec.spans)
	res.setMedian("bench.span_overhead_us", spanOverhead)
	res.setMedian("sinks.tax_us", sinkTax)
	res.setMedian("sinks.allocs", sinkAllocs)

	data, err := json.Marshal(rec.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+w.Name+".json"), data, 0o644)
}

// layerMetrics turns the recorded spans into per-layer self times: a
// span's self time is its duration minus its children's.
func layerMetrics(res *runResult, spans []span) {
	type acc struct{ us, allocs float64 }
	self := make([]acc, len(spans))
	for i, s := range spans {
		self[i] = acc{s.EndUs - s.StartUs, float64(s.Allocs)}
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent].us -= s.EndUs - s.StartUs
			self[s.Parent].allocs -= float64(s.Allocs)
		}
	}
	// Per request: self time by span name. The engine runs twice per
	// request; the execution under the mux is the one reported, the one
	// under serve.Do only nets itself out of serve.Do's self time.
	type traced struct {
		layer  map[string]acc
		engine span    // the execution under the mux, for its Wall split
		rootUs float64 // the request span's duration
	}
	byReq := map[int]*traced{}
	for i, s := range spans {
		t := byReq[s.Req]
		if t == nil {
			t = &traced{layer: map[string]acc{}}
			byReq[s.Req] = t
		}
		switch {
		case s.Name == "engine.execute" && spans[s.Parent].Name == "serve.do":
			continue
		case s.Name == "engine.execute":
			t.engine = s
		case s.Name == "request":
			t.rootUs = s.EndUs - s.StartUs
		}
		t.layer[s.Name] = self[i]
	}

	cols := map[string][]float64{}
	add := func(name string, v float64) { cols[name] = append(cols[name], v) }
	for _, t := range byReq {
		l := t.layer
		if _, ok := l["serve.serialize"]; !ok {
			continue // request cut short by an error
		}
		add("bench.trace_coverage", 1-l["request"].us/t.rootUs)
		add("sqlparse.parse_us", l["sqlparse.parse"].us)
		add("sqlparse.allocs", l["sqlparse.parse"].allocs)
		add("plan.build_us", l["plan.build"].us)
		add("plan.allocs", l["plan.build"].allocs)
		eng, e := l["engine.execute"], t.engine
		add("engine.execute_ms", eng.us/1000)
		add("engine.allocs", eng.allocs)
		add("engine.exec_gpu_ms", e.GPUUs/1000)
		add("engine.exec_host_ms", e.HostUs/1000)
		add("engine.exec_gather_ms", e.GatherUs/1000)
		add("engine.exec_other_ms", (eng.us-e.GPUUs-e.HostUs-e.GatherUs)/1000)
		// serve.do's self time is the serving layer proper; the mux
		// path's self time holds that plus serialization plus HTTP.
		do, ser := l["serve.do"], l["serve.serialize"]
		add("serve.self_us", do.us)
		add("serve.allocs", do.allocs)
		add("serve.serialize_us", ser.us)
		add("http.self_us", l["http"].us-do.us-ser.us)
		add("http.allocs", l["http"].allocs-do.allocs-ser.allocs)
	}
	for name, xs := range cols {
		res.setMedian(name, xs)
	}
}
