package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"blugpu/internal/columnar"
	"blugpu/internal/engine"
	"blugpu/internal/explain"
	"blugpu/internal/gpu"
	"blugpu/internal/qlog"
	"blugpu/internal/sched"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
	"blugpu/internal/workload"
)

// stubExec is a controllable Executor: each execution blocks until
// release is closed (nil release runs immediately), honoring ctx like
// the real engine does between operators.
type stubExec struct {
	sch     *sched.Scheduler
	release chan struct{}

	mu        sync.Mutex
	started   int
	active    int
	maxActive int
}

func stubResult() *engine.Result {
	b := columnar.NewInt64Builder("x")
	b.Append(42)
	return &engine.Result{
		Table:   columnar.MustNewTable("out", b.Build()),
		Columns: []string{"x"},
		Modeled: vtime.Millisecond,
	}
}

func (s *stubExec) QueryNamedCtxAttrs(ctx context.Context, name, sql string, attrs ...trace.Attr) (*engine.Result, error) {
	s.mu.Lock()
	s.started++
	s.active++
	if s.active > s.maxActive {
		s.maxActive = s.active
	}
	release := s.release
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.active--
		s.mu.Unlock()
	}()
	if release != nil {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, fmt.Errorf("stub: query canceled: %w", ctx.Err())
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("stub: query canceled: %w", err)
	}
	return stubResult(), nil
}

func (s *stubExec) ExplainAnalyzeNamedCtx(ctx context.Context, name, sql string, attrs ...trace.Attr) (*explain.Report, *engine.Result, error) {
	res, err := s.QueryNamedCtxAttrs(ctx, name, sql)
	if err != nil {
		return nil, nil, err
	}
	return &explain.Report{Schema: explain.ReportSchema, Query: name, SQL: sql}, res, nil
}

func (s *stubExec) Scheduler() *sched.Scheduler { return s.sch }

func reconcile(t *testing.T, s *Server) {
	t.Helper()
	snap := s.AdmissionSnapshot()
	if got := snap.Admitted + snap.Shed + snap.TimedOut + snap.Drained; got != snap.Submitted {
		t.Fatalf("outcome partition broken: admitted=%d shed=%d timed_out=%d drained=%d sum=%d submitted=%d",
			snap.Admitted, snap.Shed, snap.TimedOut, snap.Drained, got, snap.Submitted)
	}
	var classSum uint64
	for _, c := range snap.Classes {
		classSum += c.Admitted + c.Shed + c.TimedOut + c.Drained
	}
	if classSum != snap.Submitted {
		t.Fatalf("per-class outcomes sum to %d, want %d", classSum, snap.Submitted)
	}
}

func TestAdmitAndExecute(t *testing.T) {
	exec := &stubExec{}
	s, err := New(exec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Do(context.Background(), Request{SQL: "SELECT x FROM t", Session: "u1"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Class != workload.Simple {
		t.Fatalf("class = %s, want simple", resp.Class)
	}
	if resp.Result.Table.Rows() != 1 {
		t.Fatalf("rows = %d", resp.Result.Table.Rows())
	}
	if resp.Query != "serve-1" {
		t.Fatalf("query name = %q", resp.Query)
	}
	snap := s.AdmissionSnapshot()
	if snap.Submitted != 1 || snap.Admitted != 1 || snap.Sessions != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
	reconcile(t, s)
}

func TestClassLimitsHold(t *testing.T) {
	release := make(chan struct{})
	exec := &stubExec{release: release}
	s, _ := New(exec, Config{
		QueueCapacity: 100,
		ClassLimits:   map[workload.Class]int{workload.Simple: 3, workload.Intermediate: 2, workload.Complex: 1},
	})
	const n = 30
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Do(context.Background(), Request{SQL: "SELECT 1 FROM t", Class: workload.Simple})
		}()
	}
	// Wait for the limit to fill, then release everything.
	deadline := time.Now().Add(5 * time.Second)
	for {
		exec.mu.Lock()
		active := exec.active
		exec.mu.Unlock()
		if active == 3 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	snap := s.AdmissionSnapshot()
	if snap.Inflight != 3 {
		t.Fatalf("inflight = %d, want the simple-class limit 3", snap.Inflight)
	}
	close(release)
	wg.Wait()
	if exec.maxActive > 3 {
		t.Fatalf("max concurrent executions %d exceeded class limit 3", exec.maxActive)
	}
	reconcile(t, s)
	if got := s.AdmissionSnapshot().Admitted; got != n {
		t.Fatalf("admitted = %d, want %d", got, n)
	}
}

func TestWeightedDequeueInterleaves(t *testing.T) {
	// One execution slot per class, everything queued up front, then a
	// single slot-releasing pump: the admit order must interleave classes
	// by weight rather than drain one class first.
	release := make(chan struct{})
	exec := &stubExec{release: release}
	s, _ := New(exec, Config{
		QueueCapacity: 100,
		ClassLimits:   map[workload.Class]int{workload.Simple: 1, workload.Intermediate: 1, workload.Complex: 1},
		ClassWeights:  map[workload.Class]int{workload.Simple: 2, workload.Intermediate: 1, workload.Complex: 1},
	})
	var wg sync.WaitGroup
	for _, c := range []workload.Class{workload.Simple, workload.Simple, workload.Intermediate, workload.Complex} {
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(c workload.Class) {
				defer wg.Done()
				if _, err := s.Do(context.Background(), Request{SQL: "SELECT 1 FROM t", Class: c}); err != nil {
					t.Error(err)
				}
			}(c)
		}
	}
	close(release)
	wg.Wait()
	snap := s.AdmissionSnapshot()
	if snap.Admitted != 16 {
		t.Fatalf("admitted = %d, want 16", snap.Admitted)
	}
	for _, c := range snap.Classes {
		if c.WaitCount == 0 {
			t.Fatalf("class %s recorded no wait samples", c.Class)
		}
	}
	reconcile(t, s)
}

func TestShedOnQueueFull(t *testing.T) {
	release := make(chan struct{})
	exec := &stubExec{release: release}
	s, _ := New(exec, Config{
		QueueCapacity: 2,
		ClassLimits:   map[workload.Class]int{workload.Simple: 1, workload.Intermediate: 1, workload.Complex: 1},
	})
	// Fill the single simple slot, then the queue (2), then overflow.
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Do(context.Background(), Request{SQL: "SELECT 1 FROM t", Class: workload.Simple})
			errs <- err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := s.AdmissionSnapshot()
		if snap.Shed >= 5 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	snap := s.AdmissionSnapshot()
	if snap.Shed != 5 { // 8 submitted - 1 executing - 2 queued
		t.Fatalf("shed = %d, want 5 (snapshot %+v)", snap.Shed, snap)
	}
	var refused *RefusedError
	sawRefusal := false
	for i := 0; i < 5; i++ {
		if err := <-errs; err != nil && errors.As(err, &refused) {
			sawRefusal = true
			if refused.Reason != "queue_full" {
				t.Fatalf("reason = %q, want queue_full", refused.Reason)
			}
			if refused.RetryAfter <= 0 {
				t.Fatal("refusal must carry a Retry-After hint")
			}
		}
	}
	if !sawRefusal {
		t.Fatal("no RefusedError surfaced")
	}
	close(release) // let the executing + queued queries finish
	wg.Wait()
	reconcile(t, s)
}

func TestBreakerHalvesEffectiveCapacity(t *testing.T) {
	spec := vtime.TeslaK40()
	devices := []*gpu.Device{gpu.NewDevice(0, spec), gpu.NewDevice(1, spec)}
	sch, err := sched.New(devices...)
	if err != nil {
		t.Fatal(err)
	}
	exec := &stubExec{sch: sch}
	s, _ := New(exec, Config{QueueCapacity: 16})
	if got := s.AdmissionSnapshot().EffectiveCap; got != 16 {
		t.Fatalf("healthy effective capacity = %d, want 16", got)
	}
	for _, d := range devices {
		for i := 0; i < sched.DefaultFailThreshold; i++ {
			sch.ReportFailure(d)
		}
	}
	if got := s.AdmissionSnapshot().EffectiveCap; got != 8 {
		t.Fatalf("unhealthy effective capacity = %d, want 8", got)
	}
	// The shed reason carries the degradation signal. With the simple
	// limit 8 and the halved queue capacity 8, 32 submissions resolve as
	// 8 executing + 8 queued + 16 shed.
	release := make(chan struct{})
	exec.release = release
	var wg sync.WaitGroup
	sawUnhealthy := make(chan struct{}, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Do(context.Background(), Request{SQL: "SELECT 1 FROM t", Class: workload.Simple})
			var refused *RefusedError
			if errors.As(err, &refused) && refused.Reason == "queue_full_unhealthy" {
				sawUnhealthy <- struct{}{}
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.AdmissionSnapshot().Shed < 16 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	select {
	case <-sawUnhealthy:
	default:
		t.Fatal("no shed carried the unhealthy reason")
	}
	reconcile(t, s)
}

func TestDeadlineWhileQueued(t *testing.T) {
	release := make(chan struct{})
	exec := &stubExec{release: release}
	s, _ := New(exec, Config{
		QueueCapacity: 10,
		ClassLimits:   map[workload.Class]int{workload.Simple: 1, workload.Intermediate: 1, workload.Complex: 1},
	})
	// Occupy the slot.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Do(context.Background(), Request{SQL: "SELECT 1 FROM t", Class: workload.Simple})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.AdmissionSnapshot().Inflight == 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// This one queues behind it and abandons.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := s.Do(ctx, Request{SQL: "SELECT 1 FROM t", Class: workload.Simple})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued-timeout error = %v, want DeadlineExceeded", err)
	}
	if got := s.AdmissionSnapshot().TimedOut; got != 1 {
		t.Fatalf("timed_out = %d, want 1", got)
	}
	close(release)
	wg.Wait()
	reconcile(t, s)
}

func TestDeadlineMidExecution(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	exec := &stubExec{release: release}
	s, _ := New(exec, Config{})
	_, err := s.Do(context.Background(), Request{
		SQL: "SELECT 1 FROM t", Class: workload.Simple, Deadline: 10 * time.Millisecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-execution timeout error = %v, want DeadlineExceeded", err)
	}
	snap := s.AdmissionSnapshot()
	if snap.TimedOut != 1 || snap.Admitted != 0 {
		t.Fatalf("timed_out=%d admitted=%d, want 1/0", snap.TimedOut, snap.Admitted)
	}
	reconcile(t, s)
}

func TestDrainLifecycle(t *testing.T) {
	release := make(chan struct{})
	exec := &stubExec{release: release}
	s, _ := New(exec, Config{
		QueueCapacity: 10,
		ClassLimits:   map[workload.Class]int{workload.Simple: 1, workload.Intermediate: 1, workload.Complex: 1},
	})
	var wg sync.WaitGroup
	results := make(chan error, 4)
	for i := 0; i < 4; i++ { // 1 executes, 3 queue
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Do(context.Background(), Request{SQL: "SELECT 1 FROM t", Class: workload.Simple})
			results <- err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := s.AdmissionSnapshot()
		if (snap.Inflight == 1 && snap.QueueDepth == 3) || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Release the in-flight query just after drain starts.
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	rep := s.Drain(2 * time.Second)
	if rep.Flushed != 3 {
		t.Fatalf("flushed = %d, want 3", rep.Flushed)
	}
	if rep.ForcedCancels != 0 {
		t.Fatalf("forced cancels = %d, want 0 (drain finished in-flight work)", rep.ForcedCancels)
	}
	wg.Wait()

	snap := s.AdmissionSnapshot()
	if snap.Admitted != 1 || snap.Drained != 3 || snap.Inflight != 0 || !snap.Draining {
		t.Fatalf("post-drain snapshot %+v", snap)
	}
	var refused *RefusedError
	drainedErrs := 0
	for i := 0; i < 4; i++ {
		if err := <-results; err != nil && errors.As(err, &refused) && refused.Reason == "drained" {
			drainedErrs++
		}
	}
	if drainedErrs != 3 {
		t.Fatalf("drained refusals = %d, want 3", drainedErrs)
	}

	// New submissions are refused while draining.
	_, err := s.Do(context.Background(), Request{SQL: "SELECT 1 FROM t", Class: workload.Simple})
	if !errors.As(err, &refused) || refused.Reason != "draining" || !refused.Draining {
		t.Fatalf("post-drain submission error = %v, want draining refusal", err)
	}
	reconcile(t, s)
}

func TestDrainForceCancelsAtDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	exec := &stubExec{release: release} // never released before drain
	s, _ := New(exec, Config{})
	done := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), Request{SQL: "SELECT 1 FROM t", Class: workload.Simple})
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.AdmissionSnapshot().Inflight == 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	rep := s.Drain(30 * time.Millisecond)
	if rep.ForcedCancels != 1 {
		t.Fatalf("forced cancels = %d, want 1", rep.ForcedCancels)
	}
	err := <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("force-canceled query error = %v, want Canceled", err)
	}
	snap := s.AdmissionSnapshot()
	if snap.TimedOut != 1 || snap.Inflight != 0 {
		t.Fatalf("post-force-drain snapshot %+v", snap)
	}
	reconcile(t, s)
}

func TestClassify(t *testing.T) {
	cases := []struct {
		sql  string
		want workload.Class
	}{
		{"SELECT x FROM t LIMIT 5", workload.Simple},
		{"SELECT a, SUM(b) AS s FROM t GROUP BY a", workload.Simple},
		{"SELECT a, SUM(b) AS s FROM t JOIN d ON a = b GROUP BY a", workload.Intermediate},
		{"SELECT a, SUM(b) AS s, AVG(c) AS m FROM t JOIN d ON a = b JOIN e ON a = c GROUP BY a ORDER BY s", workload.Complex},
	}
	for _, tc := range cases {
		if got := Classify(tc.sql); got != tc.want {
			t.Errorf("Classify(%q) = %s, want %s", tc.sql, got, tc.want)
		}
	}
	// The heuristic should agree with the workload's own classes for
	// most of BD Insights (it is a fallback, not an oracle).
	agree, total := 0, 0
	for _, q := range workload.BDInsights() {
		total++
		if Classify(q.SQL) == q.Class {
			agree++
		}
	}
	if agree*10 < total*6 {
		t.Fatalf("heuristic agrees with only %d/%d BD Insights classes", agree, total)
	}
}

func TestInvalidRequests(t *testing.T) {
	s, _ := New(&stubExec{}, Config{})
	if _, err := s.Do(context.Background(), Request{SQL: "   "}); err == nil {
		t.Fatal("empty SQL must error")
	}
	if _, err := s.Do(context.Background(), Request{SQL: "SELECT 1 FROM t", Class: "bogus"}); err == nil {
		t.Fatal("unknown class must error")
	}
	// Invalid requests are rejected before accounting.
	if snap := s.AdmissionSnapshot(); snap.Submitted != 0 {
		t.Fatalf("invalid requests counted as submitted: %+v", snap)
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil executor must error")
	}
}

func TestExecErrorStillAdmitted(t *testing.T) {
	// A real engine surfaces parse errors; they count as admitted (the
	// controller did its job) with the error tallied separately.
	eng := newServeTestEngine(t)
	s, _ := New(eng, Config{})
	_, err := s.Do(context.Background(), Request{SQL: "SELECT nonsense FROM missing", Class: workload.Simple})
	if err == nil {
		t.Fatal("bad SQL must surface the engine error")
	}
	snap := s.AdmissionSnapshot()
	if snap.Admitted != 1 || snap.ExecErrors != 1 {
		t.Fatalf("admitted=%d exec_errors=%d, want 1/1", snap.Admitted, snap.ExecErrors)
	}
	reconcile(t, s)
}

// panicOnceExec panics on its first execution and behaves like an idle
// stubExec afterwards.
type panicOnceExec struct {
	stubExec
	once sync.Once
}

func (p *panicOnceExec) QueryNamedCtxAttrs(ctx context.Context, name, sql string, attrs ...trace.Attr) (*engine.Result, error) {
	p.once.Do(func() { panic("executor blew up") })
	return p.stubExec.QueryNamedCtxAttrs(ctx, name, sql, attrs...)
}

func TestPanickingExecutorReleasesSlot(t *testing.T) {
	// With a class limit of 1 a leaked slot is fatal: the next query of
	// the class would queue forever behind work that no longer exists.
	var logBuf bytes.Buffer
	s, err := New(&panicOnceExec{}, Config{
		ClassLimits: map[workload.Class]int{workload.Simple: 1, workload.Intermediate: 1, workload.Complex: 1},
		Log:         qlog.New(&logBuf),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Do(context.Background(), Request{SQL: "SELECT x FROM t", Class: workload.Simple, RequestID: "boom-1"})
	if err == nil || !strings.Contains(err.Error(), "panic: executor blew up") {
		t.Fatalf("panicking executor: err = %v, want the recovered panic", err)
	}
	snap := s.AdmissionSnapshot()
	if snap.Inflight != 0 {
		t.Fatalf("inflight = %d after the panic, want 0 (slot leaked)", snap.Inflight)
	}
	if snap.Admitted != 1 || snap.ExecErrors != 1 || snap.Panics != 1 {
		t.Fatalf("admitted=%d exec_errors=%d panics=%d, want 1/1/1", snap.Admitted, snap.ExecErrors, snap.Panics)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := s.Do(ctx, Request{SQL: "SELECT x FROM t", Class: workload.Simple}); err != nil {
		t.Fatalf("next query of the class was not admitted: %v", err)
	}
	reconcile(t, s)

	recs, err := qlog.Decode(logBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].RequestID != "boom-1" || recs[0].Outcome != qlog.OutcomeError ||
		!strings.Contains(recs[0].Error, "panic: executor blew up") {
		t.Fatalf("query log does not carry the panic under its request ID: %+v", recs)
	}
}

// newServeTestEngine builds a tiny real engine for end-to-end tests.
func newServeTestEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e, err := engine.New(engine.Config{Devices: 2, Degree: 4, NoFusion: true})
	if err != nil {
		t.Fatal(err)
	}
	k := columnar.NewInt64Builder("k")
	v := columnar.NewInt64Builder("v")
	f := columnar.NewFloat64Builder("f")
	for i := 0; i < 500; i++ {
		k.Append(int64(i % 7))
		v.Append(int64(i))
		f.Append(float64(i) * 0.5)
	}
	tbl := columnar.MustNewTable("t", k.Build(), v.Build(), f.Build())
	if err := e.Register(tbl); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEndToEndWithEngine(t *testing.T) {
	eng := newServeTestEngine(t)
	s, _ := New(eng, Config{})
	want, err := eng.Query("SELECT k, SUM(v) AS s FROM t GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Do(context.Background(), Request{SQL: "SELECT k, SUM(v) AS s FROM t GROUP BY k", Session: "analyst"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.Table.Rows() != want.Table.Rows() {
		t.Fatalf("served rows %d != direct rows %d", resp.Result.Table.Rows(), want.Table.Rows())
	}
	// Explain rides inline and is serialized server-side.
	resp, err = s.Do(context.Background(), Request{SQL: "SELECT k, SUM(v) AS s FROM t GROUP BY k", Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Report == nil || resp.Report.Query == "" {
		t.Fatal("explain request must return a report")
	}
	reconcile(t, s)
}
