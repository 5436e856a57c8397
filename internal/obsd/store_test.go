package obsd

import (
	"bytes"
	"flag"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"blugpu/internal/gpu"
	"blugpu/internal/metrics"
	"blugpu/internal/monitor"
	"blugpu/internal/qlog"
	"blugpu/internal/vtime"
)

var update = flag.Bool("update", false, "rewrite golden files")

// baseTime pins every test clock for byte-stable surfaces.
var baseTime = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// testEnv is a store over a mutable fake admission snapshot, driven by
// a hand-advanced clock.
type testEnv struct {
	store *Store

	mu    sync.Mutex
	now   time.Time
	adm   *metrics.AdmissionSnapshot
	qbuf  bytes.Buffer
	qlock sync.Mutex
}

func (e *testEnv) clock() time.Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

func (e *testEnv) setAdmission(a *metrics.AdmissionSnapshot) {
	e.mu.Lock()
	e.adm = a
	e.mu.Unlock()
}

// advance moves the clock one step and scrapes.
func (e *testEnv) advance() {
	e.mu.Lock()
	e.now = e.now.Add(e.store.step)
	e.mu.Unlock()
	e.store.Scrape()
}

type lockedWriter struct{ e *testEnv }

func (w lockedWriter) Write(p []byte) (int, error) {
	w.e.qlock.Lock()
	defer w.e.qlock.Unlock()
	return w.e.qbuf.Write(p)
}

func (e *testEnv) qlogBytes() []byte {
	e.qlock.Lock()
	defer e.qlock.Unlock()
	return append([]byte(nil), e.qbuf.Bytes()...)
}

func newTestEnv(t *testing.T, opts Options) *testEnv {
	t.Helper()
	e := &testEnv{now: baseTime}
	opts.Clock = e.clock
	if opts.Log == nil {
		opts.Log = qlog.New(lockedWriter{e}, qlog.WithClock(e.clock))
	}
	opts.Sources = func() metrics.Sources {
		e.mu.Lock()
		a := e.adm
		e.mu.Unlock()
		src := metrics.Sources{Obs: e.store.ObsSnapshot}
		if a != nil {
			src.Admission = func() *metrics.AdmissionSnapshot { return a }
		}
		return src
	}
	e.store = New(opts)
	return e
}

// simpleAdmission fabricates a snapshot with a queue depth and one
// class with a wall-latency histogram.
func simpleAdmission(depth int, admitted, shed uint64, wallCum []uint64) *metrics.AdmissionSnapshot {
	bounds := []vtime.Duration{10 * vtime.Millisecond, 50 * vtime.Millisecond, 200 * vtime.Millisecond, vtime.Second}
	var buckets []monitor.HistBucket
	var count uint64
	for i, b := range bounds {
		var c uint64
		if i < len(wallCum) {
			c = wallCum[i]
		} else if len(wallCum) > 0 {
			c = wallCum[len(wallCum)-1]
		}
		buckets = append(buckets, monitor.HistBucket{UpperBound: b, CumCount: c})
		count = c
	}
	return &metrics.AdmissionSnapshot{
		QueueDepth: depth,
		Submitted:  admitted + shed,
		Admitted:   admitted,
		Shed:       shed,
		Classes: []metrics.ClassAdmissionSnapshot{{
			Class:        "simple",
			WallBuckets:  buckets,
			WallSum:      float64(count) * 0.02,
			WallCount:    count,
			SLOThreshold: 0.05,
			SLOObjective: 0.99,
		}},
	}
}

func TestScrapeAndInstantQuery(t *testing.T) {
	e := newTestEnv(t, Options{Step: 5 * time.Second, Retention: time.Minute})
	e.setAdmission(simpleAdmission(7, 10, 0, []uint64{5, 8, 9, 10}))
	e.advance()
	e.advance()

	got, err := e.store.QueryInstant("blu_serve_queue_depth", e.clock())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Points[0].V != 7 {
		t.Fatalf("queue depth query: %+v", got)
	}
	// Self-scrape: the store's own families appear in history too.
	obs, err := e.store.QueryInstant("blu_obsd_scrapes_total", e.clock())
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 1 {
		t.Fatalf("blu_obsd_scrapes_total not in history: %+v", obs)
	}
}

func TestRateOverWindow(t *testing.T) {
	e := newTestEnv(t, Options{Step: 5 * time.Second, Retention: 5 * time.Minute})
	// Counter rises 10 per 5s scrape → rate 2/s.
	var admitted uint64
	for i := 0; i < 6; i++ {
		admitted += 10
		e.setAdmission(simpleAdmission(0, admitted, 0, nil))
		e.advance()
	}
	got, err := e.store.QueryInstant(`rate(blu_serve_queries_total{outcome="admitted"}[20s])`, e.clock())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("rate query returned %d series", len(got))
	}
	// Window 20s covers 4 points → 3 deltas of 10 → 30/20 = 1.5.
	if v := got[0].Points[0].V; v != 1.5 {
		t.Fatalf("rate = %v, want 1.5", v)
	}
}

func TestRateCounterReset(t *testing.T) {
	e := newTestEnv(t, Options{Step: 5 * time.Second, Retention: 5 * time.Minute})
	for _, admitted := range []uint64{100, 110, 5, 15} {
		e.setAdmission(simpleAdmission(0, admitted, 0, nil))
		e.advance()
	}
	got, err := e.store.QueryInstant(`rate(blu_serve_queries_total{outcome="admitted"}[20s])`, e.clock())
	if err != nil {
		t.Fatal(err)
	}
	// Deltas: +10, reset→+5, +10 = 25 over 20s.
	if v := got[0].Points[0].V; v != 1.25 {
		t.Fatalf("rate with reset = %v, want 1.25", v)
	}
}

func TestHistogramQuantile(t *testing.T) {
	e := newTestEnv(t, Options{Step: 5 * time.Second, Retention: time.Minute})
	// 100 observations: 50 ≤10ms, 90 ≤50ms, 99 ≤200ms, 100 ≤1s.
	e.setAdmission(simpleAdmission(0, 100, 0, []uint64{50, 90, 99, 100}))
	e.advance()

	got, err := e.store.QueryInstant("histogram_quantile(0.50, blu_serve_wall_seconds_bucket)", e.clock())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("quantile returned %d series: %+v", len(got), got)
	}
	// rank = 50, first bucket cum 50 → interpolate within [0, 0.01]:
	// 0 + 0.01*(50-0)/(50-0) = 0.01.
	if v := got[0].Points[0].V; v != 0.01 {
		t.Fatalf("p50 = %v, want 0.01", v)
	}
	got99, err := e.store.QueryInstant("histogram_quantile(0.99, blu_serve_wall_seconds_bucket)", e.clock())
	if err != nil {
		t.Fatal(err)
	}
	// rank = 99 → exactly the 0.2 bound.
	if v := got99[0].Points[0].V; v != 0.2 {
		t.Fatalf("p99 = %v, want 0.2", v)
	}
	// The le label must be gone; class must remain.
	if lm := labelsToMap(got[0].Name, got[0].Labels); lm["le"] != "" || lm["class"] != "simple" {
		t.Fatalf("quantile labels wrong: %v", lm)
	}
}

func TestRingEvictionAtRetention(t *testing.T) {
	// Retention 20s at 5s step → capacity 4 points.
	e := newTestEnv(t, Options{Step: 5 * time.Second, Retention: 20 * time.Second})
	for i := 0; i < 10; i++ {
		e.setAdmission(simpleAdmission(i, uint64(i), 0, nil))
		e.advance()
	}
	s := e.store
	s.mu.RLock()
	sr := s.series["blu_serve_queue_depth"]
	n := sr.ring.n
	oldest := sr.ring.at(0)
	newest := sr.ring.at(n - 1)
	s.mu.RUnlock()
	if n != 4 {
		t.Fatalf("ring holds %d points, want capacity 4", n)
	}
	if newest.v != 9 || oldest.v != 6 {
		t.Fatalf("ring window wrong: oldest %v newest %v", oldest.v, newest.v)
	}
	// A query at an evicted timestamp finds nothing (instant lookback
	// only reaches 2 steps back from the query time).
	early := baseTime.Add(5 * time.Second)
	got, err := e.store.QueryInstant("blu_serve_queue_depth", early)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("evicted point still visible: %+v", got)
	}
}

func TestMaxSeriesBound(t *testing.T) {
	e := newTestEnv(t, Options{Step: 5 * time.Second, Retention: time.Minute, MaxSeries: 3})
	e.setAdmission(simpleAdmission(1, 1, 0, []uint64{1, 1, 1, 1}))
	e.advance()
	snap := e.store.ObsSnapshot()
	if snap.Series != 3 {
		t.Fatalf("series = %d, want bound 3", snap.Series)
	}
	if snap.DroppedSeries == 0 {
		t.Fatalf("expected dropped series past the bound")
	}
}

func TestRuleHoldDownAndFlapSuppression(t *testing.T) {
	e := newTestEnv(t, Options{Step: 5 * time.Second, Retention: 5 * time.Minute})
	err := e.store.SetRules([]Rule{{
		Name:     "DeepQueue",
		Expr:     "blu_serve_queue_depth > 5",
		For:      10 * time.Second, // 2 steps
		Severity: metrics.SeverityPage,
		Summary:  "queue too deep",
	}})
	if err != nil {
		t.Fatal(err)
	}

	// Condition true once, then false: pending, then silently inactive.
	e.setAdmission(simpleAdmission(10, 0, 0, nil))
	e.advance()
	if st := e.store.ObsSnapshot().Alerts.States[0]; st.State != metrics.AlertPending {
		t.Fatalf("after 1 true eval: %q, want pending", st.State)
	}
	e.setAdmission(simpleAdmission(0, 0, 0, nil))
	e.advance()
	snap := e.store.ObsSnapshot().Alerts
	if st := snap.States[0]; st.State != metrics.AlertInactive {
		t.Fatalf("flap: %q, want inactive", st.State)
	}
	// Flap must be suppressed: only the pending transition recorded.
	if len(snap.Transitions) != 1 || snap.Transitions[0].To != "pending" {
		t.Fatalf("flap transitions: %+v", snap.Transitions)
	}
	if e.store.PagesFiring() != 0 {
		t.Fatalf("flap must not fire")
	}

	// Held condition: pending at t1, firing once for: elapses.
	e.setAdmission(simpleAdmission(10, 0, 0, nil))
	e.advance() // pending
	e.advance() // held 5s < 10s... still pending
	if st := e.store.ObsSnapshot().Alerts.States[0]; st.State != metrics.AlertPending {
		t.Fatalf("one step into hold-down: %q, want pending", st.State)
	}
	e.advance() // held 10s → firing
	snap = e.store.ObsSnapshot().Alerts
	if st := snap.States[0]; st.State != metrics.AlertFiring {
		t.Fatalf("after hold-down: %q, want firing", st.State)
	}
	if snap.PagesFiring != 1 || e.store.PagesFiring() != 1 {
		t.Fatalf("pages firing = %d/%d, want 1", snap.PagesFiring, e.store.PagesFiring())
	}

	// Recovery: resolved transition.
	e.setAdmission(simpleAdmission(0, 0, 0, nil))
	e.advance()
	snap = e.store.ObsSnapshot().Alerts
	if st := snap.States[0]; st.State != metrics.AlertInactive {
		t.Fatalf("after recovery: %q, want inactive", st.State)
	}
	last := snap.Transitions[len(snap.Transitions)-1]
	if last.To != "resolved" {
		t.Fatalf("last transition %q, want resolved", last.To)
	}

	// The full lifecycle is in the qlog stream as alert events.
	recs, err := qlog.Decode(e.qlogBytes())
	if err != nil {
		t.Fatalf("qlog decode: %v", err)
	}
	var states []string
	for _, r := range recs {
		if r.Event == qlog.EventAlert {
			states = append(states, r.AlertState)
		}
	}
	want := []string{"pending", "pending", "firing", "resolved"}
	if len(states) != len(want) {
		t.Fatalf("qlog alert events %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("qlog alert events %v, want %v", states, want)
		}
	}
}

func TestBreakerRuleModes(t *testing.T) {
	e := newTestEnv(t, Options{Step: 5 * time.Second, Retention: time.Minute})
	mk := func(a, b int) *metrics.AdmissionSnapshot {
		return &metrics.AdmissionSnapshot{Classes: []metrics.ClassAdmissionSnapshot{
			{Class: "alpha", Active: a},
			{Class: "beta", Active: b},
		}}
	}
	err := e.store.SetRules([]Rule{
		{Name: "Any", Expr: "blu_serve_class_active", Kind: KindBreaker, Mode: "any", Severity: metrics.SeverityWarn},
		{Name: "All", Expr: "blu_serve_class_active", Kind: KindBreaker, Mode: "all", Severity: metrics.SeverityPage},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.setAdmission(mk(1, 0))
	e.advance()
	snap := e.store.ObsSnapshot().Alerts
	if snap.States[0].State != metrics.AlertFiring || snap.States[1].State != metrics.AlertInactive {
		t.Fatalf("any/all with one nonzero: %+v", snap.States)
	}
	e.setAdmission(mk(1, 2))
	e.advance()
	snap = e.store.ObsSnapshot().Alerts
	if snap.States[1].State != metrics.AlertFiring {
		t.Fatalf("all with both nonzero: %+v", snap.States[1])
	}
	if snap.States[1].Value != 2 {
		t.Fatalf("breaker value = %v, want 2 (nonzero count)", snap.States[1].Value)
	}
}

func TestAbsentRule(t *testing.T) {
	e := newTestEnv(t, Options{Step: 5 * time.Second, Retention: time.Minute})
	err := e.store.SetRules([]Rule{{
		Name: "AdmissionAbsent", Expr: "blu_serve_queue_depth",
		Kind: KindAbsent, Severity: metrics.SeverityInfo,
	}})
	if err != nil {
		t.Fatal(err)
	}
	e.advance() // no admission source → absent fires (no for:)
	if st := e.store.ObsSnapshot().Alerts.States[0]; st.State != metrics.AlertFiring {
		t.Fatalf("absent: %q, want firing", st.State)
	}
	e.setAdmission(simpleAdmission(1, 1, 0, nil))
	e.advance()
	if st := e.store.ObsSnapshot().Alerts.States[0]; st.State != metrics.AlertInactive {
		t.Fatalf("absent after data: %q, want inactive", st.State)
	}
}

func TestDefaultRulesLoad(t *testing.T) {
	e := newTestEnv(t, Options{Step: 5 * time.Second, Retention: time.Minute})
	if err := e.store.SetRules(DefaultRules(5 * time.Second)); err != nil {
		t.Fatalf("default rules must parse: %v", err)
	}
	snap := e.store.ObsSnapshot().Alerts
	if snap.Rules != 5 {
		t.Fatalf("default rules = %d, want 5", snap.Rules)
	}
}

// Scraper vs rule engine vs query surfaces under -race.
func TestConcurrentScrapeAndQuery(t *testing.T) {
	e := newTestEnv(t, Options{Step: time.Millisecond, Retention: 100 * time.Millisecond})
	if err := e.store.SetRules(DefaultRules(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	e.setAdmission(simpleAdmission(3, 50, 2, []uint64{10, 20, 30, 40}))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			e.advance()
		}
		close(stop)
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			e.store.QueryRange("blu_serve_queue_depth", baseTime, e.clock(), e.store.Step())
			e.store.QueryInstant(`rate(blu_serve_queries_total{outcome="admitted"}[20ms])`, e.clock())
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			e.store.ObsSnapshot()
			e.store.PagesFiring()
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			e.store.SeriesCount()
		}
	}()
	wg.Wait()
	if e.store.ObsSnapshot().Scrapes != 200 {
		t.Fatalf("scrapes = %d, want 200", e.store.ObsSnapshot().Scrapes)
	}
}

func TestStartStop(t *testing.T) {
	e := newTestEnv(t, Options{Step: time.Millisecond, Retention: 50 * time.Millisecond})
	e.setAdmission(simpleAdmission(1, 1, 0, nil))
	e.store.Start()
	time.Sleep(20 * time.Millisecond)
	e.store.Stop()
	if e.store.ObsSnapshot().Scrapes == 0 {
		t.Fatal("background scraper took no scrapes")
	}
}

// TestThreeViewsOfOneScrape: the exposition's sample lines, the
// registry's flattened Samples and the series the store keeps after one
// scrape are one list. The store keeps its series in identity order, so
// its list is held to the exposition's lines sorted. A query name that
// needs escaping checks that the store keys a series by the exposition's
// own identity.
func TestThreeViewsOfOneScrape(t *testing.T) {
	m := monitor.New()
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventKernel, Name: "grpby_k1", Modeled: 2 * vtime.Millisecond})
	m.RecordGPUEvent(gpu.Event{Kind: gpu.EventKernel, Name: "grpby_k2", Modeled: 300 * vtime.Microsecond})
	m.RecordQuery(`say "hi" \ bye`, 1500*vtime.Microsecond, true)
	src := metrics.Sources{Monitor: m}
	r := metrics.Collect(src)

	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(strings.TrimSuffix(text.String(), "\n"), "\n") {
		if !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	var flat []string
	histogram := false
	for _, sm := range r.Samples() {
		flat = append(flat, metrics.SeriesID(sm.Name, sm.Labels)+" "+metrics.FormatValue(sm.Value))
		histogram = histogram || strings.HasSuffix(sm.Name, "_bucket")
	}
	if !histogram {
		t.Fatal("scrape has no histogram family")
	}
	if strings.Join(flat, "\n") != strings.Join(lines, "\n") {
		t.Fatalf("Samples() differs from WriteText's sample lines\n--- samples ---\n%s\n--- text ---\n%s",
			strings.Join(flat, "\n"), strings.Join(lines, "\n"))
	}

	s := New(Options{Clock: func() time.Time { return baseTime }, Sources: func() metrics.Sources { return src }})
	s.Scrape()
	var held []string
	for _, k := range s.keys {
		sr := s.series[k]
		if sr.ring.n != 1 {
			t.Fatalf("%s holds %d points after one scrape", k, sr.ring.n)
		}
		held = append(held, k+" "+metrics.FormatValue(sr.ring.at(0).v))
	}
	sort.Strings(lines)
	if strings.Join(held, "\n") != strings.Join(lines, "\n") {
		t.Fatalf("store series differ from the exposition\n--- store ---\n%s\n--- text ---\n%s",
			strings.Join(held, "\n"), strings.Join(lines, "\n"))
	}
}
