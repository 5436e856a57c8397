// Package obsd is the embedded observability daemon: a bounded,
// deterministic time-series store plus alert engine that converts the
// process's point-in-time /metrics snapshots into in-process history.
//
// A self-scraper samples the metrics registry on an injectable clock
// into fixed-size ring series (one ring per exposition sample series;
// counters store raw monotonic values, with rate/delta/quantile
// evaluated at query time). A rule engine evaluates declarative alert
// rules over those series with `for:` hold-down and resolved
// transitions, emitting state into blu_alerts_* metrics, the qlog
// event stream, GET /debug/alerts, and GET /debug/dash. History is
// queryable through a Prometheus-compatible subset on
// GET /api/v1/query_range.
//
// Determinism contract: with an injected clock and identical source
// state, every surface — query_range JSON, /debug/alerts, the dash
// HTML, alert transitions, qlog events — is byte-identical across
// runs. Nothing in the store reads the real clock except the scrape
// overhead attribution (prof wall time, which is informational).
package obsd

import (
	"sort"
	"sync"
	"time"

	"blugpu/internal/metrics"
	"blugpu/internal/prof"
	"blugpu/internal/qlog"
)

// Defaults for Options zero values.
const (
	DefaultStep      = 5 * time.Second
	DefaultRetention = 15 * time.Minute
	DefaultMaxSeries = 4096
)

// Options configures a Store.
type Options struct {
	// Step is the scrape interval; it also sets the instant-query
	// lookback window (2×Step) and ring granularity.
	Step time.Duration
	// Retention bounds how far back rings hold samples. Ring capacity
	// is Retention/Step points; older points are evicted in place.
	Retention time.Duration
	// Clock stamps samples and drives rule evaluation. Defaults to
	// time.Now; tests inject a fixed clock for byte-stable surfaces.
	Clock func() time.Time
	// Sources is called per scrape to snapshot the live registry. The
	// returned Sources may include this store's own Obs hook — the
	// scrape collects without holding store locks, so the blu_obsd_*
	// and blu_alerts_* families appear in history like any other.
	Sources func() metrics.Sources
	// Log, when set, receives one EventAlert record per rule-state
	// transition (pending, firing, resolved).
	Log *qlog.Logger
	// Prof, when set, bills scrape+evaluate wall time to the "obsd"
	// class, "scrape" phase — the store's own overhead, attributed.
	Prof *prof.Accountant
	// MaxSeries bounds distinct ring series; new series past the bound
	// are dropped (counted in blu_obsd_dropped_series_total).
	MaxSeries int
}

// point is one retained sample: unix-millisecond timestamp + value.
type point struct {
	t int64
	v float64
}

// ring is a fixed-capacity circular buffer of points, oldest evicted
// in place once full.
type ring struct {
	buf   []point
	start int
	n     int
}

func (r *ring) push(p point) {
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = p
		r.n++
		return
	}
	r.buf[r.start] = p
	r.start = (r.start + 1) % len(r.buf)
}

// at returns the i-th oldest retained point.
func (r *ring) at(i int) point { return r.buf[(r.start+i)%len(r.buf)] }

// series is one ring plus its identity.
type series struct {
	name   string
	labels []metrics.Label // sorted, as flattened by metrics.Samples
	ring   ring
}

// Store is the embedded time-series store + alert engine.
type Store struct {
	step      time.Duration
	retention time.Duration
	clock     func() time.Time
	sources   func() metrics.Sources
	log       *qlog.Logger
	prof      *prof.Accountant
	maxSeries int
	cap       int

	mu      sync.RWMutex
	series  map[string]*series
	keys    []string // sorted series keys, maintained on insert
	scrapes uint64
	samples uint64
	dropped uint64
	wallSec float64
	last    time.Time

	engine *engine // rule engine; owns its own lock

	stopOnce sync.Once
	stopCh   chan struct{}
	done     chan struct{}
}

// New builds a Store. Sources is required.
func New(opts Options) *Store {
	if opts.Step <= 0 {
		opts.Step = DefaultStep
	}
	if opts.Retention <= 0 {
		opts.Retention = DefaultRetention
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.MaxSeries <= 0 {
		opts.MaxSeries = DefaultMaxSeries
	}
	capacity := int(opts.Retention / opts.Step)
	if capacity < 2 {
		capacity = 2
	}
	return &Store{
		step:      opts.Step,
		retention: opts.Retention,
		clock:     opts.Clock,
		sources:   opts.Sources,
		log:       opts.Log,
		prof:      opts.Prof,
		maxSeries: opts.MaxSeries,
		cap:       capacity,
		series:    make(map[string]*series),
		engine:    newEngine(opts.Log),
		stopCh:    make(chan struct{}),
	}
}

// Step returns the configured scrape interval.
func (s *Store) Step() time.Duration { return s.step }

// SetRules loads (replacing) the alert rules. Rule expressions are
// parsed eagerly so a bad rules file fails at load, not at runtime.
func (s *Store) SetRules(rules []Rule) error {
	return s.engine.setRules(rules)
}

// Scrape takes one sample+evaluate cycle at the injected clock's
// current time: collect the sources into a fresh registry, flatten it
// into sample points, append each to its ring, then evaluate the alert
// rules against the new history. Collection runs without store locks,
// so a Sources.Obs hook pointing back at this store is safe.
func (s *Store) Scrape() {
	wallStart := time.Now()
	now := s.clock()
	tMs := now.UnixMilli()

	var samples []metrics.Sample
	if s.sources != nil {
		samples = metrics.Collect(s.sources()).Samples()
	}

	s.mu.Lock()
	for _, sm := range samples {
		key := metrics.SeriesID(sm.Name, sm.Labels)
		sr, ok := s.series[key]
		if !ok {
			if len(s.series) >= s.maxSeries {
				s.dropped++
				continue
			}
			sr = &series{name: sm.Name, labels: sm.Labels, ring: ring{buf: make([]point, s.cap)}}
			s.series[key] = sr
			i := sort.SearchStrings(s.keys, key)
			s.keys = append(s.keys, "")
			copy(s.keys[i+1:], s.keys[i:])
			s.keys[i] = key
		}
		sr.ring.push(point{t: tMs, v: sm.Value})
		s.samples++
	}
	s.scrapes++
	s.last = now
	s.mu.Unlock()

	s.engine.evaluate(s, now)

	wall := time.Since(wallStart)
	s.mu.Lock()
	s.wallSec += wall.Seconds()
	s.mu.Unlock()
	if s.prof != nil {
		s.prof.AddWall("obsd", "scrape", wall)
	}
}

// Start launches the background scraper at the configured step.
// Deployments call this once; tests drive Scrape directly instead.
func (s *Store) Start() {
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		tick := time.NewTicker(s.step)
		defer tick.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-tick.C:
				s.Scrape()
			}
		}
	}()
}

// Stop halts the background scraper and waits for it to exit.
func (s *Store) Stop() {
	s.stopOnce.Do(func() { close(s.stopCh) })
	if s.done != nil {
		<-s.done
	}
}

// SeriesCount returns the number of live ring series.
func (s *Store) SeriesCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.series)
}

// PagesFiring reports how many severity-page rules are currently
// firing — the serving layer's admission shedder hook.
func (s *Store) PagesFiring() int {
	return s.engine.pagesFiring()
}

// ObsSnapshot snapshots the store + alert engine for metrics.Collect
// (the Sources.Obs hook) and /healthz.
func (s *Store) ObsSnapshot() *metrics.ObsSnapshot {
	s.mu.RLock()
	o := &metrics.ObsSnapshot{
		Scrapes:           s.scrapes,
		Samples:           s.samples,
		Series:            len(s.series),
		DroppedSeries:     s.dropped,
		ScrapeWallSeconds: s.wallSec,
		StepSeconds:       s.step.Seconds(),
		RetentionSeconds:  s.retention.Seconds(),
	}
	if !s.last.IsZero() {
		o.LastScrape = s.last.UTC().Format(time.RFC3339Nano)
	}
	s.mu.RUnlock()
	o.Alerts = s.engine.snapshot()
	return o
}

// labelsToMap converts a sorted label slice (plus the series name under
// __name__) into the Prometheus result "metric" object.
func labelsToMap(name string, labels []metrics.Label) map[string]string {
	m := make(map[string]string, len(labels)+1)
	m["__name__"] = name
	for _, l := range labels {
		m[l.Name] = l.Value
	}
	return m
}
