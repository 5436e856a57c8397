package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"blugpu/internal/metrics"
	"blugpu/internal/qlog"
	"blugpu/internal/serve"
)

// obsStep is the injected scrape interval: the default rules derive a
// 2×step hold-down from it, so the firing deadline under test is two
// scrapes after pending.
const obsStep = time.Second

// dashSurfaces names the deterministic surfaces a run captures for the
// cross-run byte comparison.
var dashSurfaces = [3]string{"/debug/alerts JSON", "blu_alerts_* lines of /metrics", "qlog alert records"}

type dashRun struct {
	surfaces      [3][]byte // in dashSurfaces order
	scrapesToFire int       // scrapes from fault injection to firing
}

// checkDash is the embedded-observability check: with the obsd store on
// an injected clock it trips every device breaker and walks the
// AllBreakersOpen page alert through pending → firing → resolved,
// checking /healthz at each stage and the lifecycle on all four
// surfaces (/debug/alerts, blu_alerts_*, the query log, /debug/dash). A
// second identical run (same seed, clock and scrape sequence) must
// reproduce those surfaces byte for byte, and the store's own scrape
// cost must stay within budget.
func checkDash(c *check) error {
	r1, err := dashOnce(c)
	if err != nil {
		return err
	}
	c.logf("lifecycle ok (fired %d scrape(s) after fault, hold-down %s)", r1.scrapesToFire, 2*obsStep)

	// Determinism: an identical second run must reproduce the alert
	// surfaces bit for bit — the injected clock, not wall time, stamps
	// every transition.
	r2, err := dashOnce(c)
	if err != nil {
		return fmt.Errorf("second run: %w", err)
	}
	for i, name := range dashSurfaces {
		if a, b := r1.surfaces[i], r2.surfaces[i]; !bytes.Equal(a, b) {
			return fmt.Errorf("%s not byte-identical across identical runs:\n%s\nvs\n%s", name, a, b)
		}
	}
	c.logf("alert surfaces byte-identical across runs")
	return nil
}

// dashOnce boots a fresh stack, walks the breaker-alert lifecycle, and
// verifies every surface.
func dashOnce(c *check) (*dashRun, error) {
	// Injected clock, shared by the store and the query log; it only
	// moves when tick() says so, making every transition timestamp a
	// pure function of the scrape sequence. The background loops stay
	// off for the same reason: this check is the only scraper.
	var nowNs atomic.Int64
	nowNs.Store(time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC).UnixNano())
	clock := func() time.Time { return time.Unix(0, nowNs.Load()).UTC() }
	err := c.boot(sfSmall, false, serve.StackOptions{Clock: clock, ObsStep: obsStep, ObsRetention: 2 * time.Minute})
	if err != nil {
		return nil, err
	}
	obs := c.st.Obs
	tick := func() {
		nowNs.Add(int64(obsStep))
		obs.Scrape()
	}

	// Traffic first, so the wall histograms and prof exec cells have
	// content before any scrape retains them.
	if _, err := c.postIdentified(6, false); err != nil {
		return nil, err
	}

	// Healthy baseline: two scrapes, no pages firing, /healthz green.
	tick()
	tick()
	if pf := obs.PagesFiring(); pf != 0 {
		return nil, fmt.Errorf("healthy baseline: %d pages firing", pf)
	}
	if _, err := c.get("/healthz", http.StatusOK); err != nil {
		return nil, fmt.Errorf("healthy baseline: %w", err)
	}

	// Inject the fault: open every device breaker, then scrape. The
	// AllBreakersOpen page rule must go pending immediately and fire
	// within one hold-down window (For/step scrapes after pending).
	c.tripBreakers()
	deadline := int(2*obsStep/obsStep) + 1 // pending scrape + For worth of holds
	scrapes := 0
	for obs.PagesFiring() == 0 {
		if scrapes >= deadline {
			return nil, fmt.Errorf("AllBreakersOpen did not fire within %d scrapes (one for: window)", deadline)
		}
		tick()
		scrapes++
	}
	if _, err := c.get("/healthz", http.StatusServiceUnavailable); err != nil {
		return nil, fmt.Errorf("firing page alert: %w", err)
	}

	// Recover: the breakers close; the next scrape resolves the alert.
	c.recoverBreakers()
	tick()
	if pf := obs.PagesFiring(); pf != 0 {
		return nil, fmt.Errorf("after recovery: %d pages still firing", pf)
	}
	if _, err := c.get("/healthz", http.StatusOK); err != nil {
		return nil, fmt.Errorf("after recovery: %w", err)
	}

	// Surface 1: /debug/alerts carries the full lifecycle.
	alerts, err := c.get("/debug/alerts", http.StatusOK)
	if err != nil {
		return nil, err
	}
	var snap metrics.AlertsSnapshot
	if err := json.Unmarshal(alerts, &snap); err != nil {
		return nil, fmt.Errorf("/debug/alerts: %w", err)
	}
	var lifecycle []string
	for _, tr := range snap.Transitions {
		if tr.Alert == "AllBreakersOpen" {
			lifecycle = append(lifecycle, tr.To)
		}
	}
	if strings.Join(lifecycle, ",") != "pending,firing,resolved" {
		return nil, fmt.Errorf("/debug/alerts lifecycle = %v, want [pending firing resolved]", lifecycle)
	}

	// Surface 2: the blu_alerts_* family on /metrics records the same
	// transitions, and the scrape still validates as exposition text.
	scrape, err := c.scrape(
		"blu_obsd_scrapes_total",
		`blu_alerts_transitions_total{alert="AllBreakersOpen",to="firing"} 1`,
		`blu_alerts_transitions_total{alert="AllBreakersOpen",to="resolved"} 1`,
	)
	if err != nil {
		return nil, err
	}
	var alertLines []string
	for _, line := range strings.Split(string(scrape), "\n") {
		if strings.Contains(line, "blu_alerts") {
			alertLines = append(alertLines, line)
		}
	}

	// Surface 3: the query log carries one alert event per transition,
	// stamped by the injected clock, and still validates as a whole.
	recs, logBytes, err := c.records()
	if err != nil {
		return nil, err
	}
	var qlogLifecycle []string
	for _, rec := range recs {
		if rec.Event == qlog.EventAlert && rec.Alert == "AllBreakersOpen" {
			qlogLifecycle = append(qlogLifecycle, rec.AlertState)
		}
	}
	if strings.Join(qlogLifecycle, ",") != "pending,firing,resolved" {
		return nil, fmt.Errorf("qlog lifecycle = %v, want [pending firing resolved]", qlogLifecycle)
	}
	var qlogAlerts bytes.Buffer
	for _, line := range bytes.Split(logBytes, []byte("\n")) {
		if bytes.Contains(line, []byte(`"event":"alert"`)) {
			qlogAlerts.Write(line)
			qlogAlerts.WriteByte('\n')
		}
	}

	// Surface 4: the dash renders the alert table (with the resolved
	// state) and its sparkline panels.
	dash, err := c.get("/debug/dash", http.StatusOK)
	if err != nil {
		return nil, err
	}
	for _, needle := range []string{"AllBreakersOpen", "resolved", "<svg"} {
		if !bytes.Contains(dash, []byte(needle)) {
			return nil, fmt.Errorf("/debug/dash: %q missing", needle)
		}
	}

	// Overhead: the store's scrape wall, attributed to the (obsd,
	// scrape) prof cell, must be invisible next to execution — under 1%
	// of exec wall, with an absolute floor because a smoke-sized
	// workload executes for well under a second.
	var obsdWall, execWall float64
	for _, ps := range c.st.Prof.Snapshot() {
		switch {
		case ps.Class == "obsd" && ps.Phase == "scrape":
			obsdWall += ps.WallSeconds
		case ps.Phase == "exec":
			execWall += ps.WallSeconds
		}
	}
	if obsdWall <= 0 {
		return nil, fmt.Errorf("no (obsd, scrape) wall attributed — scrape overhead unaccounted")
	}
	if budget := max(0.01*execWall, 0.050); obsdWall > budget {
		return nil, fmt.Errorf("obsd scrape wall %.1fms exceeds budget %.1fms (exec wall %.1fms)",
			obsdWall*1e3, budget*1e3, execWall*1e3)
	}
	c.logf("surfaces ok (alerts %dB, dash %dB, %d qlog records)", len(alerts), len(dash), len(recs))
	c.logf("scrape overhead %.2fms over %d scrapes (exec wall %.1fms)", obsdWall*1e3, 2+scrapes+1, execWall*1e3)
	return &dashRun{
		surfaces:      [3][]byte{alerts, []byte(strings.Join(alertLines, "\n")), qlogAlerts.Bytes()},
		scrapesToFire: scrapes,
	}, nil
}
