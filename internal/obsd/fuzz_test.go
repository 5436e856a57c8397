package obsd

import (
	"fmt"
	"net/url"
	"strings"
	"testing"
	"time"
)

// rulesFile renders rules in ParseRules's format.
func rulesFile(rules []Rule) []byte {
	var b strings.Builder
	for _, r := range rules {
		fmt.Fprintf(&b, "alert: %s\nexpr: %s\nkind: %s\nmode: %s\nfor: %s\nseverity: %s\nsummary: %s\n\n",
			r.Name, r.Expr, r.Kind, r.Mode, r.For, r.Severity, r.Summary)
	}
	return []byte(b.String())
}

// FuzzParseRules: no rules file may panic the parser, and a rule set it
// accepts must install through SetRules or be refused with an error —
// never panic the store. Seeded with the default rule set, the rule
// behind testdata/alerts.json and the parser test's file.
func FuzzParseRules(f *testing.F) {
	f.Add(rulesFile(DefaultRules(5 * time.Second)))
	f.Add(rulesFile([]Rule{{Name: "DeepQueue", Expr: "blu_serve_queue_depth > 5", For: 10 * time.Second,
		Severity: "page", Summary: "admission queue too deep"}}))
	f.Add([]byte("# page\nalert: AllBreakersOpen\nexpr: blu_device_quarantined\nkind: breaker\nmode: all\nfor: 10s\nseverity: page\n\nalert: HighBurn\nexpr: blu_slo_burn_rate > 2\nfor: 30s\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rules, err := ParseRules(data)
		if err != nil {
			return
		}
		s := New(Options{Step: time.Second})
		_ = s.SetRules(rules)
	})
}

// FuzzParseExpr: no query may panic the parser, and every query it
// accepts must evaluate over a range on an empty store without error.
// Seeded with the queries behind testdata/query_range_*.json, the default
// rules' expressions and forms from the parser test.
func FuzzParseExpr(f *testing.F) {
	for _, q := range []string{
		"blu_serve_queue_depth",
		`rate(blu_serve_queries_total{outcome="admitted"}[20s])`,
		"histogram_quantile(0.99, blu_serve_wall_seconds_bucket)",
		"histogram_quantile(0.99, rate(blu_serve_wall_seconds_bucket[20s]))",
		`blu_x{a="1",b="2"} >= 2.5`,
		"delta(blu_serve_queue_depth[30s]) != 0",
	} {
		f.Add(q)
	}
	for _, r := range DefaultRules(5 * time.Second) {
		f.Add(r.Expr)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		e, err := ParseExpr(expr)
		if err != nil {
			return
		}
		_ = e.String()
		s := New(Options{Step: time.Second})
		start := time.Unix(1_767_322_800, 0)
		if _, err := s.QueryRange(expr, start, start.Add(time.Minute), 5*time.Second); err != nil {
			t.Fatalf("ParseExpr accepted %q, QueryRange refused it: %v", url.QueryEscape(expr), err)
		}
	})
}
