package engine

import (
	"bytes"
	"regexp"
	"slices"
	"strings"
	"testing"

	"blugpu/internal/columnar"
	"blugpu/internal/optimizer"
	"blugpu/internal/workload"
)

// joinClause matches one JOIN of a workload statement: the joined table
// and the two columns of its condition.
var joinClause = regexp.MustCompile(`JOIN (\w+) ON (\w+) = (\w+)`)

// joinOrders returns sql with its JOIN clauses written in every order a
// join may take: a join keyed by a column of the FROM table anywhere, a
// join keyed by another joined table's column (a snowflake link) only
// after that table's join. The first is sql itself.
func joinOrders(t *testing.T, sql string, ds *workload.Dataset) []string {
	t.Helper()
	locs := joinClause.FindAllStringSubmatchIndex(sql, -1)
	from := regexp.MustCompile(`FROM (\w+)`).FindStringSubmatch(sql)[1]
	clauses := make([]string, len(locs))
	supplier := make([]int, len(locs)) // the join whose table has the key; -1: the FROM table's
	for i, l := range locs {
		if i > 0 && strings.TrimSpace(sql[locs[i-1][1]:l[0]]) != "" {
			t.Fatalf("JOIN clauses are not adjacent in %q", sql)
		}
		clauses[i] = sql[l[0]:l[1]]
		key := sql[l[4]:l[5]]
		supplier[i] = -2
		if ds.Table(from).HasColumn(key) {
			supplier[i] = -1
		}
		for j, m := range locs {
			if ds.Table(sql[m[2]:m[3]]).HasColumn(key) {
				supplier[i] = j
			}
		}
		if supplier[i] == -2 {
			t.Fatalf("no table has join key %q in %q", key, sql)
		}
	}
	var out []string
	var permute func(order []int, rest []int)
	permute = func(order, rest []int) {
		if len(rest) == 0 {
			parts := make([]string, len(order))
			for p, i := range order {
				parts[p] = clauses[i]
			}
			out = append(out, sql[:locs[0][0]]+strings.Join(parts, "\n")+sql[locs[len(locs)-1][1]:])
			return
		}
		for k, i := range rest {
			if s := supplier[i]; s >= 0 && !slices.Contains(order, s) {
				continue
			}
			next := append(slices.Clone(rest[:k]), rest[k+1:]...)
			permute(append(slices.Clone(order), i), next)
		}
	}
	all := make([]int, len(locs))
	for i := range all {
		all[i] = i
	}
	permute(nil, all)
	return out
}

// joinRunOrder lists the tables a query joined, in the order it joined
// them.
func joinRunOrder(res *Result) []string {
	var out []string
	for _, op := range res.Ops {
		if op.Op == "join" {
			out = append(out, strings.Fields(op.Detail)[0])
		}
	}
	return out
}

// TestStarOrderAnswers holds the order a star's joins run in to answers
// that cannot move: every workload statement with two or more joins, its
// JOINs also written in every other order a join may take, GPU on (fused
// and NoFusion, T1 = 1 so every group-by takes the device) and GPU off at
// sf 0.02, each order run as the engine picks it and in SQL order. Every
// run of a statement must render to the same bytes. Then the rule's
// edges: the ROLAP q01 shape runs its selective date_dim join first, and
// a snowflake link and a dimension whose key is not unique stay in SQL
// order although their predicates keep the smaller fraction.
func TestStarOrderAnswers(t *testing.T) {
	ds := workload.Generate(0.02, 20160626)
	var stmts []workload.Query
	for _, q := range workloadQueries() {
		if len(joinClause.FindAllString(q.SQL, -1)) >= 2 {
			stmts = append(stmts, q)
		}
	}
	if len(stmts) < 30 {
		t.Fatalf("%d statements with two joins, want at least 30", len(stmts))
	}
	configs := []struct {
		name          string
		gpu, noFusion bool
	}{{"gpu-on", true, false}, {"nofusion", true, true}, {"gpu-off", false, false}}
	answers := map[string][]byte{}
	moved := 0
	defer func() { sqlOrderOnly = false }()
	for _, c := range configs {
		e, err := New(Config{Devices: 2, Degree: 8, NoFusion: c.noFusion, Thresholds: optimizer.Thresholds{T1Rows: 1, T3Rows: 1 << 40}})
		if err != nil {
			t.Fatal(err)
		}
		e.SetGPUEnabled(c.gpu)
		if err := ds.RegisterAll(e); err != nil {
			t.Fatal(err)
		}
		for _, q := range stmts {
			for v, sql := range joinOrders(t, q.SQL, ds) {
				var orders [2][]string
				for i, literal := range []bool{false, true} {
					sqlOrderOnly = literal
					res, err := e.QueryNamed(q.ID, sql)
					sqlOrderOnly = false
					if err != nil {
						t.Fatalf("%s %s order %d: %v", c.name, q.ID, v, err)
					}
					orders[i] = joinRunOrder(res)
					got := canonicalResult(res.Table)
					if want, ok := answers[q.ID]; !ok {
						answers[q.ID] = got
					} else if !bytes.Equal(got, want) {
						t.Errorf("%s %s order %d (SQL order only %v): answer differs", c.name, q.ID, v, literal)
					}
				}
				if !slices.Equal(orders[0], orders[1]) {
					moved++
				}
			}
		}
	}
	if moved == 0 {
		t.Error("no statement ran its joins out of SQL order")
	}

	e, err := New(Config{Devices: 0, Degree: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.RegisterAll(e); err != nil {
		t.Fatal(err)
	}
	// A dimension whose key is not unique: two rows a store.
	sk, half := columnar.NewInt64Builder("sp_store_sk"), columnar.NewInt64Builder("sp_half")
	for i := 0; i < 24; i++ {
		sk.Append(int64(i % 12))
		half.Append(int64(i / 12))
	}
	if err := e.Register(columnar.MustNewTable("store_pairs", sk.Build(), half.Build())); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, sql string
		want      []string
	}{
		{"selective dimension first", workload.CognosROLAP()[0].SQL, []string{"date_dim", "item"}},
		{"snowflake link stays above its key's join", `SELECT ca_state, SUM(cs_net_paid) AS rev
FROM catalog_sales JOIN customer ON cs_bill_customer_sk = c_customer_sk
JOIN customer_address ON c_current_addr_sk = ca_address_sk
WHERE ca_state = 'CA' GROUP BY ca_state`, []string{"customer", "customer_address"}},
		{"non-unique dimension key stays", `SELECT i_category, COUNT(*) AS cnt
FROM store_sales JOIN item ON ss_item_sk = i_item_sk
JOIN store_pairs ON ss_store_sk = sp_store_sk
WHERE sp_half = 0 GROUP BY i_category`, []string{"item", "store_pairs"}},
	} {
		res, err := e.QueryNamed(tc.name, tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := joinRunOrder(res); !slices.Equal(got, tc.want) {
			t.Errorf("%s: joins ran %v, want %v", tc.name, got, tc.want)
		}
	}
}
