package plan

import (
	"sort"
	"strings"
	"testing"

	"blugpu/internal/expr"
)

// placeCatalog is a fixed three-table star: one fact table and two
// dimensions, with the workload's column names.
var placeCatalog = map[string][]string{
	"store_sales": {"ss_sold_date_sk", "ss_sold_time_sk", "ss_item_sk", "ss_customer_sk", "ss_store_sk",
		"ss_promo_sk", "ss_ticket_number", "ss_quantity", "ss_wholesale_cost", "ss_list_price",
		"ss_sales_price", "ss_net_paid", "ss_net_profit"},
	"date_dim": {"d_date_sk", "d_year", "d_moy", "d_dom", "d_qoy", "d_dow", "d_day_name", "d_month_name"},
	"item":     {"i_item_sk", "i_brand", "i_category", "i_class", "i_current_price", "i_manufact_id"},
}

func catalogHas(table, column string) bool {
	for _, c := range placeCatalog[table] {
		if c == column {
			return true
		}
	}
	return false
}

func placed(t *testing.T, sql string) *Plan {
	t.Helper()
	p := build(t, sql)
	PlaceFilters(p, catalogHas)
	return p
}

// TestPlaceFilters: each WHERE conjunct lands on the one table it names;
// anything else stays where the planner put it.
func TestPlaceFilters(t *testing.T) {
	const star = "SELECT d_year, SUM(ss_net_paid) AS paid FROM store_sales " +
		"JOIN date_dim ON ss_sold_date_sk = d_date_sk JOIN item ON ss_item_sk = i_item_sk "
	const tail = " GROUP BY d_year"
	for _, tc := range []struct {
		name, sql, want string
	}{
		{"fact only", star + "WHERE ss_quantity > 5" + tail,
			"project(aggregate(join(join(filter(scan(store_sales), (ss_quantity > 5)), date_dim on ss_sold_date_sk=d_date_sk), item on ss_item_sk=i_item_sk), keys=[d_year], aggs=[SUM(ss_net_paid) as paid]), d_year=d_year, paid=paid)"},
		{"dimension only", star + "WHERE d_year = 2000 AND i_category = 'Books' AND d_moy < 6" + tail,
			"project(aggregate(join(join(scan(store_sales), date_dim on ss_sold_date_sk=d_date_sk where ((d_year = 2000) AND (d_moy < 6))), item on ss_item_sk=i_item_sk where (i_category = 'Books')), keys=[d_year], aggs=[SUM(ss_net_paid) as paid]), d_year=d_year, paid=paid)"},
		{"both", star + "WHERE ss_quantity > 5 AND d_year = 2000" + tail,
			"project(aggregate(join(join(filter(scan(store_sales), (ss_quantity > 5)), date_dim on ss_sold_date_sk=d_date_sk where (d_year = 2000)), item on ss_item_sk=i_item_sk), keys=[d_year], aggs=[SUM(ss_net_paid) as paid]), d_year=d_year, paid=paid)"},
		{"cross-table OR stays", star + "WHERE (d_year = 2000 OR i_brand = 'univmaxi') AND ss_quantity > 5" + tail,
			"project(aggregate(filter(join(join(filter(scan(store_sales), (ss_quantity > 5)), date_dim on ss_sold_date_sk=d_date_sk), item on ss_item_sk=i_item_sk), ((d_year = 2000) OR (i_brand = 'univmaxi'))), keys=[d_year], aggs=[SUM(ss_net_paid) as paid]), d_year=d_year, paid=paid)"},
		{"cross-table comparison stays", star + "WHERE ss_sales_price > i_current_price" + tail,
			"project(aggregate(filter(join(join(scan(store_sales), date_dim on ss_sold_date_sk=d_date_sk), item on ss_item_sk=i_item_sk), (ss_sales_price > i_current_price)), keys=[d_year], aggs=[SUM(ss_net_paid) as paid]), d_year=d_year, paid=paid)"},
		{"constant conjunct stays", star + "WHERE 1 = 1 AND d_year = 2000" + tail,
			"project(aggregate(filter(join(join(scan(store_sales), date_dim on ss_sold_date_sk=d_date_sk where (d_year = 2000)), item on ss_item_sk=i_item_sk), (1 = 1)), keys=[d_year], aggs=[SUM(ss_net_paid) as paid]), d_year=d_year, paid=paid)"},
		{"unknown column stays", star + "WHERE nosuch = 1 AND d_year = 2000" + tail,
			"project(aggregate(filter(join(join(scan(store_sales), date_dim on ss_sold_date_sk=d_date_sk where (d_year = 2000)), item on ss_item_sk=i_item_sk), (nosuch = 1)), keys=[d_year], aggs=[SUM(ss_net_paid) as paid]), d_year=d_year, paid=paid)"},
		{"HAVING stays above the aggregate", star + "WHERE d_year > 2000" + tail + " HAVING SUM(ss_net_paid) > 10",
			"project(filter(aggregate(join(join(scan(store_sales), date_dim on ss_sold_date_sk=d_date_sk where (d_year > 2000)), item on ss_item_sk=i_item_sk), keys=[d_year], aggs=[SUM(ss_net_paid) as paid]), (paid > 10)), d_year=d_year, paid=paid)"},
		{"single-table WHERE is untouched", "SELECT ss_quantity FROM store_sales WHERE ss_quantity > 5",
			"project(filter(scan(store_sales), (ss_quantity > 5)), ss_quantity=ss_quantity)"},
		{"SELECT * is untouched", "SELECT * FROM store_sales JOIN date_dim ON ss_sold_date_sk = d_date_sk WHERE d_year = 2000",
			"filter(join(scan(store_sales), date_dim on ss_sold_date_sk=d_date_sk), (d_year = 2000))"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := placed(t, tc.sql).Root.String(); got != tc.want {
				t.Errorf("placed plan\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}

// TestPlaceFiltersPrunes: the columns of a join predicate are read from
// the base table, so the join no longer gathers them; those of a fact
// filter are read below the join, so the scan keeps them.
func TestPlaceFiltersPrunes(t *testing.T) {
	p := placed(t, "SELECT i_brand, SUM(ss_net_paid) AS paid FROM store_sales "+
		"JOIN date_dim ON ss_sold_date_sk = d_date_sk JOIN item ON ss_item_sk = i_item_sk "+
		"WHERE d_year = 2000 AND ss_quantity > 5 GROUP BY i_brand")
	top := p.Root.(*Project).Input.(*Aggregate).Input.(*Join)
	bottom := top.Left.(*Join)
	scan := bottom.Left.(*Filter).Input.(*Scan)
	for _, j := range []*Join{top, bottom} {
		for _, c := range j.Needed {
			if c == "d_year" || c == "ss_quantity" {
				t.Errorf("join of %s still gathers %s: %v", j.Table, c, j.Needed)
			}
		}
	}
	if !strings.Contains(strings.Join(scan.Needed, ","), "ss_quantity") {
		t.Errorf("scan no longer reads the fact filter's column: %v", scan.Needed)
	}
}

// whereConjuncts renders the conjuncts a WHERE may be spread over: a
// filter over a join or a scan, and every join predicate.
func whereConjuncts(root Node) []string {
	var out []string
	add := func(e expr.Expr) {
		for _, c := range conjuncts(e) {
			out = append(out, c.String())
		}
	}
	for r := &root; r != nil; r = inputRef(*r) {
		switch x := (*r).(type) {
		case *Filter:
			switch x.Input.(type) {
			case *Join, *Scan:
				add(x.Pred)
			}
		case *Join:
			if x.Pred != nil {
				add(x.Pred)
			}
		}
	}
	sort.Strings(out)
	return out
}

// checkPlacement holds a placed plan to the pass's contract (FuzzParsePlan
// runs it over the workload's statements and their mutations): every
// conjunct kept, each placed one naming only its target's columns.
func checkPlacement(t *testing.T, sql string, before []string, p *Plan) {
	t.Helper()
	if after := whereConjuncts(p.Root); strings.Join(after, "\n") != strings.Join(before, "\n") {
		t.Fatalf("%q: placement changed the conjuncts\nbefore %q\nafter  %q", sql, before, after)
	}
	only := func(table string, e expr.Expr) {
		for _, c := range expr.Columns(e) {
			if !catalogHas(table, c) {
				t.Fatalf("%q: %s placed on %s, which has no column %s", sql, e, table, c)
			}
		}
	}
	for r := &p.Root; r != nil; r = inputRef(*r) {
		switch x := (*r).(type) {
		case *Join:
			if x.Pred != nil {
				only(x.Table, x.Pred)
			}
			if f, ok := x.Left.(*Filter); ok {
				if s, ok := f.Input.(*Scan); ok {
					only(s.Table, f.Pred)
				}
			}
		}
	}
	_ = p.Root.String()
}
