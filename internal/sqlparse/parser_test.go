package sqlparse

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, sql string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return stmt
}

func TestSimpleSelect(t *testing.T) {
	stmt := mustParse(t, "SELECT a, b FROM t")
	if stmt.From != "t" || len(stmt.Items) != 2 || stmt.Star {
		t.Fatalf("stmt = %+v", stmt)
	}
	if id, ok := stmt.Items[0].Expr.(*Ident); !ok || id.Name != "a" {
		t.Errorf("first item = %v", stmt.Items[0])
	}
	if stmt.Limit != -1 {
		t.Errorf("limit = %d, want -1", stmt.Limit)
	}
}

func TestSelectStar(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM store_sales LIMIT 10")
	if !stmt.Star || stmt.Limit != 10 {
		t.Fatalf("stmt = %+v", stmt)
	}
}

func TestAggregatesAndAliases(t *testing.T) {
	stmt := mustParse(t, "SELECT SUM(qty) AS total, COUNT(*) cnt, AVG(price) FROM s GROUP BY region")
	if len(stmt.Items) != 3 {
		t.Fatalf("items = %d", len(stmt.Items))
	}
	if stmt.Items[0].Alias != "total" || stmt.Items[1].Alias != "cnt" {
		t.Errorf("aliases = %q, %q", stmt.Items[0].Alias, stmt.Items[1].Alias)
	}
	fc := stmt.Items[1].Expr.(*FuncCall)
	if fc.Name != "COUNT" || !fc.Star {
		t.Errorf("COUNT(*) parsed as %+v", fc)
	}
	if len(stmt.GroupBy) != 1 || stmt.GroupBy[0].Name != "region" {
		t.Errorf("group by = %v", stmt.GroupBy)
	}
}

func TestJoins(t *testing.T) {
	stmt := mustParse(t, `SELECT s.x FROM store_sales
		JOIN date_dim ON ss_sold_date_sk = d_date_sk
		INNER JOIN item ON ss_item_sk = i_item_sk`)
	if len(stmt.Joins) != 2 {
		t.Fatalf("joins = %d", len(stmt.Joins))
	}
	j := stmt.Joins[0]
	if j.Table != "date_dim" || j.LeftCol.Name != "ss_sold_date_sk" || j.RightCol.Name != "d_date_sk" {
		t.Errorf("join = %+v", j)
	}
	// Qualified select item.
	if id := stmt.Items[0].Expr.(*Ident); id.Qualifier != "s" || id.Name != "x" {
		t.Errorf("qualified ident = %+v", id)
	}
}

func TestWherePrecedence(t *testing.T) {
	stmt := mustParse(t, "SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
	// AND binds tighter: a=1 OR (b=2 AND c=3)
	or := stmt.Where.(*Binary)
	if or.Op != "OR" {
		t.Fatalf("root = %v", or.Op)
	}
	if and := or.Right.(*Binary); and.Op != "AND" {
		t.Errorf("right = %v", and.Op)
	}
}

func TestArithmeticPrecedence(t *testing.T) {
	stmt := mustParse(t, "SELECT a + b * c FROM t")
	add := stmt.Items[0].Expr.(*Binary)
	if add.Op != "+" {
		t.Fatalf("root op = %s", add.Op)
	}
	if mul := add.Right.(*Binary); mul.Op != "*" {
		t.Errorf("* should bind tighter than +")
	}
}

func TestBetweenInIsNull(t *testing.T) {
	stmt := mustParse(t, `SELECT a FROM t WHERE a BETWEEN 1 AND 10
		AND b IN ('x', 'y') AND c IS NOT NULL AND NOT d = 4`)
	s := stmt.Where.String()
	for _, want := range []string{"BETWEEN", "IN", "IS NOT NULL", "NOT"} {
		if !strings.Contains(s, want) {
			t.Errorf("where %q missing %s", s, want)
		}
	}
}

func TestRankOver(t *testing.T) {
	stmt := mustParse(t, `SELECT region, RANK() OVER (PARTITION BY region ORDER BY total DESC) AS rnk FROM v`)
	fc := stmt.Items[1].Expr.(*FuncCall)
	if fc.Name != "RANK" || fc.Over == nil {
		t.Fatalf("rank = %+v", fc)
	}
	if len(fc.Over.PartitionBy) != 1 || fc.Over.PartitionBy[0].Name != "region" {
		t.Errorf("partition = %v", fc.Over.PartitionBy)
	}
	if len(fc.Over.OrderBy) != 1 || !fc.Over.OrderBy[0].Desc {
		t.Errorf("order = %v", fc.Over.OrderBy)
	}
}

func TestRankRequiresOver(t *testing.T) {
	if _, err := Parse("SELECT RANK() FROM t"); err == nil {
		t.Error("RANK without OVER should fail")
	}
}

func TestOrderByHavingLimit(t *testing.T) {
	stmt := mustParse(t, `SELECT region, SUM(x) AS total FROM t
		GROUP BY region HAVING total > 100 ORDER BY total DESC, region LIMIT 5`)
	if stmt.Having == nil {
		t.Fatal("missing HAVING")
	}
	if len(stmt.OrderBy) != 2 || !stmt.OrderBy[0].Desc || stmt.OrderBy[1].Desc {
		t.Errorf("order by = %+v", stmt.OrderBy)
	}
	if stmt.Limit != 5 {
		t.Errorf("limit = %d", stmt.Limit)
	}
}

func TestStringsAndNumbers(t *testing.T) {
	stmt := mustParse(t, `SELECT 'it''s', 3.25, -7 FROM t`)
	if s := stmt.Items[0].Expr.(*StringLit); s.Val != "it's" {
		t.Errorf("escaped string = %q", s.Val)
	}
	if n := stmt.Items[1].Expr.(*NumberLit); !n.IsFloat || n.Text != "3.25" {
		t.Errorf("float = %+v", n)
	}
	if u := stmt.Items[2].Expr.(*Unary); u.Op != "-" {
		t.Errorf("negative = %+v", stmt.Items[2].Expr)
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	stmt := mustParse(t, "select A, Sum(B) from T group by A")
	if stmt.From != "t" {
		t.Errorf("table name should lower-case: %q", stmt.From)
	}
	if id := stmt.Items[0].Expr.(*Ident); id.Name != "a" {
		t.Errorf("identifiers should lower-case: %q", id.Name)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT a",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP a",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t LIMIT -1",
		"SELECT a FROM t trailing garbage (",
		"SELECT 'unterminated FROM t",
		"SELECT a FROM t WHERE a ~ 3",
		"SELECT a FROM t JOIN u ON a",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

// TestParseErrorsNameTheToken pins what a POST /query client reads when a
// token of the wrong kind arrives: the kind's name, never its number.
func TestParseErrorsNameTheToken(t *testing.T) {
	for sql, want := range map[string]string{
		"SELECT a FROM t LIMIT -1": `sqlparse: at offset 22: expected a number, found "-"`,
		"SELECT a FROM 3":          `sqlparse: at offset 14: expected an identifier, found "3"`,
		"SELECT a FROM t JOIN 'u'": `sqlparse: at offset 21: expected an identifier, found "u"`,
		"SELECT a FROM t GROUP a":  `sqlparse: at offset 22: expected BY, found "a"`,
		"SELECT t. FROM t":         `sqlparse: at offset 10: expected an identifier, found "FROM"`,
	} {
		_, err := Parse(sql)
		if err == nil || err.Error() != want {
			t.Errorf("Parse(%q) = %v, want %s", sql, err, want)
		}
	}
}

func TestRoundTripString(t *testing.T) {
	sql := "SELECT region, SUM(qty) AS total FROM sales WHERE year = 2003 GROUP BY region ORDER BY total DESC LIMIT 3"
	stmt := mustParse(t, sql)
	// Re-parse the rendering; it must produce the same rendering again.
	again := mustParse(t, stmt.String())
	if stmt.String() != again.String() {
		t.Errorf("round trip mismatch:\n%s\n%s", stmt.String(), again.String())
	}
}
