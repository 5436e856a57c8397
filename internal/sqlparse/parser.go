package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses one SELECT statement.
func Parse(src string) (*SelectStmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	stmt, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, p.errf("trailing input starting with %q", p.cur().text)
	}
	return stmt, nil
}

type parser struct {
	toks []token
	i    int
	src  string
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = map[tokenKind]string{tokIdent: "an identifier", tokNumber: "a number", tokString: "a string"}[kind]
	}
	return token{}, p.errf("expected %s, found %q", want, p.cur().text)
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqlparse: at offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) selectStmt() (*SelectStmt, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	p.accept(tokKeyword, "DISTINCT") // tolerated; grouping makes it moot

	if p.accept(tokSymbol, "*") {
		stmt.Star = true
	} else {
		for {
			item, err := p.selectItem()
			if err != nil {
				return nil, err
			}
			stmt.Items = append(stmt.Items, item)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}

	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	from, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	stmt.From = from.text

	for p.at(tokKeyword, "JOIN") || p.at(tokKeyword, "INNER") {
		p.accept(tokKeyword, "INNER")
		if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
			return nil, err
		}
		tbl, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "ON"); err != nil {
			return nil, err
		}
		left, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "="); err != nil {
			return nil, err
		}
		right, err := p.ident()
		if err != nil {
			return nil, err
		}
		stmt.Joins = append(stmt.Joins, JoinClause{Table: tbl.text, LeftCol: left, RightCol: right})
	}

	if p.accept(tokKeyword, "WHERE") {
		e, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			id, err := p.ident()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, id)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "HAVING") {
		e, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = e
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		items, err := p.orderItems()
		if err != nil {
			return nil, err
		}
		stmt.OrderBy = items
	}
	if p.accept(tokKeyword, "LIMIT") {
		n, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		v, err := strconv.Atoi(n.text)
		if err != nil || v < 0 {
			return nil, p.errf("invalid LIMIT %q", n.text)
		}
		stmt.Limit = v
	}
	return stmt, nil
}

func (p *parser) selectItem() (SelectItem, error) {
	e, err := p.addExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept(tokKeyword, "AS") {
		a, err := p.expect(tokIdent, "")
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a.text
	} else if p.at(tokIdent, "") {
		// bare alias: SELECT sum(x) total
		item.Alias = p.next().text
	}
	return item, nil
}

func (p *parser) orderItems() ([]OrderItem, error) {
	var items []OrderItem
	for {
		e, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		item := OrderItem{Expr: e}
		if p.accept(tokKeyword, "DESC") {
			item.Desc = true
		} else {
			p.accept(tokKeyword, "ASC")
		}
		items = append(items, item)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	return items, nil
}

// --- expression grammar: or > and > not > cmp > add > mul > unary > primary ---

func (p *parser) orExpr() (Expr, error) {
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		right, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) andExpr() (Expr, error) {
	left, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		right, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		inner, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", Inner: inner}, nil
	}
	return p.cmpExpr()
}

func (p *parser) cmpExpr() (Expr, error) {
	left, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	// BETWEEN / IN / IS
	if p.accept(tokKeyword, "BETWEEN") {
		lo, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &Between{X: left, Lo: lo, Hi: hi}, nil
	}
	if p.accept(tokKeyword, "IN") {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var vals []Expr
		for {
			v, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return &InList{X: left, Vals: vals}, nil
	}
	if p.accept(tokKeyword, "IS") {
		neg := p.accept(tokKeyword, "NOT")
		if _, err := p.expect(tokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNull{X: left, Negate: neg}, nil
	}
	for _, op := range []string{"<>", "!=", "<=", ">=", "=", "<", ">"} {
		if p.accept(tokSymbol, op) {
			right, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return &Binary{Op: op, Left: left, Right: right}, nil
		}
	}
	return left, nil
}

func (p *parser) addExpr() (Expr, error) {
	left, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(tokSymbol, "+"):
			op = "+"
		case p.accept(tokSymbol, "-"):
			op = "-"
		default:
			return left, nil
		}
		right, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, Left: left, Right: right}
	}
}

func (p *parser) mulExpr() (Expr, error) {
	left, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(tokSymbol, "*"):
			op = "*"
		case p.accept(tokSymbol, "/"):
			op = "/"
		default:
			return left, nil
		}
		right, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, Left: left, Right: right}
	}
}

func (p *parser) unaryExpr() (Expr, error) {
	if p.accept(tokSymbol, "-") {
		inner, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", Inner: inner}, nil
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.next()
		return &NumberLit{Text: t.text, IsFloat: strings.Contains(t.text, ".")}, nil
	case t.kind == tokString:
		p.next()
		return &StringLit{Val: t.text}, nil
	case t.kind == tokKeyword && isFuncKeyword(t.text):
		return p.funcCall()
	case t.kind == tokIdent:
		return p.ident()
	case p.accept(tokSymbol, "("):
		e, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errf("unexpected token %q", t.text)
}

func isFuncKeyword(s string) bool {
	switch s {
	case "SUM", "COUNT", "AVG", "MIN", "MAX", "RANK":
		return true
	}
	return false
}

func (p *parser) funcCall() (Expr, error) {
	name := p.next().text
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	fc := &FuncCall{Name: name}
	if p.accept(tokSymbol, "*") {
		fc.Star = true
	} else if !p.at(tokSymbol, ")") {
		p.accept(tokKeyword, "DISTINCT") // tolerated, not implemented
		for {
			arg, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			fc.Args = append(fc.Args, arg)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	if p.accept(tokKeyword, "OVER") {
		w, err := p.windowSpec()
		if err != nil {
			return nil, err
		}
		fc.Over = w
	}
	if name == "RANK" && fc.Over == nil {
		return nil, p.errf("RANK() requires an OVER clause")
	}
	return fc, nil
}

func (p *parser) windowSpec() (*WindowSpec, error) {
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	w := &WindowSpec{}
	if p.accept(tokKeyword, "PARTITION") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			id, err := p.ident()
			if err != nil {
				return nil, err
			}
			w.PartitionBy = append(w.PartitionBy, id)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		items, err := p.orderItems()
		if err != nil {
			return nil, err
		}
		w.OrderBy = items
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return w, nil
}

func (p *parser) ident() (*Ident, error) {
	t, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	id := &Ident{Name: t.text}
	if p.accept(tokSymbol, ".") {
		t2, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		id.Qualifier = id.Name
		id.Name = t2.text
	}
	return id, nil
}
