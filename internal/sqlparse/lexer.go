// Package sqlparse implements the SQL subset the engine speaks: SELECT
// with expressions and aggregates (SUM/COUNT/AVG/MIN/MAX), star-join
// FROM/JOIN...ON chains, WHERE with AND/OR/NOT/BETWEEN/IN/IS NULL,
// GROUP BY, HAVING over select aliases, ORDER BY ... ASC/DESC, LIMIT, and
// RANK() OVER (ORDER BY ...) — the OLAP construct the paper calls out as
// driving SORT in the Cognos ROLAP workload.
package sqlparse

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased; idents lower-cased
	pos  int
}

// keywords recognized by the lexer.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "AS": true, "AND": true,
	"OR": true, "NOT": true, "BETWEEN": true, "IN": true, "IS": true,
	"NULL": true, "JOIN": true, "INNER": true, "ON": true, "ASC": true,
	"DESC": true, "SUM": true, "COUNT": true, "AVG": true, "MIN": true,
	"MAX": true, "RANK": true, "OVER": true, "PARTITION": true,
	"DISTINCT": true,
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// Identifiers and numbers are ASCII. The lexer walks bytes, so a byte
// of a multi-byte rune must never count as a letter: case-folding half
// a rune would make an identifier that does not lex again.
func isLetter(c byte) bool { return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' }
func isDigit(c byte) bool  { return '0' <= c && c <= '9' }

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case isLetter(c):
			l.ident()
		case isDigit(c) || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
			if err := l.number(); err != nil {
				return nil, err
			}
		case c == '\'':
			if err := l.str(); err != nil {
				return nil, err
			}
		default:
			if err := l.symbol(); err != nil {
				return nil, err
			}
		}
	}
	l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
	return l.toks, nil
}

func (l *lexer) ident() {
	start := l.pos
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if isLetter(c) || isDigit(c) {
			l.pos++
		} else {
			break
		}
	}
	word := l.src[start:l.pos]
	upper := strings.ToUpper(word)
	if keywords[upper] {
		l.toks = append(l.toks, token{kind: tokKeyword, text: upper, pos: start})
	} else {
		l.toks = append(l.toks, token{kind: tokIdent, text: strings.ToLower(word), pos: start})
	}
}

func (l *lexer) number() error {
	start := l.pos
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if isDigit(c) {
			l.pos++
		} else if c == '.' && !seenDot {
			seenDot = true
			l.pos++
		} else {
			break
		}
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
	return nil
}

func (l *lexer) str() error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'') // escaped quote
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: sb.String(), pos: start})
			return nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sqlparse: unterminated string at offset %d", start)
}

func (l *lexer) symbol() error {
	start := l.pos
	two := ""
	if l.pos+2 <= len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<>", "<=", ">=", "!=":
		l.toks = append(l.toks, token{kind: tokSymbol, text: two, pos: start})
		l.pos += 2
		return nil
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '=', '<', '>', '+', '-', '*', '/', '.':
		l.toks = append(l.toks, token{kind: tokSymbol, text: string(c), pos: start})
		l.pos++
		return nil
	}
	return fmt.Errorf("sqlparse: unexpected character %q at offset %d", c, start)
}
