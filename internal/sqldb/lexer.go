// Package sqldb implements a small relational database engine with a SQL
// dialect sufficient for the NeMoEval benchmark: SELECT (projection,
// expressions, aliases, WHERE, JOIN … ON, GROUP BY, HAVING, ORDER BY,
// LIMIT), INSERT, UPDATE, DELETE and CREATE TABLE. Tables are backed by the
// dataframe package so the SQL and pandas approaches share one storage
// layer, mirroring the paper's setup where both views expose the same node
// and edge tables.
//
// One executor runs every statement over that column storage, read in
// place: a row is a position in each table a statement reads, WHERE and
// joins narrow and pair positions, and a SELECT copies out only the cells
// of its result. The federated planner does not run here: sqldb's tables
// are dataframe frames, and a federated SQL scan reads them as frame scans.
//
// Values compare, group, de-duplicate and join under package scalar's
// contract (scalar.Equal, scalar.Compare and scalar.KeyOf); the executor
// holds no comparison rule of its own. NULL is a value like any other
// there: = finds two NULLs equal and a join pairs NULL keys. Arithmetic,
// negation, ABS, SUM and AVG follow scalar.Arith and scalar.Sum (integers
// exact, float64 past int64); SUM and AVG of no non-NULL value are NULL.
//
// A single-table SELECT whose WHERE leads with `col = 'string'` starts
// from the rows the table's string-equality index holds for that string
// instead of every row, when the table is a frozen master or an unwritten
// clone of one (dataframe.Frame.StringRows). WHERE still runs over those
// rows, and no other row could pass it or raise an error in it, so the
// result and every error are the scan's.
package sqldb

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokOp    // operators: = != <> < <= > >= + - * / %
	tokPunct // ( ) , . ;
)

type token struct {
	kind tokenKind
	text string // keywords are upper-cased; identifiers keep original case
	pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "ASC": true, "DESC": true,
	"AS": true, "AND": true, "OR": true, "NOT": true, "IN": true,
	"LIKE": true, "IS": true, "NULL": true, "JOIN": true, "INNER": true,
	"LEFT": true, "ON": true, "INSERT": true, "INTO": true, "VALUES": true,
	"UPDATE": true, "SET": true, "DELETE": true, "CREATE": true,
	"TABLE": true, "DISTINCT": true, "TRUE": true, "FALSE": true,
	"BETWEEN": true, "OFFSET": true, "CASE": true, "WHEN": true,
	"THEN": true, "ELSE": true, "END": true,
}

// SyntaxError is returned for malformed SQL; it carries the byte offset so
// the benchmark's error classifier can label it as a syntax failure.
type SyntaxError struct {
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sql syntax error at offset %d: %s", e.Pos, e.Msg)
}

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && src[i+1] == '-': // line comment
			for i < n && src[i] != '\n' {
				i++
			}
		case unicode.IsLetter(rune(c)) || c == '_':
			start := i
			for i < n && (unicode.IsLetter(rune(src[i])) || unicode.IsDigit(rune(src[i])) || src[i] == '_') {
				i++
			}
			word := src[start:i]
			up := strings.ToUpper(word)
			if keywords[up] {
				toks = append(toks, token{tokKeyword, up, start})
			} else {
				toks = append(toks, token{tokIdent, word, start})
			}
		case unicode.IsDigit(rune(c)) || (c == '.' && i+1 < n && unicode.IsDigit(rune(src[i+1]))):
			start := i
			seenDot := false
			for i < n && (unicode.IsDigit(rune(src[i])) || (src[i] == '.' && !seenDot)) {
				if src[i] == '.' {
					seenDot = true
				}
				i++
			}
			toks = append(toks, token{tokNumber, src[start:i], start})
		case c == '\'' || c == '"':
			quote := c
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if src[i] == quote {
					if i+1 < n && src[i+1] == quote { // doubled quote escape
						sb.WriteByte(quote)
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			if !closed {
				return nil, &SyntaxError{Pos: start, Msg: "unterminated string literal"}
			}
			toks = append(toks, token{tokString, sb.String(), start})
		case strings.ContainsRune("(),.;", rune(c)):
			toks = append(toks, token{tokPunct, string(c), i})
			i++
		case c == '<':
			if i+1 < n && (src[i+1] == '=' || src[i+1] == '>') {
				toks = append(toks, token{tokOp, src[i : i+2], i})
				i += 2
			} else {
				toks = append(toks, token{tokOp, "<", i})
				i++
			}
		case c == '>':
			if i+1 < n && src[i+1] == '=' {
				toks = append(toks, token{tokOp, ">=", i})
				i += 2
			} else {
				toks = append(toks, token{tokOp, ">", i})
				i++
			}
		case c == '!':
			if i+1 < n && src[i+1] == '=' {
				toks = append(toks, token{tokOp, "!=", i})
				i += 2
			} else {
				return nil, &SyntaxError{Pos: i, Msg: "unexpected '!'"}
			}
		case strings.ContainsRune("=+-*/%", rune(c)):
			toks = append(toks, token{tokOp, string(c), i})
			i++
		default:
			return nil, &SyntaxError{Pos: i, Msg: fmt.Sprintf("unexpected character %q", c)}
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}
