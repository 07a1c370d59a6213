package nql

import (
	"fmt"
	"strconv"
)

type parser struct {
	toks []Token
	i    int
}

// Parse parses NQL source into a Program.
func Parse(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{srcHash: fnv64a(src)}
	for !p.at(TokEOF, "") {
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		prog.Stmts = append(prog.Stmts, st)
	}
	return prog, nil
}

// fnv64a is the 64-bit FNV-1a hash of s (inline to keep the package
// dependency-free; the constants are the standard FNV offset and prime).
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func (p *parser) cur() Token  { return p.toks[p.i] }
func (p *parser) next() Token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) at(kind TokenKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *parser) accept(kind TokenKind, text string) bool {
	if p.at(kind, text) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(kind TokenKind, text string) (Token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = map[TokenKind]string{TokIdent: "identifier", TokInt: "integer", TokString: "string"}[kind]
	}
	return Token{}, &SyntaxError{Line: p.cur().Line, Msg: fmt.Sprintf("expected %q, found %s", want, p.cur())}
}

func (p *parser) parseBlock() ([]Stmt, error) {
	if _, err := p.expect(TokPunct, "{"); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for !p.at(TokPunct, "}") {
		if p.at(TokEOF, "") {
			return nil, &SyntaxError{Line: p.cur().Line, Msg: "unexpected end of input, missing '}'"}
		}
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, st)
	}
	p.next() // }
	return stmts, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch {
	case p.at(TokKeyword, "let"):
		p.next()
		name, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, "="); err != nil {
			return nil, err
		}
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &LetStmt{base: base{t.Line}, Name: name.Text, Init: init}, nil
	case p.at(TokKeyword, "if"):
		return p.parseIf()
	case p.at(TokKeyword, "for"):
		p.next()
		v1, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		v2 := ""
		if p.accept(TokPunct, ",") {
			v2tok, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			v2 = v2tok.Text
		}
		if _, err := p.expect(TokKeyword, "in"); err != nil {
			return nil, err
		}
		iter, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &ForStmt{base: base{t.Line}, Var: v1.Text, Var2: v2, Iter: iter, Body: body}, nil
	case p.at(TokKeyword, "while"):
		p.next()
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{base: base{t.Line}, Cond: cond, Body: body}, nil
	case p.at(TokKeyword, "func"):
		p.next()
		name, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		var params []string
		for !p.at(TokPunct, ")") {
			pt, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			params = append(params, pt.Text)
			if !p.accept(TokPunct, ",") {
				break
			}
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &FuncStmt{base: base{t.Line}, Name: name.Text, Params: params, Body: body}, nil
	case p.at(TokKeyword, "return"):
		p.next()
		st := &ReturnStmt{base: base{t.Line}}
		if !p.at(TokPunct, "}") && !p.at(TokEOF, "") && !p.startsStatement() {
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Value = v
		}
		return st, nil
	case p.at(TokKeyword, "break"):
		p.next()
		return &BreakStmt{base{t.Line}}, nil
	case p.at(TokKeyword, "continue"):
		p.next()
		return &ContinueStmt{base{t.Line}}, nil
	default:
		// Expression statement or assignment.
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.accept(TokOp, "=") {
			switch e.(type) {
			case *Ident, *IndexExpr, *AttrExpr:
			default:
				return nil, &SyntaxError{Line: t.Line, Msg: "invalid assignment target"}
			}
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &AssignStmt{base: base{t.Line}, Target: e, Value: v}, nil
		}
		return &ExprStmt{base: base{t.Line}, X: e}, nil
	}
}

// startsStatement reports whether the current token can only begin a new
// statement (used to allow bare `return` before another statement).
func (p *parser) startsStatement() bool {
	t := p.cur()
	if t.Kind != TokKeyword {
		return false
	}
	switch t.Text {
	case "let", "if", "for", "while", "func", "return", "break", "continue":
		return true
	}
	return false
}

func (p *parser) parseIf() (Stmt, error) {
	t := p.next() // if
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{base: base{t.Line}, Cond: cond, Then: then}
	if p.accept(TokKeyword, "else") {
		if p.at(TokKeyword, "if") {
			elif, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			st.Else = []Stmt{elif}
		} else {
			els, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
	}
	return st, nil
}

// --- expressions (precedence climbing) ---

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.at(TokKeyword, "or") {
		t := p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{base: base{t.Line}, Op: "or", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.at(TokKeyword, "and") {
		t := p.next()
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{base: base{t.Line}, Op: "and", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.at(TokKeyword, "not") {
		t := p.next()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{base: base{t.Line}, Op: "not", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		var op string
		switch {
		case p.at(TokOp, "=="), p.at(TokOp, "!="), p.at(TokOp, "<"), p.at(TokOp, "<="), p.at(TokOp, ">"), p.at(TokOp, ">="):
			op = p.next().Text
		case p.at(TokKeyword, "in"):
			p.next()
			op = "in"
		default:
			return left, nil
		}
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{base: base{t.Line}, Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.at(TokOp, "+") || p.at(TokOp, "-") {
		t := p.next()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{base: base{t.Line}, Op: t.Text, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(TokOp, "*") || p.at(TokOp, "/") || p.at(TokOp, "%") {
		t := p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{base: base{t.Line}, Op: t.Text, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.at(TokOp, "-") {
		t := p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{base: base{t.Line}, Op: "-", X: x}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		switch {
		case p.accept(TokPunct, "."):
			name, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			e = &AttrExpr{base: base{t.Line}, X: e, Name: name.Text}
		case p.accept(TokPunct, "["):
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokPunct, "]"); err != nil {
				return nil, err
			}
			e = &IndexExpr{base: base{t.Line}, X: e, Index: idx}
		case p.accept(TokPunct, "("):
			var args []Expr
			for !p.at(TokPunct, ")") {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.accept(TokPunct, ",") {
					break
				}
			}
			if _, err := p.expect(TokPunct, ")"); err != nil {
				return nil, err
			}
			e = &CallExpr{base: base{t.Line}, Fn: e, Args: args}
		default:
			return e, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokInt:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, &SyntaxError{Line: t.Line, Msg: "integer out of range"}
		}
		return &IntLit{base: base{t.Line}, Value: v}, nil
	case t.Kind == TokFloat:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, &SyntaxError{Line: t.Line, Msg: "bad float literal"}
		}
		return &FloatLit{base: base{t.Line}, Value: v}, nil
	case t.Kind == TokString:
		p.next()
		return &StringLit{base: base{t.Line}, Value: t.Text}, nil
	case p.accept(TokKeyword, "true"):
		return &BoolLit{base: base{t.Line}, Value: true}, nil
	case p.accept(TokKeyword, "false"):
		return &BoolLit{base: base{t.Line}, Value: false}, nil
	case p.accept(TokKeyword, "nil"):
		return &NilLit{base{t.Line}}, nil
	case p.at(TokKeyword, "fn"):
		p.next()
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		var params []string
		for !p.at(TokPunct, ")") {
			pt, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			params = append(params, pt.Text)
			if !p.accept(TokPunct, ",") {
				break
			}
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, "=>"); err != nil {
			return nil, err
		}
		body, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &LambdaExpr{base: base{t.Line}, Params: params, Body: body}, nil
	case t.Kind == TokIdent:
		p.next()
		return &Ident{base: base{t.Line}, Name: t.Text}, nil
	case p.accept(TokPunct, "("):
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.accept(TokPunct, "["):
		lit := &ListLit{base: base{t.Line}}
		for !p.at(TokPunct, "]") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			lit.Items = append(lit.Items, e)
			if !p.accept(TokPunct, ",") {
				break
			}
		}
		if _, err := p.expect(TokPunct, "]"); err != nil {
			return nil, err
		}
		return lit, nil
	case p.accept(TokPunct, "{"):
		lit := &MapLit{base: base{t.Line}}
		for !p.at(TokPunct, "}") {
			k, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokPunct, ":"); err != nil {
				return nil, err
			}
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			lit.Keys = append(lit.Keys, k)
			lit.Values = append(lit.Values, v)
			if !p.accept(TokPunct, ",") {
				break
			}
		}
		if _, err := p.expect(TokPunct, "}"); err != nil {
			return nil, err
		}
		return lit, nil
	default:
		return nil, &SyntaxError{Line: t.Line, Msg: fmt.Sprintf("unexpected token %s in expression", t)}
	}
}
