package nql

import "slices"

// The row form of a for loop. `for r in x.records() { ... }` (or
// x.to_records()) normally builds one map per row before its first
// iteration. When the compiler can prove that the body reads r only as
// r["literal"], it emits opRowIter in place of the records member access
// and opRowNext in place of opIterNext. At run time a receiver that is a
// RowSource yields a records builtin that returns a rowCursor instead of a
// list; the opCall and opIterPrep that follow run as on the materializing
// path, so Steps, the limits and the profile read the same. r then holds
// the cursor, and each r["k"] reads the cell where it lives. Any other
// receiver runs the unchanged member access, call and iterator snapshot,
// so the body sees real maps and behaves as before.

// RowSource is a host object whose records() and to_records() methods,
// called with no arguments, return one map per row. A for loop in row form
// reads Rows instead of calling either method.
type RowSource interface {
	Object
	// Rows returns the rows records() would return now. Later changes to
	// the source must not show through the snapshot.
	Rows() Rows
}

// Rows is a snapshot of a RowSource's records.
type Rows interface {
	// Len is the number of rows.
	Len() int
	// Field returns row i's value under key when it is a scalar (nil,
	// bool, int64, float64 or string), which reads the same however often
	// it is read. ok is false for any other value, and for a key the row
	// lacks; the caller then indexes Row(i).
	Field(i int, key string) (v Value, ok bool)
	// Row returns row i as the map records() would build.
	Row(i int) *Map
}

// rowCursor is the loop variable of a for loop in row form: the snapshot
// it iterates and the row of the current iteration. The compiler's proof
// (rowForm) guarantees that the body only indexes it, so a cursor never
// reaches a script value and one cursor serves every iteration.
type rowCursor struct {
	rows Rows
	n    int
	row  int
	// m is the current row as a map, built by the first read that Field
	// cannot serve: a container cell, so that every read of it in the
	// iteration returns the same container, or a missing key.
	m *Map
}

// rowsBuiltin is the records (or to_records) method of a RowSource as a
// loop in row form calls it: it returns a cursor over the source's rows.
func rowsBuiltin(src RowSource, name string) *Builtin {
	return &Builtin{Name: name, Fn: func(in *Interp, line int, args []Value) (Value, error) {
		rows := src.Rows()
		return &rowCursor{rows: rows, n: rows.Len()}, nil
	}}
}

// next moves the cursor to row i.
func (c *rowCursor) next(i int) {
	c.row = i
	c.m = nil
}

// index reads r[idx] for the current row. A value Field does not serve
// comes from the row's map, so a container reads as the same container
// throughout the iteration and a missing key raises the map's error.
func (c *rowCursor) index(idx Value, line int) (Value, error) {
	if k, ok := idx.(string); ok {
		if v, ok := c.rows.Field(c.row, k); ok {
			return v, nil
		}
	}
	if c.m == nil {
		c.m = c.rows.Row(c.row)
	}
	return indexValue(c.m, idx, line)
}

// rowForm reports whether a for loop compiles to the row form, returning
// the records member access its iterable calls. The proof is syntactic and
// conservative: one loop variable, an iterable x.records() or
// x.to_records() with no arguments, and a body that reads the variable only
// as var["literal"], never assigns, rebinds or shadows it, never writes
// through it, and never mentions it inside a lambda or func.
func rowForm(s *ForStmt) (*AttrExpr, bool) {
	if s.Var2 != "" {
		return nil, false
	}
	call, ok := s.Iter.(*CallExpr)
	if !ok || len(call.Args) != 0 {
		return nil, false
	}
	attr, ok := call.Fn.(*AttrExpr)
	if !ok || (attr.Name != "records" && attr.Name != "to_records") {
		return nil, false
	}
	return attr, rowSafeStmts(s.Var, s.Body, false)
}

// rowSafeStmt reports whether st uses name only as rowForm allows. inFunc
// is set inside a lambda or func body, where any mention fails.
func rowSafeStmt(name string, st Stmt, inFunc bool) bool {
	switch s := st.(type) {
	case *LetStmt:
		return s.Name != name && rowSafeExpr(name, s.Init, inFunc)
	case *AssignStmt:
		switch t := s.Target.(type) {
		case *Ident:
			if t.Name == name {
				return false
			}
		case *IndexExpr:
			if id, ok := t.X.(*Ident); ok && id.Name == name {
				return false // a write through the row
			}
			if !rowSafeExpr(name, t.X, inFunc) || !rowSafeExpr(name, t.Index, inFunc) {
				return false
			}
		case *AttrExpr:
			if !rowSafeExpr(name, t.X, inFunc) {
				return false
			}
		}
		return rowSafeExpr(name, s.Value, inFunc)
	case *ExprStmt:
		return rowSafeExpr(name, s.X, inFunc)
	case *IfStmt:
		return rowSafeExpr(name, s.Cond, inFunc) && rowSafeStmts(name, s.Then, inFunc) && rowSafeStmts(name, s.Else, inFunc)
	case *WhileStmt:
		return rowSafeExpr(name, s.Cond, inFunc) && rowSafeStmts(name, s.Body, inFunc)
	case *ForStmt:
		return s.Var != name && s.Var2 != name && rowSafeExpr(name, s.Iter, inFunc) && rowSafeStmts(name, s.Body, inFunc)
	case *FuncStmt:
		return s.Name != name && !slices.Contains(s.Params, name) && rowSafeStmts(name, s.Body, true)
	case *ReturnStmt:
		return s.Value == nil || rowSafeExpr(name, s.Value, inFunc)
	case *BreakStmt, *ContinueStmt:
		return true
	default:
		return false
	}
}

func rowSafeStmts(name string, stmts []Stmt, inFunc bool) bool {
	for _, st := range stmts {
		if !rowSafeStmt(name, st, inFunc) {
			return false
		}
	}
	return true
}

func rowSafeExpr(name string, e Expr, inFunc bool) bool {
	switch x := e.(type) {
	case *Ident:
		return x.Name != name
	case *IntLit, *FloatLit, *StringLit, *BoolLit, *NilLit:
		return true
	case *ListLit:
		for _, it := range x.Items {
			if !rowSafeExpr(name, it, inFunc) {
				return false
			}
		}
		return true
	case *MapLit:
		for i := range x.Keys {
			if !rowSafeExpr(name, x.Keys[i], inFunc) || !rowSafeExpr(name, x.Values[i], inFunc) {
				return false
			}
		}
		return true
	case *BinaryExpr:
		return rowSafeExpr(name, x.Left, inFunc) && rowSafeExpr(name, x.Right, inFunc)
	case *UnaryExpr:
		return rowSafeExpr(name, x.X, inFunc)
	case *IndexExpr:
		if id, ok := x.X.(*Ident); ok && id.Name == name {
			_, lit := x.Index.(*StringLit)
			return lit && !inFunc
		}
		return rowSafeExpr(name, x.X, inFunc) && rowSafeExpr(name, x.Index, inFunc)
	case *AttrExpr:
		return rowSafeExpr(name, x.X, inFunc)
	case *CallExpr:
		if !rowSafeExpr(name, x.Fn, inFunc) {
			return false
		}
		for _, a := range x.Args {
			if !rowSafeExpr(name, a, inFunc) {
				return false
			}
		}
		return true
	case *LambdaExpr:
		return !slices.Contains(x.Params, name) && rowSafeExpr(name, x.Body, true)
	default:
		return false
	}
}
