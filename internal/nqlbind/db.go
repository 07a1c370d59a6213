package nqlbind

import (
	"context"
	"errors"
	"strings"

	"repro/internal/nql"
	"repro/internal/sqldb"
)

// DBObject wraps a sqldb.DB for NQL scripts: db.query("SELECT ...") returns
// a frame, db.exec("UPDATE ...") returns the affected-row count. SQL syntax
// errors inside the string surface as NQL operation errors carrying the SQL
// parser's message, so the benchmark can classify them.
type DBObject struct {
	DB *sqldb.DB

	// methods memoizes bound-method values per name (single-run ownership,
	// like GraphObject.methods).
	methods map[string]nql.Value
}

// NewDBObject wraps db.
func NewDBObject(db *sqldb.DB) *DBObject { return &DBObject{DB: db} }

// TypeName implements nql.Object.
func (o *DBObject) TypeName() string { return "database" }

// Member implements nql.Object, memoizing bound methods per name.
func (o *DBObject) Member(name string) (nql.Value, bool) {
	if v, ok := o.methods[name]; ok {
		return v, true
	}
	v, ok := o.member(name)
	if ok {
		if o.methods == nil {
			o.methods = make(map[string]nql.Value, 4)
		}
		o.methods[name] = v
	}
	return v, ok
}

func (o *DBObject) member(name string) (nql.Value, bool) {
	switch name {
	case "tables":
		return method("tables", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			return stringsToList(o.DB.TableNames()), nil
		}), true
	case "table":
		return method("table", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 1 {
				return nil, argCount(line, "table", "1", len(args))
			}
			name, err := wantString(line, "table", "name", args[0])
			if err != nil {
				return nil, err
			}
			f, err := o.DB.Table(name)
			if err != nil {
				return nil, runtimeErr(nql.ErrName, line, err)
			}
			return NewFrameObject(f), nil
		}), true
	case "query":
		return method("query", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 1 {
				return nil, argCount(line, "query", "1", len(args))
			}
			sql, err := wantString(line, "query", "sql", args[0])
			if err != nil {
				return nil, err
			}
			f, err := o.DB.QueryContext(in.Context(), sql)
			if err != nil {
				return nil, sqlErrToNQL(line, err)
			}
			return NewFrameObject(f), nil
		}), true
	case "exec":
		return method("exec", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 1 {
				return nil, argCount(line, "exec", "1", len(args))
			}
			sql, err := wantString(line, "exec", "sql", args[0])
			if err != nil {
				return nil, err
			}
			res, err := o.DB.ExecContext(in.Context(), sql)
			if err != nil {
				return nil, sqlErrToNQL(line, err)
			}
			if res.Frame != nil {
				return NewFrameObject(res.Frame), nil
			}
			return res.Affected, nil
		}), true
	default:
		return nil, false
	}
}

// sqlErrToNQL maps SQL engine failures onto NQL error classes: parse errors
// stay "operation" errors with an embedded syntax message (the script itself
// is well-formed NQL; its payload SQL is bad), unknown tables/columns map to
// the attribute class, and statements abandoned by a cancelled host context
// surface as the cancel class so callers can tell shed work from bad SQL.
func sqlErrToNQL(line int, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return nql.CancelError(line, err)
	}
	if _, ok := err.(*sqldb.SyntaxError); ok {
		return &nql.RuntimeError{Class: nql.ErrOp, Line: line, Msg: err.Error()}
	}
	msg := err.Error()
	if strings.Contains(msg, "does not exist") || strings.Contains(msg, "unknown column") || strings.Contains(msg, "ambiguous") {
		return &nql.RuntimeError{Class: nql.ErrAttr, Line: line, Msg: msg}
	}
	return &nql.RuntimeError{Class: nql.ErrOp, Line: line, Msg: msg}
}
