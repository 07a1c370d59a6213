package sqldb

import (
	"context"
	"fmt"

	"repro/internal/dataframe"
)

// DB is an in-memory relational database whose tables are dataframes.
type DB struct {
	tables map[string]*dataframe.Frame
	order  []string
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: map[string]*dataframe.Frame{}}
}

// CreateTable registers a frame under a name, replacing any previous table.
func (db *DB) CreateTable(name string, f *dataframe.Frame) {
	if _, ok := db.tables[name]; !ok {
		db.order = append(db.order, name)
	}
	db.tables[name] = f
}

// Table returns the named table; the error names available tables so that
// generated-code failures are self-explanatory.
func (db *DB) Table(name string) (*dataframe.Frame, error) {
	f, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("sql: table %q does not exist (have %v)", name, db.TableNames())
	}
	return f, nil
}

// TableNames lists tables in creation order.
func (db *DB) TableNames() []string { return append([]string(nil), db.order...) }

// Equal reports whether two databases hold the same tables, created in the
// same order, with equal contents (dataframe.Equal). It allocates nothing,
// so comparing the state of two trials costs no garbage.
func Equal(a, b *DB) bool {
	if len(a.order) != len(b.order) {
		return false
	}
	for i, name := range a.order {
		if b.order[i] != name || !dataframe.Equal(a.tables[name], b.tables[name]) {
			return false
		}
	}
	return true
}

// Freeze marks every table as an immutable master so Clone hands out
// copy-on-write table clones (see dataframe.Frame.Freeze).
func (db *DB) Freeze() {
	for _, n := range db.order {
		db.tables[n].Freeze()
	}
}

// Clone copies the database (used so sandboxed runs cannot corrupt the
// golden copy). Tables of a frozen database clone copy-on-write.
func (db *DB) Clone() *DB {
	c := NewDB()
	for _, n := range db.order {
		c.CreateTable(n, db.tables[n].Clone())
	}
	return c
}

// Result is the outcome of Exec: a frame for SELECT, or an affected-row
// count for writes.
type Result struct {
	Frame    *dataframe.Frame // non-nil for SELECT
	Affected int64            // rows touched by INSERT/UPDATE/DELETE
}

// Exec parses and executes one SQL statement against the database.
func (db *DB) Exec(sql string) (*Result, error) {
	return db.ExecContext(context.Background(), sql)
}

// ExecContext is Exec under a cancellable context: the executor's row
// loops (scans, joins, aggregates, updates) poll ctx at periodic
// checkpoints and abandon the statement with an error wrapping ctx.Err()
// once it is cancelled or past its deadline.
func (db *DB) ExecContext(ctx context.Context, sql string) (*Result, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	switch s := st.(type) {
	case *SelectStmt:
		f, err := db.execSelect(ctx, s)
		if err != nil {
			return nil, err
		}
		return &Result{Frame: f}, nil
	case *InsertStmt:
		n, err := db.execInsert(s)
		return &Result{Affected: n}, err
	case *UpdateStmt:
		n, err := db.execUpdate(ctx, s)
		return &Result{Affected: n}, err
	case *DeleteStmt:
		n, err := db.execDelete(s)
		return &Result{Affected: n}, err
	case *CreateTableStmt:
		db.CreateTable(s.Table, dataframe.New(s.Cols...))
		return &Result{}, nil
	default:
		return nil, fmt.Errorf("sql: unsupported statement %T", st)
	}
}

// Query executes a SELECT and returns its frame; non-SELECT statements are
// an error.
func (db *DB) Query(sql string) (*dataframe.Frame, error) {
	return db.QueryContext(context.Background(), sql)
}

// QueryContext is Query under a cancellable context (see ExecContext).
func (db *DB) QueryContext(ctx context.Context, sql string) (*dataframe.Frame, error) {
	res, err := db.ExecContext(ctx, sql)
	if err != nil {
		return nil, err
	}
	if res.Frame == nil {
		return nil, fmt.Errorf("sql: statement is not a query")
	}
	return res.Frame, nil
}

func (db *DB) execInsert(s *InsertStmt) (int64, error) {
	f, err := db.Table(s.Table)
	if err != nil {
		return 0, err
	}
	cols := s.Cols
	if len(cols) == 0 {
		cols = f.Columns()
	}
	for _, c := range cols {
		if !f.HasColumn(c) {
			return 0, fmt.Errorf("sql: column %q does not exist in table %q", c, s.Table)
		}
	}
	var n int64
	for _, row := range s.Rows {
		if len(row) != len(cols) {
			return n, fmt.Errorf("sql: INSERT has %d values for %d columns", len(row), len(cols))
		}
		vals := make(map[string]any, len(cols))
		for i, c := range cols {
			v, err := evalExpr(row[i], scope{})
			if err != nil {
				return n, err
			}
			vals[c] = v
		}
		all := make([]any, 0, f.NumCols())
		for _, c := range f.Columns() {
			all = append(all, vals[c])
		}
		f.AppendRow(all...)
		n++
	}
	return n, nil
}

func (db *DB) execUpdate(ctx context.Context, s *UpdateStmt) (int64, error) {
	f, err := db.Table(s.Table)
	if err != nil {
		return 0, err
	}
	for _, set := range s.Sets {
		if !f.HasColumn(set.Col) {
			return 0, fmt.Errorf("sql: column %q does not exist in table %q (have %v)", set.Col, s.Table, f.Columns())
		}
	}
	// The rows read the column slices the statement started with: SetCell
	// on row i leaves every later row of them intact, even when it copies a
	// copy-on-write column, and every SET of row i is evaluated before the
	// row is written, so each reads the row as it was before the statement.
	ws := tableScan(f, "")
	vals := make([]any, len(s.Sets))
	var n int64
	for i := 0; i < ws.n; i++ {
		if err := cancelled(ctx, i); err != nil {
			return n, err
		}
		row := scope{ws, i}
		if s.Where != nil {
			ok, err := evalBool(s.Where, row)
			if err != nil {
				return n, err
			}
			if !ok {
				continue
			}
		}
		// The SETs before a failing one are written, as when each SET was
		// written in turn.
		var setErr error
		k := 0
		for ; k < len(s.Sets); k++ {
			if vals[k], setErr = evalExpr(s.Sets[k].Expr, row); setErr != nil {
				break
			}
		}
		for j, set := range s.Sets[:k] {
			if err := f.SetCell(i, set.Col, vals[j]); err != nil {
				return n, err
			}
		}
		if setErr != nil {
			return n, setErr
		}
		n++
	}
	return n, nil
}

func (db *DB) execDelete(s *DeleteStmt) (int64, error) {
	f, err := db.Table(s.Table)
	if err != nil {
		return 0, err
	}
	ws := tableScan(f, "")
	kept, err := f.FilterIdx(func(i int) (bool, error) {
		if s.Where == nil {
			return false, nil
		}
		ok, err := evalBool(s.Where, scope{ws, i})
		return !ok, err
	})
	if err != nil {
		return 0, err
	}
	n := int64(f.NumRows() - kept.NumRows())
	db.CreateTable(s.Table, kept)
	return n, nil
}
