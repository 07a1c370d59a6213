package sqldb

import (
	"context"
	"fmt"
	"sort"

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
	// Column slices are read once: SetCell on row i leaves every later row
	// of them intact, even when it copies a copy-on-write column.
	data := columnSlices(f)
	row := scope{sch: newSchema(f.Columns()), vals: make([]any, len(data))}
	var n int64
	for i := 0; i < f.NumRows(); i++ {
		if err := cancelled(ctx, i); err != nil {
			return n, err
		}
		// Every SET reads the row as it was before this statement wrote it.
		row.load(data, i)
		if s.Where != nil {
			ok, err := evalBool(s.Where, row)
			if err != nil {
				return n, err
			}
			if !ok {
				continue
			}
		}
		for _, set := range s.Sets {
			v, err := evalExpr(set.Expr, row)
			if err != nil {
				return n, err
			}
			if err := f.SetCell(i, set.Col, v); err != nil {
				return n, err
			}
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
	data := columnSlices(f)
	row := scope{sch: newSchema(f.Columns()), vals: make([]any, len(data))}
	kept, err := f.FilterIdx(func(i int) (bool, error) {
		if s.Where == nil {
			return false, nil
		}
		row.load(data, i)
		ok, err := evalBool(s.Where, row)
		return !ok, err
	})
	if err != nil {
		return 0, err
	}
	n := int64(f.NumRows() - kept.NumRows())
	db.CreateTable(s.Table, kept)
	return n, nil
}

// schema is the key layout every row of one working set shares: the slot
// names in slot order (a join's left slots, then its right slots) and each
// name's slot. A name that appears in several slots resolves to the last,
// as a later map assignment used to overwrite an earlier one.
type schema struct {
	slots []string
	slot  map[string]int
}

func newSchema(slots []string) *schema {
	s := &schema{slots: slots, slot: make(map[string]int, len(slots))}
	for i, name := range slots {
		s.slot[name] = i
	}
	return s
}

// scope is one row of a working set: its values, slot for slot with the
// shared schema. The zero scope (nil schema) allows only constants.
type scope struct {
	sch  *schema
	vals []any
}

// load copies row i of a table's column slices into the scope's values.
func (s scope) load(cols [][]any, i int) {
	for j, col := range cols {
		s.vals[j] = col[i]
	}
}

// lookup resolves a column reference. Keys are qualified ("alias.col") for
// SELECT rows and bare column names for UPDATE/DELETE rows; an unqualified
// reference also matches a unique qualified key by its column suffix. The
// reference caches the slot it resolved to in this scope's schema, so the
// remaining rows of the statement skip resolution.
func (s scope) lookup(ref *ColumnRef) (any, error) {
	if ref.sch != s.sch {
		slot, err := s.sch.resolve(ref)
		if err != nil {
			return nil, err
		}
		ref.sch, ref.slot = s.sch, slot
	}
	return s.vals[ref.slot], nil
}

func (sch *schema) resolve(ref *ColumnRef) (int, error) {
	if ref.Table != "" {
		if i, ok := sch.slot[ref.Table+"."+ref.Name]; ok {
			return i, nil
		}
		return 0, fmt.Errorf("sql: unknown column %s.%s (available: %v)", ref.Table, ref.Name, sch.keys())
	}
	if i, ok := sch.slot[ref.Name]; ok {
		return i, nil
	}
	// Unqualified name that is unique among qualified entries.
	var found []string
	for k := range sch.slot {
		if idx := lastDot(k); idx >= 0 && k[idx+1:] == ref.Name {
			found = append(found, k)
		}
	}
	if len(found) == 1 {
		return sch.slot[found[0]], nil
	}
	if len(found) > 1 {
		sort.Strings(found)
		return 0, fmt.Errorf("sql: ambiguous column %q (matches %v)", ref.Name, found)
	}
	return 0, fmt.Errorf("sql: unknown column %q (available: %v)", ref.Name, sch.keys())
}

// keys returns the schema's distinct names, sorted.
func (sch *schema) keys() []string {
	out := make([]string, 0, len(sch.slot))
	for k := range sch.slot {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func lastDot(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return i
		}
	}
	return -1
}
