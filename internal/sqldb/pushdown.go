package sqldb

import "context"

// This file is the table scan the federated planner drives. It skips SQL
// text and the parser, not the executor: a ScanSpec becomes the AST of
// `SELECT cols FROM table WHERE c1 AND c2 ...`, which runs on the one
// executor every SELECT runs on, reading the table's column slices in
// place. Its rows, error text and profile frames are therefore that
// SELECT's, and a scan whose first condition is `col = string` on a
// frozen table reads only the rows the table's string-equality index
// returns, as that SELECT does (see seek). Joins and aggregates over its
// output run in the federated executor, the same operators that serve
// frame and graph scans. Names are taken as they are, never parsed, so a
// keyword or a dotted name is a plain table or column name.

// Cond is one WHERE conjunct over a scanned table: Col <Op> Value with Op
// one of =, !=, <, <=, >, >= or prefix (LIKE 'v%' with v taken literally).
type Cond struct {
	Col   string
	Op    string
	Value any
}

// ScanSpec names one table scan: WHERE conditions (applied in order,
// short-circuiting like AND) and an optional projection (nil keeps every
// column in table order).
type ScanSpec struct {
	Table string
	Conds []Cond
	Cols  []string
}

// ScanColumns executes a table scan: the output names plus one value slice
// per column, under the profile frames of the equivalent SELECT
// (sql.select > sql.scan [> sql.filter]). When the scan filters nothing
// the returned slices alias the table's storage — callers must not mutate.
func (db *DB) ScanColumns(ctx context.Context, spec ScanSpec) ([]string, [][]any, error) {
	out, err := db.query(ctx, spec.selectStmt())
	if err != nil {
		return nil, nil, err
	}
	return out.names, out.cells(true), nil
}

// starItems is the select list of every column; the executor only reads it.
var starItems = []SelectItem{{Star: true}}

// selectStmt is the SELECT the scan stands for.
func (spec ScanSpec) selectStmt() *SelectStmt {
	s := &SelectStmt{From: &TableRef{Name: spec.Table}, Items: starItems}
	if spec.Cols != nil {
		s.Items = make([]SelectItem, len(spec.Cols))
		refs := make([]ColumnRef, len(spec.Cols))
		for i, c := range spec.Cols {
			refs[i].Name = c
			s.Items[i].Expr = &refs[i]
		}
	}
	// One block holds the nodes of every condition.
	conds := make([]struct {
		cmp BinaryExpr
		col ColumnRef
		lit Literal
	}, len(spec.Conds))
	for i, c := range spec.Conds {
		n := &conds[i]
		n.col.Name, n.lit.Value = c.Col, c.Value
		n.cmp = BinaryExpr{Op: c.Op, Left: &n.col, Right: &n.lit}
		if s.Where == nil {
			s.Where = &n.cmp
		} else {
			s.Where = &BinaryExpr{Op: "AND", Left: s.Where, Right: &n.cmp}
		}
	}
	return s
}
