package sqldb

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
)

// This file is the columnar table scan the federated planner drives: it
// skips SQL text, the parser and the per-row scopes and reads the frames
// backing the tables directly. Joins and aggregates over its output run in
// the federated executor, the same operators that serve frame and graph
// scans. Its rows, error text and profile frames are those of the
// equivalent SELECT (`SELECT cols FROM table WHERE c1 AND c2 ...`):
// conditions compare like WHERE (the shared compare, LIKE's type error for
// prefix), a condition column is resolved the first time its conjunct
// runs, a projection column only when rows survive, and a repeated
// projection is renamed like SELECT's output columns. Names are taken as
// they are, never parsed, so a keyword or a dotted name is a plain table
// or column name.

// Cond is one WHERE conjunct over a scanned table: Col <Op> Value with Op
// one of =, !=, <, <=, >, >= or prefix (LIKE 'v%' with v taken literally).
type Cond struct {
	Col   string
	Op    string
	Value any
}

// matchCond evaluates one condition against a cell like the SELECT
// executor's WHERE evaluation of `col op literal`.
func matchCond(c Cond, cell any) (bool, error) {
	if c.Op == "prefix" {
		s, ok1 := cell.(string)
		p, ok2 := c.Value.(string)
		if !ok1 || !ok2 {
			return false, fmt.Errorf("sql: LIKE requires strings, got %T and %T", cell, c.Value)
		}
		return strings.HasPrefix(s, p), nil
	}
	if m, ok := compare(c.Op, cell, c.Value); ok {
		return m, nil
	}
	return false, fmt.Errorf("sql: unknown operator %q", c.Op)
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
// (sql.select > sql.scan [> sql.filter]). When the scan has no conditions
// the returned slices alias the table's storage — callers must not mutate.
func (db *DB) ScanColumns(ctx context.Context, spec ScanSpec) ([]string, [][]any, error) {
	prof := obs.ProfileFrom(ctx)
	sel := enterFrame(ctx, prof, "sql.select", spec.Table)
	names, data, err := db.scanColumns(obs.WithFrame(ctx, sel), prof, spec)
	rows := int64(-1)
	if err == nil {
		rows = 0
		if len(data) > 0 {
			rows = int64(len(data[0]))
		}
	}
	prof.Exit(sel, rows)
	return names, data, err
}

func (db *DB) scanColumns(ctx context.Context, prof *obs.Profile, spec ScanSpec) ([]string, [][]any, error) {
	f, err := db.Table(spec.Table)
	if err != nil {
		return nil, nil, err
	}
	scan := enterFrame(ctx, prof, "sql.scan", spec.Table)
	names := f.Columns()
	data := columnSlices(f)
	n := f.NumRows()
	prof.Exit(scan, int64(n))
	var keep []int // surviving rows; nil keeps every row
	if len(spec.Conds) > 0 {
		filt := enterFrame(ctx, prof, "sql.filter", "")
		keep, err = filterRows(ctx, spec, names, data, n)
		if err != nil {
			prof.Exit(filt, -1)
			return nil, nil, err
		}
		n = len(keep)
		prof.Exit(filt, int64(n))
	}
	// SELECT evaluates its list on each surviving row: it polls the context
	// there, and an unknown column fails only when a row survives.
	if n > 0 {
		if err := cancelled(ctx, 0); err != nil {
			return nil, nil, err
		}
	}
	cols, outNames := names, names
	if spec.Cols != nil {
		cols, outNames = spec.Cols, dedupeNames(spec.Cols)
	}
	out := make([][]any, len(cols))
	var buf []any
	if keep != nil {
		buf = make([]any, n*len(cols))
	}
	for i, c := range cols {
		j := colIndex(names, c)
		switch {
		case j < 0 && n > 0:
			return nil, nil, unknownColumn(spec.Table, names, c)
		case j < 0:
			// An unknown column of an empty result is an empty column.
		case keep == nil:
			out[i] = data[j]
		default:
			col := buf[i*n : (i+1)*n : (i+1)*n]
			for k, r := range keep {
				col[k] = data[j][r]
			}
			out[i] = col
		}
	}
	return outNames, out, nil
}

// filterRows returns the rows of an n-row table that pass every condition.
func filterRows(ctx context.Context, spec ScanSpec, names []string, data [][]any, n int) ([]int, error) {
	at := make([]int, len(spec.Conds))
	for i := range at {
		at[i] = -1
	}
	keep := make([]int, 0, n)
rows:
	for r := 0; r < n; r++ {
		if err := cancelled(ctx, r); err != nil {
			return nil, err
		}
		for i, c := range spec.Conds {
			if at[i] < 0 {
				if at[i] = colIndex(names, c.Col); at[i] < 0 {
					return nil, unknownColumn(spec.Table, names, c.Col)
				}
			}
			m, err := matchCond(c, data[at[i]][r])
			if err != nil {
				return nil, err
			}
			if !m {
				continue rows
			}
		}
		keep = append(keep, r)
	}
	return keep, nil
}

func colIndex(names []string, name string) int {
	for i, c := range names {
		if c == name {
			return i
		}
	}
	return -1
}

// unknownColumn is SELECT's error for a column the table lacks: it lists
// the table's columns qualified by the table name.
func unknownColumn(table string, names []string, col string) error {
	keys := make([]string, len(names))
	for i, c := range names {
		keys[i] = table + "." + c
	}
	sort.Strings(keys)
	return fmt.Errorf("sql: unknown column %q (available: %v)", col, keys)
}
