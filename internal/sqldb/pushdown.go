package sqldb

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/dataframe"
	"repro/internal/obs"
)

// This file is the native pushdown surface the federated planner drives:
// one columnar table scan that skips SQL text, the parser and the per-row
// scope maps and reads the frames backing the tables directly. Joins and
// aggregates over its output run in the federated executor, the same
// operators that serve frame and graph scans. Semantics are pinned to the
// equivalent SELECT: conditions evaluate exactly like WHERE conjuncts
// (CompareValues plus sameKind for equality, LIKE-prefix for "prefix").
//
// Anything the scan cannot reproduce bit-for-bit — a missing table or
// column, a duplicate projection — returns ErrPushdown instead of a
// best-effort answer. The caller falls back to SQL text, which produces
// the exact result or error of the general path. The sentinel must
// therefore never surface to users.

// ErrPushdown reports that the native scan cannot handle the request; the
// caller must retry via SQL text. It carries no user-facing meaning.
var ErrPushdown = errors.New("sqldb: native pushdown unsupported")

// IsKeyword reports whether the name collides with a reserved word of the
// SQL dialect (case-insensitive). Planners deciding between native
// pushdown and SQL text use it to gate names that would not parse as
// identifiers.
func IsKeyword(name string) bool { return keywords[strings.ToUpper(name)] }

// Cond is one WHERE-equivalent conjunct over a scanned table: Col <Op>
// Value with Op one of =, !=, <, <=, >, >= or prefix (LIKE 'v%'). Value
// must be an int64, float64 or string — exactly the literals the federated
// optimizer can compile into SQL text.
type Cond struct {
	Col   string
	Op    string
	Value any
}

// matchCond evaluates one condition against a cell with the same semantics
// as the SELECT executor's WHERE evaluation of `col op literal`.
func matchCond(c Cond, cell any) (bool, error) {
	switch c.Op {
	case "=":
		return dataframe.CompareValues(cell, c.Value) == 0 && sameKind(cell, c.Value), nil
	case "!=":
		return !(dataframe.CompareValues(cell, c.Value) == 0 && sameKind(cell, c.Value)), nil
	case "<":
		return dataframe.CompareValues(cell, c.Value) < 0, nil
	case "<=":
		return dataframe.CompareValues(cell, c.Value) <= 0, nil
	case ">":
		return dataframe.CompareValues(cell, c.Value) > 0, nil
	case ">=":
		return dataframe.CompareValues(cell, c.Value) >= 0, nil
	case "prefix":
		p, ok := c.Value.(string)
		if !ok {
			return false, ErrPushdown
		}
		s, ok := cell.(string)
		if !ok {
			// The error the WHERE path raises for `cell LIKE 'p%'`.
			return false, fmt.Errorf("sql: LIKE requires strings, got %T and %T", cell, p+"%")
		}
		return strings.HasPrefix(s, p), nil
	default:
		return false, ErrPushdown
	}
}

// ScanSpec names one table scan: WHERE-equivalent conditions (applied in
// order, short-circuiting like AND) and an optional projection (nil keeps
// every column in table order; duplicate names are not supported).
type ScanSpec struct {
	Table string
	Conds []Cond
	Cols  []string
}

// scanTable resolves a spec against the database without profile frames:
// names plus one value slice per column. When the scan has no conditions
// the returned slices alias the table's storage — callers must not mutate.
func (db *DB) scanTable(ctx context.Context, spec ScanSpec) ([]string, [][]any, error) {
	f, err := db.Table(spec.Table)
	if err != nil {
		return nil, nil, ErrPushdown
	}
	names := f.Columns()
	data := make([][]any, len(names))
	for i, c := range names {
		data[i], _ = f.Column(c)
	}
	// Resolve condition and projection columns up front; any miss (or a
	// duplicate projection) is a job for the general path.
	colIdx := func(name string) (int, bool) {
		for i, c := range names {
			if c == name {
				return i, true
			}
		}
		return -1, false
	}
	condIdx := make([]int, len(spec.Conds))
	for i, c := range spec.Conds {
		j, ok := colIdx(c.Col)
		if !ok {
			return nil, nil, ErrPushdown
		}
		condIdx[i] = j
	}
	if len(spec.Conds) > 0 {
		if err := cancelled(ctx, 0); err != nil {
			return nil, nil, err
		}
		n := f.NumRows()
		keep := make([]int, 0, n)
		for r := 0; r < n; r++ {
			if err := cancelled(ctx, r); err != nil {
				return nil, nil, err
			}
			ok := true
			for ci, c := range spec.Conds {
				m, err := matchCond(c, data[condIdx[ci]][r])
				if err != nil {
					return nil, nil, err
				}
				if !m {
					ok = false
					break
				}
			}
			if ok {
				keep = append(keep, r)
			}
		}
		filtered := make([][]any, len(names))
		for i := range names {
			col := make([]any, len(keep))
			for k, r := range keep {
				col[k] = data[i][r]
			}
			filtered[i] = col
		}
		data = filtered
	}
	if spec.Cols == nil {
		return names, data, nil
	}
	outNames := make([]string, len(spec.Cols))
	outData := make([][]any, len(spec.Cols))
	seen := make(map[string]bool, len(spec.Cols))
	for i, c := range spec.Cols {
		j, ok := colIdx(c)
		if !ok || seen[c] {
			return nil, nil, ErrPushdown
		}
		seen[c] = true
		outNames[i] = c
		outData[i] = data[j]
	}
	return outNames, outData, nil
}

// ScanColumns executes a native table scan, emitting the same profile
// frames as the equivalent SELECT (sql.select > sql.scan [> sql.filter]).
func (db *DB) ScanColumns(ctx context.Context, spec ScanSpec) ([]string, [][]any, error) {
	f, err := db.Table(spec.Table)
	if err != nil {
		return nil, nil, ErrPushdown
	}
	prof := obs.ProfileFrom(ctx)
	sel := enterFrame(ctx, prof, "sql.select", spec.Table)
	ctx = obs.WithFrame(ctx, sel)
	if prof != nil {
		scan := enterFrame(ctx, prof, "sql.scan", spec.Table)
		prof.Exit(scan, int64(f.NumRows()))
	}
	names, data, err := db.scanTable(ctx, spec)
	rows := int64(-1)
	if err == nil {
		rows = scanLen(data)
	}
	if prof != nil && len(spec.Conds) > 0 {
		filt := enterFrame(ctx, prof, "sql.filter", "")
		prof.Exit(filt, rows)
	}
	prof.Exit(sel, rows)
	return names, data, err
}

func scanLen(data [][]any) int64 {
	if len(data) == 0 {
		return 0
	}
	return int64(len(data[0]))
}
