package dataframe

import (
	"fmt"

	"repro/internal/scalar"
)

// AggFunc names an aggregation for GroupBy.Agg and the column statistics
// helpers.
type AggFunc string

// Supported aggregation functions.
const (
	AggSum   AggFunc = "sum"
	AggMean  AggFunc = "mean"
	AggMin   AggFunc = "min"
	AggMax   AggFunc = "max"
	AggCount AggFunc = "count"
	AggFirst AggFunc = "first"
	AggLast  AggFunc = "last"
)

// Grouped is the result of Frame.GroupBy: the groups of rows with equal
// values (scalar.Equal) in every key column, in first-appearance order.
type Grouped struct {
	src    *Frame
	keys   []string
	groups [][]int // each group's row indices, ascending
}

// GroupBy groups rows by the given key columns (first-appearance order).
func (f *Frame) GroupBy(keys ...string) (*Grouped, error) {
	for _, k := range keys {
		if !f.HasColumn(k) {
			return nil, fmt.Errorf("dataframe: column %q does not exist (have %v)", k, f.cols)
		}
	}
	g := &Grouped{src: f, keys: append([]string(nil), keys...)}
	cols := make([][]any, len(keys))
	for j, k := range keys {
		cols[j] = f.data[k]
	}
	var ids scalar.Groups
	gid := make([]int, f.nrows)
	tuple := make([]scalar.Key, len(keys))
	for i := range gid {
		for j, col := range cols {
			tuple[j], _ = scalar.KeyOf(col[i])
		}
		gid[i], _ = ids.ID(tuple)
	}
	g.groups = scalar.GroupRows(gid, ids.Len())
	return g, nil
}

// NumGroups returns the number of distinct groups.
func (g *Grouped) NumGroups() int { return len(g.groups) }

// Agg computes one aggregate per group for each (column, func) pair. The
// result frame has the key columns first, holding each group's first
// row's cells, then one column per aggregation named "<col>_<func>" (or
// "count" for AggCount with empty column).
func (g *Grouped) Agg(specs ...AggSpec) (*Frame, error) {
	outCols := append([]string(nil), g.keys...)
	names := make([]string, len(specs))
	for i, s := range specs {
		name := s.Name
		if name == "" {
			if s.Func == AggCount && s.Col == "" {
				name = "count"
			} else {
				name = s.Col + "_" + string(s.Func)
			}
		}
		names[i] = name
		outCols = append(outCols, name)
		if s.Col != "" && !g.src.HasColumn(s.Col) {
			return nil, fmt.Errorf("dataframe: column %q does not exist (have %v)", s.Col, g.src.cols)
		}
	}
	out := New(outCols...)
	vals := make([]any, 0, len(outCols))
	for _, rows := range g.groups {
		vals = vals[:0]
		for _, k := range g.keys {
			vals = append(vals, g.src.data[k][rows[0]])
		}
		for _, s := range specs {
			v, err := aggregate(g.src, rows, s)
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
		out.AppendRow(vals...)
	}
	return out, nil
}

// AggSpec describes one aggregation: apply Func over Col within each group,
// writing to output column Name (defaulted when empty).
type AggSpec struct {
	Col  string
	Func AggFunc
	Name string
}

func aggregate(f *Frame, rows []int, s AggSpec) (any, error) {
	if s.Func == AggCount {
		return int64(len(rows)), nil
	}
	col, err := f.Column(s.Col)
	if err != nil {
		return nil, err
	}
	switch s.Func {
	case AggFirst:
		if len(rows) == 0 {
			return nil, nil
		}
		return col[rows[0]], nil
	case AggLast:
		if len(rows) == 0 {
			return nil, nil
		}
		return col[rows[len(rows)-1]], nil
	}
	op, ok := frameFolds[s.Func]
	if !ok {
		return nil, fmt.Errorf("dataframe: unknown aggregation %q", s.Func)
	}
	fold := scalar.NewFold(op)
	for _, i := range rows {
		// pandas skips NaN/None
		if v := col[i]; !fold.Add(v) {
			return nil, fmt.Errorf("dataframe: cannot %s non-numeric value %v in column %q", s.Func, v, s.Col)
		}
	}
	if s.Func == AggSum && fold.N() == 0 {
		return int64(0), nil // pandas sums nothing to 0
	}
	return fold.Value(), nil
}

// frameFolds maps the folding aggregations to their scalar.Fold.
var frameFolds = map[AggFunc]scalar.FoldOp{
	AggSum: scalar.FoldSum, AggMean: scalar.FoldMean, AggMin: scalar.FoldMin, AggMax: scalar.FoldMax,
}

// Sum computes the sum of a numeric column over the whole frame.
func (f *Frame) Sum(col string) (any, error) {
	return aggregate(f, allRows(f), AggSpec{Col: col, Func: AggSum})
}

// Mean computes the arithmetic mean of a numeric column (nil when empty).
func (f *Frame) Mean(col string) (any, error) {
	return aggregate(f, allRows(f), AggSpec{Col: col, Func: AggMean})
}

// Min returns the minimum value of a column (nil when empty).
func (f *Frame) Min(col string) (any, error) {
	return aggregate(f, allRows(f), AggSpec{Col: col, Func: AggMin})
}

// Max returns the maximum value of a column (nil when empty).
func (f *Frame) Max(col string) (any, error) {
	return aggregate(f, allRows(f), AggSpec{Col: col, Func: AggMax})
}

func allRows(f *Frame) []int {
	rows := make([]int, f.nrows)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// ValueCounts returns a two-column frame (value, count) for one column,
// sorted by descending count then ascending value — pandas value_counts.
func (f *Frame) ValueCounts(col string) (*Frame, error) {
	g, err := f.GroupBy(col)
	if err != nil {
		return nil, err
	}
	counts, err := g.Agg(AggSpec{Func: AggCount})
	if err != nil {
		return nil, err
	}
	// Sort by count desc, then value asc.
	idx := allRows(counts)
	keys := [][]any{counts.data["count"], counts.data[col]}
	scalar.SortStable(idx, keys, []bool{true, false}, nil)
	return counts.Take(idx), nil
}
