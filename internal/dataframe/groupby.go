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
	index := map[string]int{}
	var buf []byte
	for i := 0; i < f.nrows; i++ {
		buf = buf[:0]
		for _, k := range keys {
			key, _ := scalar.KeyOf(f.data[k][i])
			buf = key.Append(buf)
		}
		gi, ok := index[string(buf)]
		if !ok {
			gi = len(g.groups)
			index[string(buf)] = gi
			g.groups = append(g.groups, nil)
		}
		g.groups[gi] = append(g.groups[gi], i)
	}
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
	case AggSum, AggMean:
		var sum scalar.Sum
		for _, i := range rows {
			// pandas skips NaN/None
			if v := col[i]; v != nil && !sum.Add(v) {
				return nil, fmt.Errorf("dataframe: cannot %s non-numeric value %v in column %q", s.Func, v, s.Col)
			}
		}
		if s.Func == AggSum {
			return sum.Value(), nil
		}
		if sum.N() == 0 {
			return nil, nil
		}
		return sum.Mean(), nil
	case AggMin, AggMax:
		var best any
		for _, i := range rows {
			v := col[i]
			if v == nil {
				continue
			}
			if best == nil {
				best = v
				continue
			}
			cmp := scalar.Compare(v, best)
			if (s.Func == AggMin && cmp < 0) || (s.Func == AggMax && cmp > 0) {
				best = v
			}
		}
		return best, nil
	default:
		return nil, fmt.Errorf("dataframe: unknown aggregation %q", s.Func)
	}
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
	// Sort by count desc, then value asc. SortBy applies one direction to
	// all keys, so do it manually here.
	idx := allRows(counts)
	valCol := counts.data[col]
	cntCol := counts.data["count"]
	sortStableBy(idx, func(a, b int) bool {
		if c := scalar.Compare(cntCol[a], cntCol[b]); c != 0 {
			return c > 0
		}
		return scalar.Compare(valCol[a], valCol[b]) < 0
	})
	return counts.Take(idx), nil
}

func sortStableBy(idx []int, less func(a, b int) bool) {
	// insertion sort keeps it dependency-free and stable; group counts are
	// small in practice.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && less(idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}
