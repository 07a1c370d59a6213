package dataframe

import (
	"fmt"

	"repro/internal/scalar"
)

// JoinKind selects the join semantics for Merge.
type JoinKind string

// Supported join kinds.
const (
	InnerJoin JoinKind = "inner"
	LeftJoin  JoinKind = "left"
)

// Merge joins two frames on equality of left[leftKey] and right[rightKey],
// in the manner of pandas merge. Columns from the right frame that collide
// with left column names are suffixed with "_right". Left join emits nil for
// unmatched right columns.
func Merge(left, right *Frame, leftKey, rightKey string, kind JoinKind) (*Frame, error) {
	if !left.HasColumn(leftKey) {
		return nil, fmt.Errorf("dataframe: left key %q does not exist (have %v)", leftKey, left.cols)
	}
	if !right.HasColumn(rightKey) {
		return nil, fmt.Errorf("dataframe: right key %q does not exist (have %v)", rightKey, right.cols)
	}
	if kind != InnerJoin && kind != LeftJoin {
		return nil, fmt.Errorf("dataframe: unsupported join kind %q", kind)
	}

	// Output schema: all left columns, then right columns except rightKey,
	// renaming collisions.
	outCols := append([]string(nil), left.cols...)
	rightOut := make([]string, 0, len(right.cols))
	rightSrc := make([]string, 0, len(right.cols))
	taken := map[string]bool{}
	for _, c := range outCols {
		taken[c] = true
	}
	for _, c := range right.cols {
		if c == rightKey {
			continue
		}
		name := c
		if taken[name] {
			name = c + "_right"
		}
		taken[name] = true
		rightOut = append(rightOut, name)
		rightSrc = append(rightSrc, c)
	}
	outCols = append(outCols, rightOut...)
	out := New(outCols...)

	// Hash the right side.
	index := map[scalar.Key][]int{}
	for i, v := range right.data[rightKey] {
		k, _ := scalar.KeyOf(v)
		index[k] = append(index[k], i)
	}

	lk := left.data[leftKey]
	for i := 0; i < left.nrows; i++ {
		k, _ := scalar.KeyOf(lk[i])
		matches := index[k]
		if len(matches) == 0 {
			if kind == LeftJoin {
				vals := make([]any, 0, len(outCols))
				for _, c := range left.cols {
					vals = append(vals, left.data[c][i])
				}
				for range rightSrc {
					vals = append(vals, nil)
				}
				out.AppendRow(vals...)
			}
			continue
		}
		for _, j := range matches {
			vals := make([]any, 0, len(outCols))
			for _, c := range left.cols {
				vals = append(vals, left.data[c][i])
			}
			for _, c := range rightSrc {
				vals = append(vals, right.data[c][j])
			}
			out.AppendRow(vals...)
		}
	}
	return out, nil
}

// Concat appends the rows of b to a. Both frames must share the same column
// set (order-insensitive; the result uses a's order).
func Concat(a, b *Frame) (*Frame, error) {
	if len(a.cols) != len(b.cols) {
		return nil, fmt.Errorf("dataframe: concat schema mismatch: %v vs %v", a.cols, b.cols)
	}
	for _, c := range a.cols {
		if !b.HasColumn(c) {
			return nil, fmt.Errorf("dataframe: concat schema mismatch: %v vs %v", a.cols, b.cols)
		}
	}
	out := a.Clone()
	for i := 0; i < b.nrows; i++ {
		vals := make([]any, len(a.cols))
		for j, c := range a.cols {
			vals[j] = b.data[c][i]
		}
		out.AppendRow(vals...)
	}
	return out, nil
}
