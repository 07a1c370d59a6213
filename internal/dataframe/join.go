package dataframe

import (
	"context"
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

// mergeCheckEvery is Merge's checkpoint stride: the context is polled
// once per this many hashed right rows and once per this many output rows.
const mergeCheckEvery = 1024

// Merge joins two frames on equality of left[leftKey] and right[rightKey],
// in the manner of pandas merge. Columns from the right frame that collide
// with left column names are suffixed with "_right". Left join emits nil for
// unmatched right columns. ctx is polled while the right side is hashed
// and every mergeCheckEvery output rows, so a key that fans out cannot
// outrun a deadline; an ended context fails the merge with an error
// wrapping ctx.Err().
func Merge(ctx context.Context, left, right *Frame, leftKey, rightKey string, kind JoinKind) (*Frame, error) {
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
		if err := mergePoll(ctx, i); err != nil {
			return nil, err
		}
		k, _ := scalar.KeyOf(v)
		index[k] = append(index[k], i)
	}

	// emit appends left row i joined with right row j (j < 0: no match).
	// AppendRow copies the values, so one buffer serves every row.
	vals := make([]any, len(outCols))
	rows := 0
	emit := func(i, j int) error {
		if err := mergePoll(ctx, rows); err != nil {
			return err
		}
		rows++
		for n, c := range left.cols {
			vals[n] = left.data[c][i]
		}
		for n, c := range rightSrc {
			var v any
			if j >= 0 {
				v = right.data[c][j]
			}
			vals[len(left.cols)+n] = v
		}
		out.AppendRow(vals...)
		return nil
	}
	lk := left.data[leftKey]
	for i := 0; i < left.nrows; i++ {
		k, _ := scalar.KeyOf(lk[i])
		matches := index[k]
		if len(matches) == 0 && kind == LeftJoin {
			if err := emit(i, -1); err != nil {
				return nil, err
			}
		}
		for _, j := range matches {
			if err := emit(i, j); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// mergePoll reports ctx's error at checkpoint i (every mergeCheckEvery).
func mergePoll(ctx context.Context, i int) error {
	if i%mergeCheckEvery != 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("dataframe: merge: %w", err)
	}
	return nil
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
