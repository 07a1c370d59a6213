package scalar

import "slices"

// Groups numbers key tuples densely, 0, 1, 2, ..., in the order each
// tuple first appears. Two tuples share an id exactly when their keys are
// equal field by field. The zero Groups is empty.
type Groups struct {
	ids map[string]int // by the tuple's Append encoding
	buf []byte
}

// ID returns the id of the tuple keys and whether this call numbered it.
func (g *Groups) ID(keys []Key) (id int, fresh bool) {
	g.buf = g.buf[:0]
	for _, k := range keys {
		g.buf = k.Append(g.buf)
	}
	if id, ok := g.ids[string(g.buf)]; ok {
		return id, false
	}
	if g.ids == nil {
		g.ids = map[string]int{}
	}
	id = len(g.ids)
	g.ids[string(g.buf)] = id
	return id, true
}

// Len is the number of tuples numbered.
func (g *Groups) Len() int { return len(g.ids) }

// GroupRows lists the rows of each of n groups, given each row's group id:
// group g's rows ascending, every list cut from one backing array.
func GroupRows(ids []int, n int) [][]int {
	counts := make([]int, n)
	for _, g := range ids {
		counts[g]++
	}
	groups := make([][]int, n)
	rows := make([]int, len(ids))
	off := 0
	for g, c := range counts {
		groups[g] = rows[off : off : off+c]
		off += c
	}
	for r, g := range ids {
		groups[g] = append(groups[g], r)
	}
	return groups
}

// FoldOp names the aggregate a Fold computes.
type FoldOp uint8

// The folds. Each skips nil.
const (
	FoldCount FoldOp = iota // the number of values
	FoldSum                 // their Sum
	FoldMean                // their Sum's Mean
	FoldMin                 // the first least under Compare
	FoldMax                 // the first greatest under Compare
)

// Fold computes one aggregate over the values added to it, tracking only
// what its op needs. The zero Fold counts.
type Fold struct {
	sum  Sum
	best any
	n    int64
	op   FoldOp
}

// NewFold returns an empty fold computing op.
func NewFold(op FoldOp) Fold { return Fold{op: op} }

// Add folds v in. nil is skipped. It reports false, and folds nothing,
// when a sum or mean meets a value that is not a number.
func (f *Fold) Add(v any) bool {
	if v == nil {
		return true
	}
	switch f.op {
	case FoldSum, FoldMean:
		if !f.sum.Add(v) {
			return false
		}
	case FoldMin:
		if f.n == 0 || Compare(v, f.best) < 0 {
			f.best = v
		}
	case FoldMax:
		if f.n == 0 || Compare(v, f.best) > 0 {
			f.best = v
		}
	}
	f.n++
	return true
}

// N is the number of values folded.
func (f *Fold) N() int64 { return f.n }

// Value is the aggregate: a count as an int64, else nil when no value was
// folded, the Sum's Value, its Mean as a float64, or the least or greatest
// value.
func (f *Fold) Value() any {
	switch {
	case f.op == FoldCount:
		return f.n
	case f.n == 0:
		return nil
	case f.op == FoldSum:
		return f.sum.Value()
	case f.op == FoldMean:
		return f.sum.Mean()
	}
	return f.best
}

// SortStable stably sorts perm, a permutation of rows, by the key columns:
// row r's key k is keys[k][r], compared under Compare, and desc[k]
// reverses key k (desc is as long as keys).
// When stop is non-nil it is called before each comparison with the
// number of comparisons so far; once it returns true every comparison
// ties, so the sort ends in a few passes.
func SortStable[P ~int | ~int32](perm []P, keys [][]any, desc []bool, stop func(calls int) bool) {
	calls, stopped := 0, false
	slices.SortStableFunc(perm, func(a, b P) int {
		if stop != nil {
			if stopped {
				return 0
			}
			calls++
			if stopped = stop(calls); stopped {
				return 0
			}
		}
		for k, col := range keys {
			if c := Compare(col[a], col[b]); c != 0 {
				if desc[k] {
					return -c
				}
				return c
			}
		}
		return 0
	})
}
