package scalar

import (
	"fmt"
	"math"
	"testing"
)

// same reports whether a and b are one value of one type, a float64 to
// the bit, so that a fold keeping the first of equal values shows.
func same(a, b any) bool {
	x, okx := a.(float64)
	y, oky := b.(float64)
	if okx || oky {
		return okx && oky && math.Float64bits(x) == math.Float64bits(y)
	}
	return a == b
}

func keysOf(vals ...any) []Key {
	keys := make([]Key, len(vals))
	for i, v := range vals {
		keys[i], _ = KeyOf(v)
	}
	return keys
}

func TestGroups(t *testing.T) {
	var g Groups
	for i, c := range []struct {
		tuple []any
		id    int
		fresh bool
	}{
		{[]any{int64(1), "a"}, 0, true},
		{[]any{1.0, "a"}, 0, false},
		{[]any{math.NaN(), nil}, 1, true},
		{[]any{math.Float64frombits(0x7ff8000000000002), nil}, 1, false},
		{[]any{math.Copysign(0, -1), "a"}, 2, true},
		{[]any{int64(0), "a"}, 2, false},
		{[]any{"a", int64(1)}, 3, true},
		{[]any{"a\x1f", int64(1)}, 4, true},
	} {
		id, fresh := g.ID(keysOf(c.tuple...))
		if id != c.id || fresh != c.fresh {
			t.Errorf("tuple %d %v: ID = %d, %v; want %d, %v", i, c.tuple, id, fresh, c.id, c.fresh)
		}
	}
	if g.Len() != 5 {
		t.Errorf("Len = %d, want 5", g.Len())
	}
	if got := fmt.Sprint(GroupRows([]int{1, 0, 1, 2, 0, 1}, 4)); got != "[[1 4] [0 2 5] [3] []]" {
		t.Errorf("GroupRows = %s", got)
	}
	var one, none Groups
	for _, v := range []any{int64(1) << 53, (int64(1) << 53) + 1, float64(int64(1) << 53)} {
		if id, _ := one.ID(keysOf(v)); id != 0 {
			t.Errorf("2^53 class: %v got id %d", v, id)
		}
	}
	for i := 0; i < 3; i++ {
		if id, fresh := none.ID(nil); id != 0 || fresh != (i == 0) {
			t.Errorf("empty tuple %d: ID = %d, %v", i, id, fresh)
		}
	}
}

func TestFold(t *testing.T) {
	nan2 := math.Float64frombits(0x7ff8000000000002)
	vals := []any{nil, int64(1), 1.0, nan2, math.NaN(), int64(3), nil, 3.0}
	for _, c := range []struct {
		op   FoldOp
		want any
	}{
		{FoldCount, int64(6)},
		{FoldMin, nan2},
		{FoldMax, int64(3)},
	} {
		f := NewFold(c.op)
		for _, v := range vals {
			if !f.Add(v) {
				t.Fatalf("op %d refused %v", c.op, v)
			}
		}
		if got := f.Value(); !same(got, c.want) {
			t.Errorf("op %d = %#v, want %#v", c.op, got, c.want)
		}
	}
	nanSum := NewFold(FoldSum)
	for _, v := range vals {
		nanSum.Add(v)
	}
	if got, ok := nanSum.Value().(float64); !ok || !math.IsNaN(got) || nanSum.N() != 6 {
		t.Errorf("sum = %#v over %d values, want NaN over 6", nanSum.Value(), nanSum.N())
	}
	min := NewFold(FoldMin)
	for _, v := range []any{1.0, int64(1)} {
		min.Add(v)
	}
	if !same(min.Value(), 1.0) {
		t.Errorf("MIN(1.0, 1) = %#v, want the first, 1.0", min.Value())
	}
	for _, op := range []FoldOp{FoldSum, FoldMean, FoldMin, FoldMax} {
		f := NewFold(op)
		f.Add(nil)
		if f.Value() != nil || f.N() != 0 {
			t.Errorf("op %d over nil = %#v (N %d), want nil", op, f.Value(), f.N())
		}
	}
	mean := NewFold(FoldMean)
	for _, v := range []any{int64(1), int64(2)} {
		mean.Add(v)
	}
	if mean.Value() != 1.5 {
		t.Errorf("mean = %v", mean.Value())
	}
	sum := NewFold(FoldSum)
	if sum.Add(int64(1)); sum.Add("x") || sum.N() != 1 || sum.Value() != int64(1) {
		t.Errorf("sum took a string: N %d, value %#v", sum.N(), sum.Value())
	}
	if count := NewFold(FoldCount); !count.Add("x") || count.Value() != int64(1) {
		t.Errorf("count = %#v", count.Value())
	}
}

func TestSortStable(t *testing.T) {
	ks := []any{"b", int64(1), nil, 1.0, true, math.NaN(), "a", int64(1)}
	ids := []any{int64(0), int64(1), int64(2), int64(3), int64(4), int64(5), int64(6), int64(7)}
	perm := []int{0, 1, 2, 3, 4, 5, 6, 7}
	SortStable(perm, [][]any{ks}, []bool{false}, nil)
	if got := fmt.Sprint(perm); got != "[2 4 5 1 3 7 6 0]" {
		t.Errorf("ascending = %s", got)
	}
	perm32 := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	SortStable(perm32, [][]any{ks, ids}, []bool{true, true}, nil)
	if got := fmt.Sprint(perm32); got != "[0 6 7 3 1 5 4 2]" {
		t.Errorf("descending = %s", got)
	}
	calls := 0
	SortStable(perm, [][]any{ks}, []bool{false}, func(n int) bool {
		calls++
		if n != calls {
			t.Fatalf("stop %d got count %d", calls, n)
		}
		return n >= 3
	})
	if calls != 3 {
		t.Errorf("stop called %d times, want 3", calls)
	}
}

// FuzzKernels checks Groups, SortStable and Fold against naive oracles
// over rows built from the decoded values: row r's key c is
// vals[(r / m^c) % m] for m values, so every pair of values meets. Two
// rows share a Groups id exactly when their keys are Equal field by
// field, ids count up in first-appearance order, SortStable is the
// stable insertion sort under Compare with each key's direction, and each
// Fold is a linear scan: the non-nil count, the first least, the first
// greatest, and Sum (refused at the first value that is not a number).
// The first byte picks one or two keys (bit 0) and their directions
// (bits 1 and 2). Its seeds are in testdata/fuzz/FuzzKernels.
func FuzzKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mode := data[0]
		vals := decode(data[1:])
		m := len(vals)
		if m == 0 {
			return
		}
		w := 1 + int(mode&1)
		desc := []bool{mode&2 != 0, mode&4 != 0}[:w]
		n := m * m
		cols := make([][]any, w)
		for c := range cols {
			cols[c] = make([]any, n)
			for r := range cols[c] {
				step := 1
				if c == 1 {
					step = m
				}
				cols[c][r] = vals[r/step%m]
			}
		}

		var g Groups
		ids := make([]int, n)
		tuple := make([]Key, w)
		for r := range ids {
			for c := range cols {
				tuple[c], _ = KeyOf(cols[c][r])
			}
			before := g.Len()
			id, fresh := g.ID(tuple)
			if fresh != (id == before) || id > before || g.Len() != max(before, id+1) {
				t.Fatalf("row %d: id %d, fresh %v, Len %d after %d", r, id, fresh, g.Len(), before)
			}
			ids[r] = id
			for s := 0; s < r; s++ {
				equal := true
				for c := range cols {
					equal = equal && Equal(cols[c][r], cols[c][s])
				}
				if equal != (ids[r] == ids[s]) {
					t.Fatalf("rows %d and %d: Equal %v but ids %d and %d", s, r, equal, ids[s], ids[r])
				}
			}
		}

		perm := make([]int, n)
		want := make([]int, n)
		for r := range perm {
			perm[r], want[r] = r, r
		}
		SortStable(perm, cols, desc, nil)
		less := func(a, b int) bool {
			for c := range cols {
				if x := Compare(cols[c][a], cols[c][b]); x != 0 {
					return x < 0 != desc[c]
				}
			}
			return false
		}
		for i := 1; i < n; i++ {
			for j := i; j > 0 && less(want[j], want[j-1]); j-- {
				want[j], want[j-1] = want[j-1], want[j]
			}
		}
		if fmt.Sprint(perm) != fmt.Sprint(want) {
			t.Fatalf("SortStable = %v, insertion sort = %v", perm, want)
		}

		var count int64
		var lo, hi any
		var sum Sum
		sumOK := true
		for _, v := range vals {
			if v == nil {
				continue
			}
			if lo == nil || Compare(v, lo) < 0 {
				lo = v
			}
			if hi == nil || Compare(v, hi) > 0 {
				hi = v
			}
			count++
			if sumOK && !sum.Add(v) {
				sumOK = false
			}
		}
		for _, c := range []struct {
			op   FoldOp
			want any
		}{{FoldCount, count}, {FoldMin, lo}, {FoldMax, hi}} {
			fold := NewFold(c.op)
			for _, v := range vals {
				fold.Add(v)
			}
			if got := fold.Value(); !same(got, c.want) {
				t.Fatalf("fold %d over %#v = %#v, scan = %#v", c.op, vals, got, c.want)
			}
		}
		fold := NewFold(FoldSum)
		foldOK := true
		for _, v := range vals {
			if foldOK && !fold.Add(v) {
				foldOK = false
			}
		}
		if foldOK != sumOK || sumOK && sum.N() > 0 && !same(fold.Value(), sum.Value()) {
			t.Fatalf("fold sum over %#v = %#v (ok %v), Sum = %#v (ok %v)", vals, fold.Value(), foldOK, sum.Value(), sumOK)
		}
	})
}
