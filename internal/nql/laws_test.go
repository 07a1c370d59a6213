package nql

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/scalar"
)

// scalarCorpus pins NQL's ==, ordering, dict keys, sorted(), unique(),
// min() and max() on the values where a language rule and scalar's
// contract could part: 2^53+1 and 2^53 (one value), NaN (equal to itself,
// one dict key, below every number), -0 and 0 (one value) and bools
// (ordered only against bools, never equal to a number).
var scalarCorpus = []pinCase{
	{src: `let a = 9007199254740993
let b = 9007199254740992
let d = {}
d[a] = 1
d[b] = 2
return [a == b, a != b, a <= b, a >= b, a < b, unique([a, b]), len(d), d[a]]`,
		want: "[true, false, true, true, false, [9007199254740993], 1, 2]"},
	{src: `let nan = float("nan")
let d = {}
d[nan] = 1
return [nan == nan, nan != nan, nan in [nan], nan in d, [nan] == [nan], {"x": nan} == {"x": nan}, nan < -1000000, nan <= nan, unique([nan, 1, nan])]`,
		want: "[true, false, true, true, true, true, true, true, [NaN, 1]]"},
	{src: `let nan = float("nan")
return [sorted([3.0, nan, 1, nan, 2]), sorted([3.0, nan, 1, nan, 2], true)]`,
		want: "[[NaN, NaN, 1, 2, 3.0], [3.0, 2, 1, NaN, NaN]]"},
	{src: `let nan = float("nan")
return [min([nan, 1, 3]), min([1, nan, 3]), max([nan, 1, 3]), max([1, 3, nan])]`,
		want: "[NaN, NaN, 3, 3]"},
	{src: `let z = -0.0
let d = {}
d[0] = "zero"
d[z] = "neg"
return [z == 0, z < 0, len(d), d[0], unique([0, z, 0.0])]`,
		want: `[true, false, 1, "neg", [0]]`},
	{src: `return [1 == true, 0 == false, true + 1, false < true, sorted([true, false, true])]`,
		want: "[false, false, 2, true, [false, true, true]]"},
	{src: `return true < 2`, err: "nql operation error on line 1: cannot compare bool and int"},
	{src: `return 1 >= false`, err: "nql operation error on line 1: cannot compare int and bool"},
	{src: `return sorted([true, 2, 0])`, err: "nql operation error on line 1: cannot compare int and bool"},
	{src: `return min([1, true])`, err: "nql operation error on line 1: cannot compare bool and int"},
	// A list dedupes by rendering, apart from the string that renders alike.
	{src: `return unique(["[1]", [1], [1], "[1]", nil, nil])`, want: `["[1]", [1], nil]`},
}

// TestScalarContract pins scalarCorpus.
func TestScalarContract(t *testing.T) { checkPinned(t, scalarCorpus, nil) }

// TestEqualOnSharedStructureIsConstant: == and in on one list or map
// nested 2^60 times over itself answer at once, since a list or map equals
// itself; walking it would never finish, and the wall clock is checked
// only between instructions.
func TestEqualOnSharedStructureIsConstant(t *testing.T) {
	src := `let l = [1]
let m = {"k": 1}
for i in range(60) {
  l = [l, l]
  m = {"a": m, "b": m}
}
return [l == l, l != l, l in [l], [l] == [l], m == m, m in [m], l == m]`
	done := make(chan string, 1)
	go func() {
		v, err := NewInterp(Limits{}, nil).Run(src)
		if err != nil {
			done <- err.Error()
			return
		}
		done <- Repr(v)
	}()
	select {
	case got := <-done:
		if want := "[true, false, true, true, true, true, false]"; got != want {
			t.Errorf("got %s, want %s", got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("== on a self-nested list did not finish in 10s")
	}
}

const lawP53 = int64(1) << 53

// lawEdges are the values decodeValues picks by index: NaN payloads, ±0,
// 2^53±1 as int and float, ±Inf, the int64 limits, bools, nil and strings.
var lawEdges = []Value{
	math.NaN(), math.Float64frombits(0x7ff8000000000002), math.Copysign(math.NaN(), -1),
	0.0, math.Copysign(0, -1), int64(0),
	lawP53 - 1, lawP53, lawP53 + 1, float64(lawP53), float64(lawP53 + 2),
	int64(1), 1.0, 2.5, math.Inf(1), math.Inf(-1),
	int64(math.MaxInt64), int64(math.MinInt64), float64(math.MaxInt64),
	true, false, nil, "", "a", "b", "1",
}

// decodeValues reads up to twelve scalars from fuzz bytes: an opcode byte
// picks the kind (or an edge value) and the bytes after it give the
// payload. Twelve values fill a dict past its index threshold.
func decodeValues(data []byte) []Value {
	var vals []Value
	take := func(n int) []byte {
		b := make([]byte, n)
		data = data[copy(b, data):]
		return b
	}
	for len(data) > 0 && len(vals) < 12 {
		op := data[0]
		data = data[1:]
		switch op % 6 {
		case 0:
			vals = append(vals, nil)
		case 1:
			vals = append(vals, op&8 != 0)
		case 2:
			vals = append(vals, int64(binary.BigEndian.Uint64(take(8))))
		case 3:
			vals = append(vals, math.Float64frombits(binary.BigEndian.Uint64(take(8))))
		case 4:
			vals = append(vals, string(take(min(int(op>>3), len(data)))))
		default:
			vals = append(vals, lawEdges[int(op>>3)%len(lawEdges)])
		}
	}
	return vals
}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	}
	return 0
}

// FuzzValueLaws checks NQL's scalar laws on decoded values:
//   - a dict finds a value exactly when == finds it among the dict's keys;
//   - ValuesEqual is symmetric and, where scalar.Orderable holds, true
//     exactly when CompareNQL is 0; where it does not, CompareNQL fails;
//   - CompareNQL is antisymmetric and transitive on orderable triples;
//   - sorted() fails only on a pair that is not orderable, and otherwise
//     returns a non-decreasing permutation whose ends min() and max() equal;
//   - unique() keeps the first of each == class, in order.
//
// Its seeds, in testdata/fuzz/FuzzValueLaws, are the values where NQL
// once parted from scalar: 2^53+1 against 2^53, NaN payloads, -0, bools
// against 0 and 1, and NaN inside sorted() and min().
func FuzzValueLaws(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := decodeValues(data)
		// The dict holds every other value past eight fillers, so that
		// it probes through its hash index.
		keys := []Value{"\x00f0", "\x00f1", "\x00f2", "\x00f3", "\x00f4", "\x00f5", "\x00f6", "\x00f7"}
		for i := 0; i < len(vals); i += 2 {
			if vals[i] != nil {
				keys = append(keys, vals[i])
			}
		}
		d := NewMap()
		for _, k := range keys {
			if err := d.Set(k, true); err != nil {
				t.Fatalf("Set(%s): %v", Repr(k), err)
			}
		}
		orderable := true
		for _, a := range vals {
			_, hit := d.Get(a)
			inKeys := false
			for _, k := range keys {
				inKeys = inKeys || ValuesEqual(k, a)
			}
			if hit != inKeys {
				t.Fatalf("dict Get(%s) hit %v, but == finds it among the keys %v", Repr(a), hit, inKeys)
			}
			for _, b := range vals {
				eq := ValuesEqual(a, b)
				if eq != ValuesEqual(b, a) {
					t.Fatalf("ValuesEqual(%s, %s) is not symmetric", Repr(a), Repr(b))
				}
				c, err := CompareNQL(a, b)
				if !scalar.Orderable(a, b) {
					orderable = false
					if err == nil {
						t.Fatalf("CompareNQL(%s, %s) = %d, want an error", Repr(a), Repr(b), c)
					}
					continue
				}
				if err != nil || eq != (c == 0) {
					t.Fatalf("%s vs %s: ValuesEqual %v, CompareNQL %d, %v", Repr(a), Repr(b), eq, c, err)
				}
				if c2, _ := CompareNQL(b, a); sign(c) != -sign(c2) {
					t.Fatalf("CompareNQL(%s, %s) = %d but CompareNQL(%s, %s) = %d", Repr(a), Repr(b), c, Repr(b), Repr(a), c2)
				}
				for _, e := range vals {
					if !scalar.Orderable(b, e) {
						continue
					}
					ce, _ := CompareNQL(a, e)
					cbe, _ := CompareNQL(b, e)
					if c <= 0 && cbe <= 0 && ce > 0 || c < 0 && cbe <= 0 && ce >= 0 {
						t.Fatalf("%s, %s, %s: CompareNQL not transitive (%d, %d, %d)", Repr(a), Repr(b), Repr(e), c, cbe, ce)
					}
				}
			}
		}
		if len(vals) == 0 {
			return
		}

		in := NewInterp(fuzzLimits, nil)
		call := func(name string) (Value, error) {
			return builtins[name].Fn(in, 1, []Value{NewList(vals...)})
		}
		sv, err := call("sorted")
		if err != nil && orderable {
			t.Fatalf("sorted(%s) of orderable values: %v", Repr(NewList(vals...)), err)
		}
		if err == nil {
			s := sv.(*List).Items
			if bag(s) != bag(vals) {
				t.Fatalf("sorted() = %s is no permutation of %s", show(s), show(vals))
			}
			for i := 1; i < len(s); i++ {
				if c, _ := CompareNQL(s[i-1], s[i]); c > 0 {
					t.Fatalf("sorted() = %s is not non-decreasing at %d", Repr(sv), i)
				}
			}
			lo, _ := call("min")
			hi, _ := call("max")
			if !ValuesEqual(lo, s[0]) || !ValuesEqual(hi, s[len(s)-1]) {
				t.Fatalf("min %s, max %s, but sorted() = %s", Repr(lo), Repr(hi), Repr(sv))
			}
		}
		uv, err := call("unique")
		if err != nil {
			t.Fatal(err)
		}
		var want []Value
		for i, v := range vals {
			first := true
			for _, w := range vals[:i] {
				first = first && !ValuesEqual(v, w)
			}
			if first {
				want = append(want, v)
			}
		}
		if got := uv.(*List).Items; show(got) != show(want) {
			t.Fatalf("unique() = %s, want the first of each == class: %s", show(got), show(want))
		}
	})
}

// show renders values with their Go types and exact floats (-0, NaN).
func show(vals []Value) string {
	return strings.Join(rendered(vals), ", ")
}

func rendered(vals []Value) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf("%T %#v", v, v)
	}
	return out
}

// bag renders vals as a multiset: in sorted order of their renderings.
func bag(vals []Value) string {
	r := rendered(vals)
	sort.Strings(r)
	return strings.Join(r, ", ")
}
