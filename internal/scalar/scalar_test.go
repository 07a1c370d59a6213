package scalar

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"math"
	"testing"
)

const p53 = int64(1) << 53

// classes lists domain values in ascending order, grouped into classes of
// values the contract finds equal.
var classes = [][]any{
	{nil},
	{false},
	{true},
	{math.NaN(), math.Float64frombits(0x7ff8000000000002), math.Copysign(math.NaN(), -1)},
	{math.Inf(-1)},
	{-math.MaxFloat64},
	{int64(math.MinInt64), float64(math.MinInt64)},
	{-p53 - 1, -p53, float64(-p53)},
	{int64(-1), -1.0},
	{-math.SmallestNonzeroFloat64},
	{int64(0), 0.0, math.Copysign(0, -1)},
	{math.SmallestNonzeroFloat64},
	{0.5},
	{int64(1), 1.0},
	{p53 - 1, float64(p53 - 1)},
	{p53, p53 + 1, float64(p53)},
	{p53 + 2, float64(p53 + 2)},
	{int64(math.MaxInt64), float64(math.MaxInt64)},
	{math.MaxFloat64},
	{math.Inf(1)},
	{""},
	{"\x00"},
	{"\x1f"},
	{"1"},
	{"a"},
	{"a\x1fb"},
	{"b"},
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

// TestCompareOrdering checks Compare, Equal and KeyOf against the rank of
// each value's class: kinds order nil < bool < number < string, int64
// rounds through float64, -0 = 0 and every NaN is one value below -Inf.
func TestCompareOrdering(t *testing.T) {
	for i, ci := range classes {
		for j, cj := range classes {
			for _, a := range ci {
				for _, b := range cj {
					if got, want := sign(Compare(a, b)), sign(i-j); got != want {
						t.Errorf("Compare(%#v, %#v) = %d, want %d", a, b, got, want)
					}
					if got := Equal(a, b); got != (i == j) {
						t.Errorf("Equal(%#v, %#v) = %v, want %v", a, b, got, i == j)
					}
					ka, _ := KeyOf(a)
					kb, _ := KeyOf(b)
					if got := ka == kb; got != (i == j) {
						t.Errorf("KeyOf(%#v) == KeyOf(%#v) is %v, want %v", a, b, got, i == j)
					}
				}
			}
		}
	}
}

// TestOrderableAndHash: Orderable holds for two bools, two numbers or two
// strings and for no other pair, and equal keys hash alike.
func TestOrderableAndHash(t *testing.T) {
	seed := maphash.MakeSeed()
	vals := []any{[]any{int64(1)}}
	for _, c := range classes {
		vals = append(vals, c...)
	}
	for _, a := range vals {
		for _, b := range vals {
			ka, _ := KeyOf(a)
			kb, _ := KeyOf(b)
			want := ka.kind == kb.kind && (ka.kind == kindBool || ka.kind == kindNum || ka.kind == kindStr)
			if got := Orderable(a, b); got != want {
				t.Errorf("Orderable(%#v, %#v) = %v, want %v", a, b, got, want)
			}
			if ka == kb && ka.Hash(seed) != kb.Hash(seed) {
				t.Errorf("%#v and %#v key alike but hash apart", a, b)
			}
		}
	}
}

// TestOutsideDomain pins the values the contract does not cover: no key,
// never equal, and ranked after every string, tied with each other.
func TestOutsideDomain(t *testing.T) {
	list, m := []any{int64(1)}, map[string]any{}
	for _, v := range []any{list, m, int(1), float32(1)} {
		if _, ok := KeyOf(v); ok {
			t.Errorf("KeyOf(%#v) reports a key", v)
		}
		if Equal(v, v) {
			t.Errorf("Equal(%#v, itself) is true", v)
		}
		if Compare(v, "zzz") <= 0 || Compare("zzz", v) >= 0 || Compare(v, list) != 0 {
			t.Errorf("Compare does not rank %#v last and tied", v)
		}
	}
	var zero Key
	if k, _ := KeyOf(nil); k == zero {
		t.Error("nil keys as the zero Key")
	}
}

// TestAppendFieldsDelimit pins the collisions a bare separator allowed:
// no string can forge the boundary between two fields.
func TestAppendFieldsDelimit(t *testing.T) {
	pairs := [][2][]any{
		{{"x\x1fs:y", "z"}, {"x", "y\x1fs:z"}},
		{{"a", ""}, {"", "a"}},
		{{"ab"}, {"a", "b"}},
		{{int64(1), "x"}, {"\x03" + string(binary.BigEndian.AppendUint64(nil, math.Float64bits(1))), "x"}},
	}
	for _, p := range pairs {
		if bytes.Equal(encodeTuple(p[0]), encodeTuple(p[1])) {
			t.Errorf("%q and %q encode alike", p[0], p[1])
		}
	}
	if !bytes.Equal(encodeTuple([]any{int64(1), math.Copysign(0, -1)}), encodeTuple([]any{1.0, int64(0)})) {
		t.Error("equal tuples encode differently")
	}
}

func TestKeyOfAllocatesNothing(t *testing.T) {
	vals := []any{nil, true, int64(7), 2.5, "s"}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		for _, v := range vals {
			k, _ := KeyOf(v)
			buf = k.Append(buf)
		}
	}); n != 0 {
		t.Errorf("KeyOf and Append allocate %v times per run", n)
	}
}

// decode reads up to eight domain values from fuzz bytes: an opcode byte
// picks the kind (or an edge value from classes) and the bytes after it
// give the payload.
func decode(data []byte) []any {
	var vals []any
	take := func(n int) []byte {
		b := make([]byte, n)
		data = data[copy(b, data):]
		return b
	}
	for len(data) > 0 && len(vals) < 8 {
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
			n := min(int(op>>3), len(data))
			vals = append(vals, string(take(n)))
		default:
			c := classes[int(op>>3)%len(classes)]
			vals = append(vals, c[int(op>>3)/len(classes)%len(c)])
		}
	}
	return vals
}

func encodeTuple(vals []any) []byte {
	var buf []byte
	for _, v := range vals {
		k, _ := KeyOf(v)
		buf = k.Append(buf)
	}
	return buf
}

// FuzzKeyContract checks the contract on decoded values: KeyOf equality,
// Equal and Compare == 0 agree on every pair; Compare is antisymmetric and
// transitive on every triple; and two tuples (any two adjacent runs of the
// values) encode alike only when they are equal field by field. Its seeds
// are in testdata/fuzz/FuzzKeyContract: the old separator collision, the
// numeric edges and one value of every kind.
func FuzzKeyContract(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := decode(data)
		for _, a := range vals {
			for _, b := range vals {
				ka, _ := KeyOf(a)
				kb, _ := KeyOf(b)
				c := Compare(a, b)
				if ka == kb != Equal(a, b) || Equal(a, b) != (c == 0) {
					t.Fatalf("%#v vs %#v: keys equal %v, Equal %v, Compare %d", a, b, ka == kb, Equal(a, b), c)
				}
				if sign(c) != -sign(Compare(b, a)) {
					t.Fatalf("Compare(%#v, %#v) = %d but Compare(%#v, %#v) = %d", a, b, c, b, a, Compare(b, a))
				}
				for _, d := range vals {
					if c <= 0 && Compare(b, d) <= 0 && Compare(a, d) > 0 {
						t.Fatalf("%#v <= %#v <= %#v but Compare(%#v, %#v) > 0", a, b, d, a, d)
					}
					if c < 0 && Compare(b, d) <= 0 && Compare(a, d) >= 0 {
						t.Fatalf("%#v < %#v <= %#v but Compare(%#v, %#v) >= 0", a, b, d, a, d)
					}
				}
			}
		}
		for i := range vals {
			for j := i; j <= len(vals); j++ {
				for k := j; k <= len(vals); k++ {
					x, y := vals[i:j], vals[j:k]
					if !bytes.Equal(encodeTuple(x), encodeTuple(y)) {
						continue
					}
					if len(x) != len(y) {
						t.Fatalf("tuples %#v and %#v of different lengths encode alike", x, y)
					}
					for f := range x {
						if !Equal(x[f], y[f]) {
							t.Fatalf("tuples %#v and %#v differ at %d but encode alike", x, y, f)
						}
					}
				}
			}
		}
	})
}
