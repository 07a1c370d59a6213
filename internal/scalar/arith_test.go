package scalar

import (
	"fmt"
	"math"
	"math/big"
	"testing"
)

func show(v any) string { return fmt.Sprintf("%T %v", v, v) }

// TestArith pins each operator over int64, float64 and mixed operands, the
// overflow rule at the int64 edges, and the failures.
func TestArith(t *testing.T) {
	const maxI, minI = int64(math.MaxInt64), int64(math.MinInt64)
	cases := []struct {
		op   string
		l, r any
		want any
		err  error
	}{
		{"+", p53 + 1, int64(0), p53 + 1, nil},
		{"+", maxI, int64(1), 9.223372036854775807e18, nil},
		{"+", minI, int64(-1), -9.223372036854775808e18, nil},
		{"+", maxI, minI, int64(-1), nil},
		{"+", int64(1), 2.5, 3.5, nil},
		{"+", 0.0, math.Copysign(0, -1), 0.0, nil},
		{"-", minI + 1, int64(1), minI, nil},
		{"-", minI + 1, int64(2), -9.223372036854775808e18, nil},
		{"-", int64(0), minI, 9.223372036854775808e18, nil},
		{"-", int64(-1), maxI, minI, nil},
		{"*", int64(3037000499), int64(3037000499), int64(9223372030926249001), nil},
		{"*", int64(3037000500), int64(3037000500), 9.22337203700025e18, nil},
		{"*", int64(-1), minI, 9.223372036854775808e18, nil},
		{"*", minI, int64(-1), 9.223372036854775808e18, nil},
		{"*", minI, int64(1), minI, nil},
		{"*", int64(0), minI, int64(0), nil},
		{"*", int64(2), 1.5, 3.0, nil},
		{"/", int64(7), int64(2), 3.5, nil},
		{"/", int64(4), int64(2), 2.0, nil},
		{"/", 1.0, math.Copysign(0, -1), nil, ErrZeroDivisor},
		{"/", int64(1), int64(0), nil, ErrZeroDivisor},
		{"%", int64(-7), int64(2), int64(-1), nil},
		{"%", minI, int64(-1), int64(0), nil},
		{"%", p53 + 1, int64(2), int64(1), nil},
		{"%", int64(1), int64(0), nil, ErrZeroDivisor},
		{"%", 7.0, int64(2), nil, ErrModNotInt},
		{"+", int64(1), true, nil, ErrNotNumber},
		{"-", "a", int64(1), nil, ErrNotNumber},
		{"+", nil, 1.0, nil, ErrNotNumber},
		{"^", int64(1), int64(1), nil, ErrUnknownOp},
		{"^", 1.0, 1.0, nil, ErrUnknownOp},
	}
	for _, c := range cases {
		got, err := Arith(c.op, c.l, c.r)
		if err != c.err || show(got) != show(c.want) {
			t.Errorf("%v %s %v = %s, %v; want %s, %v", c.l, c.op, c.r, show(got), err, show(c.want), c.err)
		}
	}
	if got, _ := Arith("+", math.NaN(), int64(1)); got.(float64) == got.(float64) {
		t.Errorf("NaN + 1 = %v", got)
	}
}

// TestSum pins Value, N and Mean: exact while every value is an int64 and
// the sum fits, even past an overflowing partial sum; the in-order float64
// sum otherwise; int64(0) and N 0 when empty.
func TestSum(t *testing.T) {
	const maxI = int64(math.MaxInt64)
	cases := []struct {
		vals  []any
		value any
		n     int64
		mean  float64
	}{
		{nil, int64(0), 0, math.NaN()},
		{[]any{p53 + 1, int64(0)}, p53 + 1, 2, float64(p53) / 2},
		{[]any{maxI, int64(1), int64(-1)}, maxI, 3, float64(maxI) / 3},
		{[]any{maxI, int64(1)}, 9.223372036854775808e18, 2, 4.611686018427387904e18},
		{[]any{int64(1), 2.5, int64(3)}, 6.5, 3, 6.5 / 3},
		{[]any{math.Copysign(0, -1)}, 0.0, 1, 0},
		{[]any{int64(1), "x", int64(2)}, int64(3), 2, 1.5},
	}
	for _, c := range cases {
		var s Sum
		for _, v := range c.vals {
			if ok := s.Add(v); ok == (v == "x") {
				t.Errorf("%v: Add(%v) = %v", c.vals, v, ok)
			}
		}
		if show(s.Value()) != show(c.value) || s.N() != c.n || show(s.Mean()) != show(c.mean) {
			t.Errorf("%v: Value %s, N %d, Mean %v; want %s, %d, %v", c.vals, show(s.Value()), s.N(), s.Mean(), show(c.value), c.n, c.mean)
		}
	}
}

// bigArith is l op r over big integers.
func bigArith(op string, l, r int64) *big.Int {
	x, y := big.NewInt(l), big.NewInt(r)
	switch op {
	case "+":
		return x.Add(x, y)
	case "-":
		return x.Sub(x, y)
	}
	return x.Mul(x, y)
}

// FuzzArith checks int64 + - * against math/big: the exact int64 when the
// result fits, else float64(l) op float64(r). It checks a Sum of the three
// the same way: their big-int sum when it fits, else the float64 sum added
// in order. Its seeds in testdata/fuzz/FuzzArith are the int64 edges.
func FuzzArith(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b, c int64) {
		for _, op := range []string{"+", "-", "*"} {
			exact := bigArith(op, a, b)
			x, y := float64(a), float64(b)
			var want any = map[string]float64{"+": x + y, "-": x - y, "*": x * y}[op]
			if exact.IsInt64() {
				want = exact.Int64()
			}
			if got, err := Arith(op, a, b); err != nil || got != want {
				t.Fatalf("%d %s %d = %s, %v; want %s", a, op, b, show(got), err, show(want))
			}
		}
		var s Sum
		total := new(big.Int)
		for _, x := range []int64{a, b, c} {
			s.Add(x)
			total.Add(total, big.NewInt(x))
		}
		var want any = float64(a) + float64(b) + float64(c)
		if total.IsInt64() {
			want = total.Int64()
		}
		if got := s.Value(); got != want {
			t.Fatalf("Sum of %d, %d, %d = %s, want %s", a, b, c, show(got), show(want))
		}
	})
}
