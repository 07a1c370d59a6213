package nql

import (
	"fmt"
	"math"
	"testing"
)

// fmtRepr is Repr's scalar formatting as fmt writes it: %v for bools, %d
// for ints and integral floats (with ".0"), %g for other floats and %q for
// strings.
func fmtRepr(v Value) string {
	switch x := v.(type) {
	case bool:
		return fmt.Sprintf("%v", x)
	case int64:
		return fmt.Sprintf("%d", x)
	case float64:
		if x == float64(int64(x)) && x < 1e15 && x > -1e15 {
			return fmt.Sprintf("%d.0", int64(x))
		}
		return fmt.Sprintf("%g", x)
	case string:
		return fmt.Sprintf("%q", x)
	}
	panic(fmt.Sprintf("fmtRepr: not a scalar: %T", v))
}

// TestReprScalarsMatchFmt pins the bytes Repr gives each scalar: those fmt
// gives, including the edges where strconv and fmt could part (infinities,
// NaN, exponent switches, subnormals, invalid UTF-8).
func TestReprScalarsMatchFmt(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{true, "true"},
		{false, "false"},
		{int64(0), "0"},
		{int64(-7), "-7"},
		{int64(math.MaxInt64), "9223372036854775807"},
		{int64(math.MinInt64), "-9223372036854775808"},
		{0.0, "0.0"},
		{math.Copysign(0, -1), "0.0"},
		{3.0, "3.0"},
		{-42.0, "-42.0"},
		{1.5, "1.5"},
		{0.1, "0.1"},
		{1e-7, "1e-07"},
		{123456.789, "123456.789"},
		{999999999999999.0, "999999999999999.0"},
		{1e15, "1e+15"},
		{-1e15, "-1e+15"},
		{1e20, "1e+20"},
		{1e21, "1e+21"},
		{5e-324, "5e-324"},
		{math.MaxFloat64, "1.7976931348623157e+308"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{math.NaN(), "NaN"},
		{"", `""`},
		{"plain", `"plain"`},
		{`q"b\s`, `"q\"b\\s"`},
		{"tab\tnl\n\x00", `"tab\tnl\n\x00"`},
		{"日本", `"日本"`},
		{"\xff\xfe", `"\xff\xfe"`},
		{"a\u2028b", `"a\u2028b"`},
	}
	for _, c := range cases {
		got := Repr(c.v)
		if ref := fmtRepr(c.v); got != ref {
			t.Errorf("Repr(%#v) = %s, fmt gives %s", c.v, got, ref)
		}
		if got != c.want {
			t.Errorf("Repr(%#v) = %s, want %s", c.v, got, c.want)
		}
	}
}

// TestReprContainers pins the rendering of nested lists and maps and of
// callables around the scalars.
func TestReprContainers(t *testing.T) {
	m := NewMap()
	if err := m.Set("k", &List{Items: []Value{int64(1), 2.5, nil, "x"}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Set(int64(3), true); err != nil {
		t.Fatal(err)
	}
	v := &List{Items: []Value{m, &List{}, NewMap(), &Closure{}, &Builtin{Name: "len"}}}
	want := `[{"k": [1, 2.5, nil, "x"], 3: true}, [], {}, <function <lambda>>, <builtin len>]`
	if got := Repr(v); got != want {
		t.Errorf("Repr = %s, want %s", got, want)
	}
}
