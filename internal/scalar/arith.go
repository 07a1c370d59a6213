package scalar

import (
	"errors"
	"math"
	"math/bits"
)

// Arithmetic failures, returned bare: each caller compares them with ==
// and maps them to its own error text.
var (
	ErrNotNumber   = errors.New("scalar: arithmetic on a non-number")
	ErrModNotInt   = errors.New("scalar: % requires integers")
	ErrZeroDivisor = errors.New("scalar: division by zero")
	ErrUnknownOp   = errors.New("scalar: unknown arithmetic operator")
)

// Arith applies op, one of + - * / %, to two numbers (int64 or float64).
// + - * of two int64s is exact, and a result outside int64 is instead
// float64(l) op float64(r). / divides as float64. % takes two int64s and
// keeps Go's truncated remainder. Any other pair computes in float64.
func Arith(op string, l, r any) (any, error) {
	x, xi := l.(int64)
	y, yi := r.(int64)
	if xi && yi {
		// An int64 result is returned here; an overflow falls through.
		switch op {
		case "+":
			if s := x + y; (s > x) == (y > 0) {
				return s, nil
			}
		case "-":
			if d := x - y; (d < x) == (y > 0) {
				return d, nil
			}
		case "*":
			if p := x * y; x == 0 || p/x == y && (x != -1 || y != math.MinInt64) {
				return p, nil
			}
		case "%":
			if y == 0 {
				return nil, ErrZeroDivisor
			}
			return x % y, nil
		}
	}
	fx, okx := Float(l)
	fy, oky := Float(r)
	if !okx || !oky {
		return nil, ErrNotNumber
	}
	switch op {
	case "+":
		return fx + fy, nil
	case "-":
		return fx - fy, nil
	case "*":
		return fx * fy, nil
	case "/":
		if fy == 0 {
			return nil, ErrZeroDivisor
		}
		return fx / fy, nil
	case "%":
		return nil, ErrModNotInt
	}
	return nil, ErrUnknownOp
}

// Sum adds numbers in order. Alongside the float64 sum it keeps the exact
// sum of the int64s in 128 bits, which no run of additions overflows.
// The zero Sum is empty.
type Sum struct {
	lo, hi uint64  // the exact integer sum, two's complement
	f      float64 // the float64 sum, added in order
	n      int64
	float  bool // a float64 was added
}

// Add adds v when it is an int64 or float64 and reports whether it was.
func (s *Sum) Add(v any) bool {
	switch x := v.(type) {
	case int64:
		var carry uint64
		s.lo, carry = bits.Add64(s.lo, uint64(x), 0)
		s.hi += carry + uint64(x>>63)
		s.f += float64(x)
	case float64:
		s.f += x
		s.float = true
	default:
		return false
	}
	s.n++
	return true
}

// exact reports whether the sum is the int64 int64(s.lo): every value
// added was an int64 and their sum fits.
func (s *Sum) exact() bool {
	return !s.float && s.hi == uint64(int64(s.lo)>>63)
}

// Value is the exact int64 sum when every value added was an int64 and
// the sum fits (int64(0) for an empty Sum), else the float64 sum.
func (s *Sum) Value() any {
	if s.exact() {
		return int64(s.lo)
	}
	return s.f
}

// N is the number of values added.
func (s *Sum) N() int64 { return s.n }

// Mean is the sum as a float64 over N; an empty Sum's mean is NaN.
func (s *Sum) Mean() float64 {
	if s.exact() {
		return float64(int64(s.lo)) / float64(s.n)
	}
	return s.f / float64(s.n)
}
