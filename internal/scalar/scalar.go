// Package scalar is the one key, order and arithmetic contract of the
// tabular value domain: nil, bool, int64, float64 and string. sqldb,
// dataframe and federate group, de-duplicate, join, filter, sort, add and
// sum through it, and NQL compares, keys and adds its scalars through it,
// so a query's answer does not depend on which substrate ran it.
//
// It also holds the operations the three substrates build on the
// contract, each written once: Groups numbers key tuples in
// first-appearance order (GroupRows lists each group's rows), Fold
// computes one aggregate over a column (skipping nil, summing through
// Sum, keeping the first least or greatest value under Compare), and
// SortStable stably sorts a row permutation by key columns, a direction
// per key. The package imports no substrate.
//
// The key and order contract:
//   - Kinds rank nil < bool < number < string.
//   - int64 and float64 are one kind and compare by value, an int64
//     rounded through float64: 2^53 and 2^53+1 are equal.
//   - -0 equals 0.
//   - There is one NaN, equal to itself and ordered before every other
//     number, as in Go's cmp.Compare.
//
// KeyOf(a) == KeyOf(b), Equal(a, b) and Compare(a, b) == 0 agree on every
// pair of domain values, and Key.Append encodes a tuple of keys so that
// two different tuples never give the same bytes.
//
// Outside the domain (a list or map from a graph attribute) KeyOf reports
// false and Equal is false; Compare ranks such values after every string
// and ties them, so a stable sort keeps their order.
//
// The arithmetic contract (Arith, Sum) is over int64 and float64. + - *
// of two int64s is exact, and a result outside int64 is instead
// float64(l) op float64(r), a fixed rule. / divides as float64 and %
// takes int64s. A Sum is the exact int64 while every value added is an
// int64 and the sum fits, else the float64 sum in order; each substrate
// reads N to give its own answer for no values. A failure is a sentinel
// error that each caller maps to its own text.
//
// NQL's ==, ordering, dict keys, sorted() and unique(), and graph.ValueEqual,
// which compares network state, follow the same contract for these values:
// 2^53+1 == 2^53, NaN == NaN and sorts below every number, and -0 == 0 in
// every one of them. Orderable says which pairs an NQL or federated
// ordering accepts: two numbers, two strings or two bools; ordering any
// other pair is an error there, though Compare ranks it. NQL counts a bool
// as the int 0 or 1 in arithmetic only, and turns it into one before
// calling Arith or Sum.
//
// nil is one class everywhere, as SQL NULL too: sqldb =, GROUP BY and
// joins, dataframe GroupBy and Merge, and federate joins pair NULL with
// NULL. That is not SQL's three-valued logic, by decision: one class on
// every substrate keeps an answer from depending on which one ran it, and
// no substrate needs an UNKNOWN truth value. NQL's dict is the one place
// nil is not a key.
package scalar

import (
	"cmp"
	"encoding/binary"
	"hash/maphash"
	"math"
	"strings"
)

// Kinds in rank order; the zero Key (kind 0) is the key of no value.
const (
	kindNil uint8 = iota + 1
	kindBool
	kindNum
	kindStr
	kindOther
)

// Key is the comparable key of a domain value: usable as a Go map key, and
// equal for two values exactly when Equal finds them equal.
type Key struct {
	bits uint64
	str  string
	kind uint8
}

// canonNaN is the bits of the one NaN every NaN payload keys as.
var canonNaN = math.Float64bits(math.NaN())

// KeyOf returns v's key; ok is false for a value outside the domain.
func KeyOf(v any) (Key, bool) {
	switch x := v.(type) {
	case nil:
		return Key{kind: kindNil}, true
	case bool:
		k := Key{kind: kindBool}
		if x {
			k.bits = 1
		}
		return k, true
	case int64:
		return numKey(float64(x)), true
	case float64:
		return numKey(x), true
	case string:
		return Key{kind: kindStr, str: x}, true
	}
	return Key{}, false
}

func numKey(f float64) Key {
	switch {
	case f != f:
		return Key{kind: kindNum, bits: canonNaN}
	case f == 0:
		return Key{kind: kindNum} // -0 keys as 0
	}
	return Key{kind: kindNum, bits: math.Float64bits(f)}
}

// Append appends k's encoding to buf. Every field carries its kind and a
// fixed or length-prefixed payload, so a tuple's concatenated encodings
// decode one way only.
func (k Key) Append(buf []byte) []byte {
	buf = append(buf, k.kind)
	switch k.kind {
	case kindBool, kindNum:
		buf = binary.BigEndian.AppendUint64(buf, k.bits)
	case kindStr:
		buf = binary.AppendUvarint(buf, uint64(len(k.str)))
		buf = append(buf, k.str...)
	}
	return buf
}

// Hash spreads k over a hash table: strings through maphash under seed,
// numbers and bools by mixing their bits with the kind folded in, so that a
// bool and the number with the same bits land apart. Equal keys hash alike.
func (k Key) Hash(seed maphash.Seed) uint64 {
	if k.kind == kindStr {
		return maphash.String(seed, k.str)
	}
	x := k.bits ^ uint64(k.kind)<<56
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Float returns an int64 or float64 as the float64 it compares as; ok is
// false for any other value.
func Float(v any) (f float64, ok bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// Equal reports whether a and b are one value of the domain. Two strings
// are equal only when identical.
func Equal(a, b any) bool {
	switch x := a.(type) {
	case string:
		y, ok := b.(string)
		return ok && x == y
	case int64:
		y, ok := Float(b)
		return ok && float64(x) == y
	case float64:
		y, ok := Float(b)
		return ok && (x == y || x != x && y != y)
	}
	ka, ok := KeyOf(a)
	kb, okb := KeyOf(b)
	return ok && okb && ka == kb
}

// Compare orders a and b: negative when a sorts first, 0 when equal,
// positive when b does.
func Compare(a, b any) int {
	switch x := a.(type) {
	case int64:
		if y, ok := Float(b); ok {
			return compareNumbers(float64(x), y)
		}
	case float64:
		if y, ok := Float(b); ok {
			return compareNumbers(x, y)
		}
	case string:
		if y, ok := b.(string); ok {
			return strings.Compare(x, y)
		}
	}
	ka, kb := kind(a), kind(b)
	if ka != kb {
		return cmp.Compare(ka, kb)
	}
	if x, ok := a.(bool); ok && x != b.(bool) {
		if x {
			return 1
		}
		return -1
	}
	return 0
}

// Orderable reports whether a and b are two numbers, two strings or two
// bools: the pairs an ordering operator accepts.
func Orderable(a, b any) bool {
	switch a.(type) {
	case int64, float64:
		switch b.(type) {
		case int64, float64:
			return true
		}
	case string:
		_, ok := b.(string)
		return ok
	case bool:
		_, ok := b.(bool)
		return ok
	}
	return false
}

// compareNumbers is cmp.Compare with the commonest cases, no NaN, tested
// first.
func compareNumbers(x, y float64) int {
	if x < y {
		return -1
	}
	if x > y {
		return 1
	}
	return cmp.Compare(x, y)
}

func kind(v any) uint8 {
	switch v.(type) {
	case nil:
		return kindNil
	case bool:
		return kindBool
	case int64, float64:
		return kindNum
	case string:
		return kindStr
	}
	return kindOther
}
