package nql

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/scalar"
)

// refMap is the reference model a Map must agree with: the keys in
// insertion order plus a Go map from each key's scalar.Key to its position.
type refMap struct {
	keys []Value
	vals []Value
	pos  map[scalar.Key]int
}

func newRefMap() *refMap { return &refMap{pos: map[scalar.Key]int{}} }

func (r *refMap) set(k, v Value) {
	ks, _ := mapKey(k)
	if i, ok := r.pos[ks]; ok {
		r.vals[i] = v
		return
	}
	r.pos[ks] = len(r.keys)
	r.keys = append(r.keys, k)
	r.vals = append(r.vals, v)
}

func (r *refMap) get(k Value) (Value, bool) {
	ks, err := mapKey(k)
	if err != nil {
		return nil, false
	}
	i, ok := r.pos[ks]
	if !ok {
		return nil, false
	}
	return r.vals[i], true
}

func (r *refMap) del(k Value) {
	ks, err := mapKey(k)
	if err != nil {
		return
	}
	i, ok := r.pos[ks]
	if !ok {
		return
	}
	r.keys = append(r.keys[:i], r.keys[i+1:]...)
	r.vals = append(r.vals[:i], r.vals[i+1:]...)
	delete(r.pos, ks)
	for j := i; j < len(r.keys); j++ {
		js, _ := mapKey(r.keys[j])
		r.pos[js] = j
	}
}

// sameKey compares keys by identity: type and bit pattern. One key class
// holds 1 and 1.0, ±0.0 and every NaN payload, and a map must keep the
// first key written of each class, as refMap does, so this tells 0.0 from
// -0.0 and one NaN payload from another.
func sameKey(a, b Value) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	default:
		return a == b
	}
}

// checkMap compares m with r entry by entry, in order, and probes every
// key of pool.
func checkMap(t *testing.T, what string, m *Map, r *refMap, pool []Value) {
	t.Helper()
	if m.Len() != len(r.keys) {
		t.Fatalf("%s: Len %d, want %d", what, m.Len(), len(r.keys))
	}
	for i, k := range m.Keys() {
		if !sameKey(k, r.keys[i]) || m.vals[i] != r.vals[i] {
			t.Fatalf("%s: entry %d is %s: %v, want %s: %v", what, i, Repr(k), m.vals[i], Repr(r.keys[i]), r.vals[i])
		}
	}
	for _, k := range pool {
		got, gok := m.Get(k)
		want, wok := r.get(k)
		if gok != wok || got != want {
			t.Fatalf("%s: Get(%s) = %v, %v; want %v, %v", what, Repr(k), got, gok, want, wok)
		}
	}
}

// mapKeyPool returns at least n keys, some of which collide under
// scalar.KeyOf: ints and the equal floats, NaN (two bit patterns), ±0.0
// and 2^53 with 2^53+1; and bools and short and long strings.
func mapKeyPool(n int) []Value {
	pool := []Value{
		int64(0), 0.0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff8000000000000),
		true, false, int64(1), 1.0, int64(-3), -3.0, 2.5, "", "a", strings.Repeat("long key ", 40),
		math.Inf(1), math.Inf(-1), int64(math.MaxInt64), float64(1 << 53), int64(1<<53 + 1),
	}
	for i := 0; len(pool) < n; i++ {
		switch i % 3 {
		case 0:
			pool = append(pool, int64(i+10))
		case 1:
			pool = append(pool, float64(i)+0.25)
		default:
			pool = append(pool, fmt.Sprintf("k%d-%s", i, strings.Repeat("x", i%50)))
		}
	}
	return pool
}

// TestMapMatchesReference runs seeded random Set/Get/Delete/SetBoxed
// sequences on plain, preallocated and shaped maps of sizes around the
// index threshold and every rebuild, against refMap.
func TestMapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 6000}
	for _, size := range sizes {
		pool := mapKeyPool(size + size/2 + 20)
		for _, kind := range []string{"plain", "cap", "shaped"} {
			what := fmt.Sprintf("%s/%d", kind, size)
			var m *Map
			r := newRefMap()
			switch kind {
			case "plain":
				m = NewMap()
			case "cap":
				m = NewMapCap(size)
			case "shaped":
				// The shape's keys are the first size distinct pool keys.
				var keys []Value
				for _, k := range pool {
					if _, dup := r.get(k); !dup && len(r.keys) < size {
						r.set(k, int64(len(r.keys)))
						keys = append(keys, k)
					}
				}
				s := NewMapShape(keys)
				vals := make([]Value, s.Len())
				for i := range vals {
					vals[i] = int64(i)
				}
				m = s.Map(vals)
			}
			for len(r.keys) < size {
				k := pool[rng.Intn(len(pool))]
				v := int64(rng.Intn(1000))
				if err := m.Set(k, v); err != nil {
					t.Fatal(err)
				}
				r.set(k, v)
			}
			checkMap(t, what+" filled", m, r, pool)
			ops := 4*size + 60
			if size > 100 {
				ops = 1500
			}
			for op := 0; op < ops; op++ {
				k := pool[rng.Intn(len(pool))]
				v := int64(rng.Intn(1000))
				switch rng.Intn(5) {
				case 0, 1:
					if err := m.Set(k, v); err != nil {
						t.Fatal(err)
					}
					r.set(k, v)
				case 2:
					m.SetBoxed(k, v)
					r.set(k, v)
				case 3:
					m.Delete(k)
					r.del(k)
					// Delete then re-insert: the key moves to the end.
					if rng.Intn(2) == 0 {
						m.SetBoxed(k, v)
						r.set(k, v)
					}
				case 4:
					got, gok := m.Get(k)
					want, wok := r.get(k)
					if gok != wok || got != want {
						t.Fatalf("%s op %d: Get(%s) = %v, %v; want %v, %v", what, op, Repr(k), got, gok, want, wok)
					}
				}
				if size < 100 || op%500 == 0 {
					checkMap(t, fmt.Sprintf("%s op %d", what, op), m, r, pool)
				}
			}
			checkMap(t, what+" done", m, r, pool)
		}
	}
}

// TestMapShapedRowsIsolated inserts into and deletes from one row of a
// shape on both sides of the index threshold; its siblings keep the
// shape's keys and their own values.
func TestMapShapedRowsIsolated(t *testing.T) {
	for _, n := range []int{0, 3, 8, 9, 17} {
		// n distinct keys, and pool's last key is none of them.
		pool := newRefMap()
		for _, k := range mapKeyPool(n + 20) {
			pool.set(k, nil)
		}
		keys := pool.keys[:n]
		extra := pool.keys[n]
		s := NewMapShape(keys)
		rows := s.Rows(3, func(i int, vals []Value) {
			for j := range vals {
				vals[j] = int64(100*i + j)
			}
		})
		refs := make([]*refMap, 3)
		for i := range refs {
			refs[i] = newRefMap()
			for j, k := range keys {
				refs[i].set(k, int64(100*i+j))
			}
		}
		mid := rows[1].(*Map)
		mid.SetBoxed(extra, "new")
		refs[1].set(extra, "new")
		if n > 0 {
			mid.Delete(keys[0])
			refs[1].del(keys[0])
		}
		// Overwrites write only the row's own values.
		if n > 1 {
			rows[2].(*Map).SetBoxed(keys[1], "over")
			refs[2].set(keys[1], "over")
		}
		for i, row := range rows {
			checkMap(t, fmt.Sprintf("shape %d row %d", n, i), row.(*Map), refs[i], pool.keys)
		}
		// A row built later still has the shape's layout.
		fresh := s.Map(make([]Value, s.Len()))
		want := newRefMap()
		for _, k := range keys {
			want.set(k, nil)
		}
		checkMap(t, fmt.Sprintf("shape %d fresh", n), fresh, want, pool.keys)
	}
}

// TestMapShapeDedup: a repeated key keeps its first position (1 and 1.0,
// two NaNs, 0.0 and -0.0 are each one key) and an unhashable key is
// dropped, past the index threshold too.
func TestMapShapeDedup(t *testing.T) {
	keys := []Value{int64(1), "a", 1.0, NewList(), "a", math.NaN(), math.NaN(), 0.0, math.Copysign(0, -1)}
	want := []int{0, 1, 0, -1, 1, 2, 2, 3, 3}
	for i := 0; i < 8; i++ {
		keys = append(keys, fmt.Sprintf("s%d", i))
		want = append(want, 4+i)
	}
	s := NewMapShape(keys)
	if s.Len() != 12 {
		t.Fatalf("Len %d, want 12", s.Len())
	}
	for i, w := range want {
		if got := s.Slot(i); got != w {
			t.Errorf("Slot(%d) = %d, want %d", i, got, w)
		}
	}
}

// TestMapSize pins Map at 64 bytes: millions of row maps are live in an
// evaluation run, so a wider index field costs memory on every one.
func TestMapSize(t *testing.T) {
	if got := unsafe.Sizeof(Map{}); got > 64 {
		t.Errorf("unsafe.Sizeof(Map{}) = %d, want <= 64", got)
	}
}
