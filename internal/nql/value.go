package nql

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"strconv"

	"repro/internal/scalar"
)

// Value is any NQL runtime value: nil, bool, int64, float64, string, *List,
// *Map, *Closure, *Builtin, or an Object (host binding).
type Value = any

// List is a mutable ordered sequence.
type List struct {
	Items []Value
}

// NewList wraps items into a List.
func NewList(items ...Value) *List { return &List{Items: items} }

// Map is an insertion-ordered map with scalar keys (string, int64, float64,
// bool), keyed by scalar.Key. Generated programs use maps pervasively
// (attribute dicts, grouped results), and insertion order keeps outputs
// deterministic.
//
// Small maps (the millions of per-row attribute dicts the evaluation matrix
// builds) stay index-free and resolve keys by linear scan; past
// mapIndexThreshold entries a map builds an open-addressed index (see
// mapIndex). Iteration reads keys, never the index, so no output depends on
// the index's hash seed.
//
// A map made by MapShape.Map shares its keys and index with every other
// map of that shape (the rows of one frame) and owns only its values.
// Overwriting an existing key writes the map's own values; the first
// insert or delete copies the keys and index, so the map stops sharing.
type Map struct {
	keys   []Value
	vals   []Value
	index  *mapIndex // nil while small; a pointer keeps Map at 64 bytes
	shared bool      // keys and index belong to a MapShape
}

// mapIndexThreshold is the entry count beyond which a Map switches from
// linear key scans to a hash index.
const mapIndexThreshold = 8

// mapIndex is an open-addressed hash index over a Map's keys. slots has a
// power-of-two length; a slot holds an entry's position plus one, and 0
// marks it empty. Probing is linear, and the table is rebuilt at twice the
// size when an insert would fill more than half of it, so every probe
// sequence ends at an empty slot.
type mapIndex struct {
	slots []int32
}

// hashSeed seeds the string hash. Its value changes per process; only
// which slot an entry lands in depends on it.
var hashSeed = maphash.MakeSeed()

// NewMap returns an empty Map.
func NewMap() *Map { return &Map{} }

// NewMapCap returns an empty Map preallocated for n entries: keys and
// values share one backing allocation and no index is built until needed.
func NewMapCap(n int) *Map {
	buf := make([]Value, 2*n)
	return &Map{keys: buf[0:0:n], vals: buf[n : n : 2*n]}
}

// mapKey is k's dict key, its scalar.Key: int64 and float64 of one value,
// -0 and 0, and every NaN payload are one key. nil and values outside the
// scalar domain are not keys. Building one never allocates.
func mapKey(k Value) (scalar.Key, error) {
	if k != nil {
		if ks, ok := scalar.KeyOf(k); ok {
			return ks, nil
		}
	}
	return scalar.Key{}, fmt.Errorf("unhashable map key of type %s", TypeName(k))
}

// find locates the entry for a hashable key. Stored keys are always
// hashable, so each one's key is scalar.KeyOf's.
func (m *Map) find(ks scalar.Key) (int, bool) {
	if m.index != nil {
		slots := m.index.slots
		mask := uint64(len(slots) - 1)
		for i := ks.Hash(hashSeed) & mask; ; i = (i + 1) & mask {
			e := slots[i]
			if e == 0 {
				return 0, false
			}
			if mk, _ := scalar.KeyOf(m.keys[e-1]); mk == ks {
				return int(e - 1), true
			}
		}
	}
	for i, k := range m.keys {
		if mk, _ := scalar.KeyOf(k); mk == ks {
			return i, true
		}
	}
	return 0, false
}

// buildIndex gives the map a fresh index over its keys, sized so that at
// least as many entries again fit before the next rebuild.
func (m *Map) buildIndex() {
	n := 16
	for n < 2*(len(m.keys)+1) {
		n *= 2
	}
	m.index = &mapIndex{slots: make([]int32, n)}
	m.index.fill(m.keys)
}

// fill places every key of keys at its position. The slots must be empty.
func (x *mapIndex) fill(keys []Value) {
	for j, k := range keys {
		ks, _ := scalar.KeyOf(k)
		x.place(ks, j)
	}
}

// place records entry position pos for key ks in the first empty slot of
// its probe sequence.
func (x *mapIndex) place(ks scalar.Key, pos int) {
	mask := uint64(len(x.slots) - 1)
	i := ks.Hash(hashSeed) & mask
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = int32(pos + 1)
}

// own gives a shaped map private copies of its keys and index before they
// change.
func (m *Map) own() {
	if !m.shared {
		return
	}
	m.keys = append(make([]Value, 0, len(m.keys)+1), m.keys...)
	if m.index != nil {
		m.buildIndex()
	}
	m.shared = false
}

// insert appends a key known to be absent.
func (m *Map) insert(ks scalar.Key, k, v Value) {
	m.own()
	m.keys = append(m.keys, k)
	m.vals = append(m.vals, v)
	switch {
	case m.index == nil:
		if len(m.keys) > mapIndexThreshold {
			m.buildIndex()
		}
	case 2*len(m.keys) > len(m.index.slots):
		m.buildIndex()
	default:
		m.index.place(ks, len(m.keys)-1)
	}
}

// Set inserts or replaces a key.
func (m *Map) Set(k, v Value) error {
	ks, err := mapKey(k)
	if err != nil {
		return err
	}
	if i, ok := m.find(ks); ok {
		m.vals[i] = v
		return nil
	}
	m.insert(ks, k, v)
	return nil
}

// Get fetches a key; ok is false when absent.
func (m *Map) Get(k Value) (Value, bool) {
	ks, err := mapKey(k)
	if err != nil {
		return nil, false
	}
	i, ok := m.find(ks)
	if !ok {
		return nil, false
	}
	return m.vals[i], true
}

// Delete removes a key if present.
func (m *Map) Delete(k Value) {
	ks, err := mapKey(k)
	if err != nil {
		return
	}
	i, ok := m.find(ks)
	if !ok {
		return
	}
	m.own()
	m.keys = append(m.keys[:i], m.keys[i+1:]...)
	m.vals = append(m.vals[:i], m.vals[i+1:]...)
	if m.index != nil {
		// Every later entry moved down one position; deletion is O(n)
		// already, so re-place every key rather than patch slots. After
		// own the index is this map's alone, so it is refilled in place.
		clear(m.index.slots)
		m.index.fill(m.keys)
	}
}

// SetBoxed inserts or replaces key, which must be an already-boxed scalar
// (string, int64, float64 or bool). Hosts that build many row maps over a
// shared column set box each name once and skip the per-insert conversion
// that used to dominate the evaluation matrix's allocations.
func (m *Map) SetBoxed(key Value, v Value) {
	ks, err := mapKey(key)
	if err != nil {
		return
	}
	if i, ok := m.find(ks); ok {
		m.vals[i] = v
		return
	}
	m.insert(ks, key, v)
}

// MapShape is the key layout shared by many maps with the same keys in the
// same order, such as the rows of one frame: the boxed keys plus, past
// mapIndexThreshold, one hash index built once for all of them.
type MapShape struct {
	keys  []Value
	index *mapIndex
	slots []int // slots[i] is the position of the i-th key given to NewMapShape
}

// NewMapShape returns the layout of a map built by calling SetBoxed with
// keys in order: a repeated key keeps its first position (and the later
// value wins when a caller fills the slots in key order), and an unhashable
// key is dropped.
func NewMapShape(keys []Value) *MapShape {
	s := &MapShape{slots: make([]int, len(keys))}
	layout := &Map{keys: make([]Value, 0, len(keys))}
	for i, k := range keys {
		ks, err := mapKey(k)
		if err != nil {
			s.slots[i] = -1
			continue
		}
		slot, dup := layout.find(ks)
		if !dup {
			slot = len(layout.keys)
			layout.insert(ks, k, nil)
		}
		s.slots[i] = slot
	}
	s.keys, s.index = layout.keys, layout.index
	return s
}

// Len returns the number of distinct keys, the length Map expects.
func (s *MapShape) Len() int { return len(s.keys) }

// Slot returns the value position of the i-th key given to NewMapShape, or
// -1 if that key was dropped as unhashable.
func (s *MapShape) Slot(i int) int { return s.slots[i] }

// Map returns a map with the shape's keys and the given values, which the
// map takes ownership of; len(vals) must equal Len.
func (s *MapShape) Map(vals []Value) *Map {
	if len(vals) != len(s.keys) {
		panic(fmt.Sprintf("nql: MapShape.Map got %d values for %d keys", len(vals), len(s.keys)))
	}
	return &Map{keys: s.keys, vals: vals, index: s.index, shared: true}
}

// Rows returns n maps of the shape, as list items, after fill has stored
// map i's values (Len of them, in slot order) into vals. The maps and
// their values are carved from two allocations; each map's values have
// their capacity clipped, so a key one map adds reallocates instead of
// writing over the next map's values.
func (s *MapShape) Rows(n int, fill func(i int, vals []Value)) []Value {
	w := len(s.keys)
	buf := make([]Value, n*w)
	maps := make([]Map, n)
	items := make([]Value, n)
	for i := range items {
		vals := buf[i*w : (i+1)*w : (i+1)*w]
		fill(i, vals)
		maps[i] = Map{keys: s.keys, vals: vals, index: s.index, shared: true}
		items[i] = &maps[i]
	}
	return items
}

// Len returns the entry count.
func (m *Map) Len() int { return len(m.keys) }

// Keys returns the keys in insertion order (copy).
func (m *Map) Keys() []Value { return append([]Value(nil), m.keys...) }

// Values returns the values in insertion order (copy).
func (m *Map) Values() []Value { return append([]Value(nil), m.vals...) }

// Closure is a user-defined function or lambda: a compiled function proto
// plus the cells of the variables it captured. Interp.Call runs it on the
// VM, so a closure is callable anywhere a function value flows (sorted
// keys, frame.apply, fed.where, ...).
type Closure struct {
	Name  string // "" for lambdas
	proto *FuncProto
	free  []*cell
}

// Builtin is a native function exposed to scripts.
type Builtin struct {
	Name string
	Fn   func(in *Interp, line int, args []Value) (Value, error)
}

// Object is a host-provided value (graph, frame, database, views). Member
// returns an attribute or bound method; returning ok=false produces an
// ErrAttr runtime error, which is how "imaginary attribute" failures of
// generated code surface.
type Object interface {
	TypeName() string
	Member(name string) (Value, bool)
}

// TypeName reports the NQL-visible type of a value.
func TypeName(v Value) string {
	switch x := v.(type) {
	case nil:
		return "nil"
	case bool:
		return "bool"
	case int64:
		return "int"
	case float64:
		return "float"
	case string:
		return "string"
	case *List:
		return "list"
	case *Map:
		return "map"
	case *Closure:
		return "function"
	case *Builtin:
		return "builtin"
	case Object:
		return x.TypeName()
	default:
		return fmt.Sprintf("%T", v)
	}
}

// Truthy implements NQL truthiness: nil/false/0/""/empty containers are
// false.
func Truthy(v Value) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case int64:
		return x != 0
	case float64:
		return x != 0
	case string:
		return x != ""
	case *List:
		return len(x.Items) > 0
	case *Map:
		return x.Len() > 0
	default:
		return true
	}
}

// Repr renders a value for display and result comparison: deterministic,
// with maps in insertion order and floats minimized. A list or map met
// again inside itself, or nested past MaxNesting levels, renders as [...]
// or {...}, so rendering takes time linear in the value's size.
func Repr(v Value) string {
	var buf [64]byte
	var r reprer
	return string(r.append(buf[:0], v))
}

// reprScan is how many of the open lists and maps a reprer scans for a
// repeat; it looks those deeper up in a set.
const reprScan = 8

// reprer tracks the lists and maps open around the value Repr is at:
// depth counts them, open holds the outermost reprScan and deep the rest.
type reprer struct {
	open  [reprScan]Value
	depth int
	deep  map[Value]bool
}

// append appends Repr(v) to b. Scalars are formatted with strconv, which
// gives the bytes fmt's %v, %d, %g and %q give.
func (r *reprer) append(b []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, "nil"...)
	case bool:
		return strconv.AppendBool(b, x)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case float64:
		if x == float64(int64(x)) && x < 1e15 && x > -1e15 {
			return append(strconv.AppendInt(b, int64(x), 10), ".0"...)
		}
		return strconv.AppendFloat(b, x, 'g', -1, 64)
	case string:
		return strconv.AppendQuote(b, x)
	case *List:
		if !r.enter(v) {
			return append(b, "[...]"...)
		}
		b = append(b, '[')
		for i, it := range x.Items {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = r.append(b, it)
		}
		r.leave(v)
		return append(b, ']')
	case *Map:
		if !r.enter(v) {
			return append(b, "{...}"...)
		}
		b = append(b, '{')
		for i, k := range x.keys {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = r.append(b, k)
			b = append(b, ": "...)
			b = r.append(b, x.vals[i])
		}
		r.leave(v)
		return append(b, '}')
	case *Closure:
		name := x.Name
		if name == "" {
			name = "<lambda>"
		}
		return append(append(append(b, "<function "...), name...), '>')
	case *Builtin:
		return append(append(append(b, "<builtin "...), x.Name...), '>')
	case Object:
		if s, ok := x.(fmt.Stringer); ok {
			return append(b, s.String()...)
		}
		return append(append(append(b, '<'), x.TypeName()...), '>')
	default:
		return fmt.Appendf(b, "%v", x)
	}
}

// enter opens the list or map v, or reports false when v is already open
// or MaxNesting lists and maps are.
func (r *reprer) enter(v Value) bool {
	if r.depth < reprScan {
		if slices.Contains(r.open[:r.depth], v) {
			return false
		}
		r.open[r.depth] = v
	} else {
		if r.depth == MaxNesting || slices.Contains(r.open[:], v) || r.deep[v] {
			return false
		}
		if r.deep == nil {
			r.deep = map[Value]bool{}
		}
		r.deep[v] = true
	}
	r.depth++
	return true
}

// leave closes v, the innermost open list or map.
func (r *reprer) leave(v Value) {
	if r.depth--; r.depth >= reprScan {
		delete(r.deep, v)
	}
}

// appendValueKey appends v's key under ==, which unique() dedupes by: a
// scalar's scalar.Key encoding; a list's length and its items' keys; a
// map's length and its entries' key and value keys in key order, since
// == ignores insertion order; and for any other value
// (a closure, builtin or host object), which == compares by identity, a
// number ids assigns it. The framing is length-prefixed and its tags are
// no scalar.Key kind, so two values get the same bytes exactly when ==
// finds them equal. v sits depth levels deep; past MaxNesting (a cyclic
// value) it fails with ErrNesting.
func appendValueKey(b []byte, v Value, ids map[Value]uint64, depth int) ([]byte, error) {
	if k, ok := scalar.KeyOf(v); ok {
		return k.Append(b), nil
	}
	var err error
	switch x := v.(type) {
	case *List:
		if depth == MaxNesting {
			return b, ErrNesting
		}
		b = binary.AppendUvarint(append(b, 'L'), uint64(len(x.Items)))
		for _, it := range x.Items {
			if b, err = appendValueKey(b, it, ids, depth+1); err != nil {
				return b, err
			}
		}
		return b, nil
	case *Map:
		if depth == MaxNesting {
			return b, ErrNesting
		}
		// Entries go in scalar.Compare order of their keys, a total order
		// that ties exactly the keys a dict merges.
		var small [8]int
		order := small[:0]
		for i := range x.keys {
			order = append(order, i)
		}
		slices.SortFunc(order, func(i, j int) int { return scalar.Compare(x.keys[i], x.keys[j]) })
		b = binary.AppendUvarint(append(b, 'M'), uint64(len(x.keys)))
		for _, i := range order {
			if b, err = appendValueKey(b, x.keys[i], ids, depth+1); err != nil {
				return b, err
			}
			if b, err = appendValueKey(b, x.vals[i], ids, depth+1); err != nil {
				return b, err
			}
		}
		return b, nil
	}
	id, ok := ids[v]
	if !ok {
		id = uint64(len(ids))
		ids[v] = id
	}
	return binary.AppendUvarint(append(b, 'I'), id), nil
}

// ToStr renders a value the way str() and print() do: like Repr but without
// quotes around top-level strings.
func ToStr(v Value) string {
	if s, ok := v.(string); ok {
		return s
	}
	return Repr(v)
}
