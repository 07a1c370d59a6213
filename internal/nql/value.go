package nql

import (
	"fmt"
	"math"
	"strings"
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
// bool). Generated programs use maps pervasively (attribute dicts, grouped
// results), and insertion order keeps outputs deterministic.
//
// Small maps (the millions of per-row attribute dicts the evaluation matrix
// builds) stay index-free and resolve keys by linear scan; the hash index
// is built lazily once a map outgrows mapIndexThreshold.
//
// A map made by MapShape.Map shares its keys and index with every other
// map of that shape (the rows of one frame) and owns only its values.
// Overwriting an existing key writes the map's own values; the first
// insert or delete copies the keys and index, so the map stops sharing.
type Map struct {
	keys   []Value
	vals   []Value
	index  map[mkey]int // nil while small
	shared bool         // keys and index belong to a MapShape
}

// mapIndexThreshold is the entry count beyond which a Map switches from
// linear key scans to a hash index.
const mapIndexThreshold = 8

// NewMap returns an empty Map.
func NewMap() *Map { return &Map{} }

// NewMapCap returns an empty Map preallocated for n entries: keys and
// values share one backing allocation and no index is built until needed.
func NewMapCap(n int) *Map {
	buf := make([]Value, 2*n)
	return &Map{keys: buf[0:0:n], vals: buf[n : n : 2*n]}
}

// mkey is the comparable hash key for a Map entry. Numbers are keyed by the
// float64 bit pattern of their value, so int64 and float64 of equal
// magnitude collide (NQL semantics) while -0.0 and NaN keep their historic
// identities; building one never allocates, unlike the old formatted-string
// keys that dominated the evaluation matrix's allocation profile.
type mkey struct {
	bits uint64
	str  string
	kind uint8 // 1 string, 2 number, 3 bool
}

func mapKey(k Value) (mkey, error) {
	switch x := k.(type) {
	case string:
		return mkey{kind: 1, str: x}, nil
	case int64:
		return mkey{kind: 2, bits: math.Float64bits(float64(x))}, nil
	case float64:
		return mkey{kind: 2, bits: math.Float64bits(x)}, nil
	case bool:
		var b uint64
		if x {
			b = 1
		}
		return mkey{kind: 3, bits: b}, nil
	default:
		return mkey{}, fmt.Errorf("unhashable map key of type %s", TypeName(k))
	}
}

// find locates the entry for a hashable key. Stored keys are always
// hashable, and mapKey's zero value carries kind 0, so the error-discarding
// scan can never produce a false match.
func (m *Map) find(ks mkey) (int, bool) {
	if m.index != nil {
		i, ok := m.index[ks]
		return i, ok
	}
	for i, k := range m.keys {
		if mk, _ := mapKey(k); mk == ks {
			return i, true
		}
	}
	return 0, false
}

func (m *Map) buildIndex() {
	m.index = make(map[mkey]int, 2*len(m.keys))
	for i, k := range m.keys {
		ks, _ := mapKey(k)
		m.index[ks] = i
	}
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
func (m *Map) insert(ks mkey, k, v Value) {
	m.own()
	if m.index == nil && len(m.keys) >= mapIndexThreshold {
		m.buildIndex()
	}
	if m.index != nil {
		m.index[ks] = len(m.keys)
	}
	m.keys = append(m.keys, k)
	m.vals = append(m.vals, v)
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
	if m.index == nil {
		return
	}
	delete(m.index, ks)
	for j := i; j < len(m.keys); j++ {
		js, _ := mapKey(m.keys[j])
		m.index[js] = j
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
	index map[mkey]int
	slots []int // slots[i] is the position of the i-th key given to NewMapShape
}

// NewMapShape returns the layout of a map built by calling SetBoxed with
// keys in order: a repeated key keeps its first position (and the later
// value wins when a caller fills the slots in key order), and an unhashable
// key is dropped.
func NewMapShape(keys []Value) *MapShape {
	s := &MapShape{keys: make([]Value, 0, len(keys)), slots: make([]int, len(keys))}
	seen := make(map[mkey]int, len(keys))
	for i, k := range keys {
		ks, err := mapKey(k)
		if err != nil {
			s.slots[i] = -1
			continue
		}
		slot, dup := seen[ks]
		if !dup {
			slot = len(s.keys)
			seen[ks] = slot
			s.keys = append(s.keys, k)
		}
		s.slots[i] = slot
	}
	if len(s.keys) > mapIndexThreshold {
		s.index = seen
	}
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
// with maps in insertion order and floats minimized.
func Repr(v Value) string {
	var sb strings.Builder
	writeRepr(&sb, v)
	return sb.String()
}

func writeRepr(sb *strings.Builder, v Value) {
	switch x := v.(type) {
	case nil:
		sb.WriteString("nil")
	case bool:
		fmt.Fprintf(sb, "%v", x)
	case int64:
		fmt.Fprintf(sb, "%d", x)
	case float64:
		if x == float64(int64(x)) && x < 1e15 && x > -1e15 {
			fmt.Fprintf(sb, "%d.0", int64(x))
		} else {
			fmt.Fprintf(sb, "%g", x)
		}
	case string:
		fmt.Fprintf(sb, "%q", x)
	case *List:
		sb.WriteString("[")
		for i, it := range x.Items {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeRepr(sb, it)
		}
		sb.WriteString("]")
	case *Map:
		sb.WriteString("{")
		for i, k := range x.keys {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeRepr(sb, k)
			sb.WriteString(": ")
			writeRepr(sb, x.vals[i])
		}
		sb.WriteString("}")
	case *Closure:
		name := x.Name
		if name == "" {
			name = "<lambda>"
		}
		fmt.Fprintf(sb, "<function %s>", name)
	case *Builtin:
		fmt.Fprintf(sb, "<builtin %s>", x.Name)
	case Object:
		if s, ok := x.(fmt.Stringer); ok {
			sb.WriteString(s.String())
		} else {
			fmt.Fprintf(sb, "<%s>", x.TypeName())
		}
	default:
		fmt.Fprintf(sb, "%v", x)
	}
}

// ToStr renders a value the way str() and print() do: like Repr but without
// quotes around top-level strings.
func ToStr(v Value) string {
	if s, ok := v.(string); ok {
		return s
	}
	return Repr(v)
}
