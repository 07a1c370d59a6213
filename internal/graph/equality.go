package graph

import (
	"fmt"
	"reflect"
	"sort"
	"strings"

	"repro/internal/scalar"
)

// Equal reports whether two graphs are identical: same directedness, node
// set, edge set, and attribute maps (deep value equality after
// normalization). Insertion order is deliberately ignored. Equal(a, b) is
// always Diff(a, b) == "", but it stops at the first difference and builds
// no message.
//
// Its cost follows what the two graphs wrote, not their size. Two graphs
// can share a container or an attribute map only through a frozen master,
// because every write path unshares or owns first, so a shared one holds
// the same values on both sides, and ValueEqual finds every value equal to
// itself (a NaN too). So a shared node list compares index by index
// without lookups, a shared node attribute slice or edge map is skipped
// whole, and so is every attribute map the two graphs share.
func Equal(a, b *Graph) bool {
	if a.directed != b.directed || len(a.nodeOrder) != len(b.nodeOrder) || len(a.edges) != len(b.edges) {
		return false
	}
	if !attrsEqual(a.attrs, b.attrs) || !nodesEqual(a, b) {
		return false
	}
	if sameMap(a.edges, b.edges) {
		return true
	}
	// Equal edge counts: every edge of a found in b means the same set.
	for k, av := range a.edges {
		bv, ok := b.edges[k]
		if !ok || !attrsEqual(av, bv) {
			return false
		}
	}
	return true
}

// nodesEqual compares the node sets and attributes of two graphs with
// equal node counts.
func nodesEqual(a, b *Graph) bool {
	if len(a.nodeOrder) == 0 {
		return true
	}
	if &a.nodeOrder[0] != &b.nodeOrder[0] {
		// Equal node counts: every node of a found in b means the same set.
		for i, id := range a.nodeOrder {
			j, ok := b.nodeIdx[id]
			if !ok || !attrsEqual(a.nodeAttrs[i], b.nodeAttrs[j]) {
				return false
			}
		}
		return true
	}
	// One node list: node i is the same node in both graphs.
	if &a.nodeAttrs[0] == &b.nodeAttrs[0] {
		return true
	}
	for i, am := range a.nodeAttrs {
		if !attrsEqual(am, b.nodeAttrs[i]) {
			return false
		}
	}
	return true
}

// attrsEqual is ValueEqual on two attribute maps, skipping one map shared
// by both sides.
func attrsEqual(a, b Attrs) bool {
	if sameMap(a, b) {
		return true
	}
	return ValueEqual(map[string]any(a), map[string]any(b))
}

// sameMap reports whether a and b are one map, without allocating.
func sameMap[M ~map[K]V, K comparable, V any](a, b M) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

// Diff returns a human-readable description of the first few differences
// between two graphs (at most diffLimit), or "" when they are equal. The
// benchmark evaluator calls it only to explain a "graphs are not
// identical" failure that Equal already found. Like Equal, it skips every
// attribute map the two graphs share, and it stops as soon as it holds
// diffLimit entries.
func Diff(a, b *Graph) string {
	return strings.Join(diffEntries(a, b), "; ")
}

// diffLimit is the most differences Diff reports.
const diffLimit = 8

func diffEntries(a, b *Graph) []string {
	var diffs []string
	// add records one difference and reports whether Diff has enough.
	add := func(format string, args ...any) bool {
		diffs = append(diffs, fmt.Sprintf(format, args...))
		return len(diffs) == diffLimit
	}
	if a.directed != b.directed && add("directedness differs: %v vs %v", a.directed, b.directed) {
		return diffs
	}
	if !attrsEqual(a.attrs, b.attrs) && add("graph attributes differ") {
		return diffs
	}
	for i, n := range a.nodeOrder {
		battrs := b.nodeViewByID(n)
		if battrs == nil {
			if add("node %q missing from second graph", n) {
				return diffs
			}
			continue
		}
		if !attrsEqual(a.nodeView(i), battrs) && add("node %q attributes differ: %v vs %v", n, a.nodeView(i), battrs) {
			return diffs
		}
	}
	for _, n := range b.nodeOrder {
		if !a.HasNode(n) && add("node %q missing from first graph", n) {
			return diffs
		}
	}
	for k, av := range a.edges {
		bv, ok := b.edges[k]
		if !ok {
			if add("edge (%q,%q) missing from second graph", k.U, k.V) {
				return diffs
			}
			continue
		}
		if !attrsEqual(av, bv) && add("edge (%q,%q) attributes differ: %v vs %v", k.U, k.V, av, bv) {
			return diffs
		}
	}
	for k := range b.edges {
		if _, ok := a.edges[k]; !ok && add("edge (%q,%q) missing from first graph", k.U, k.V) {
			return diffs
		}
	}
	return diffs
}

// ValueEqual compares two attribute-style values deeply after normalization.
// Scalars compare under scalar.Equal: int64 and float64 of one value are
// equal (generated code frequently mixes them), as are -0 and 0, and a NaN
// equals a NaN. Lists compare element-wise; maps compare key-wise.
func ValueEqual(a, b any) bool {
	a, b = Normalize(a), Normalize(b)
	switch x := a.(type) {
	case nil, bool, string, int64, float64:
		return scalar.Equal(a, b)
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !ValueEqual(x[i], y[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		y, ok := toStringMap(b)
		if !ok {
			return false
		}
		if len(x) != len(y) {
			return false
		}
		for k, v := range x {
			w, ok := y[k]
			if !ok || !ValueEqual(v, w) {
				return false
			}
		}
		return true
	default:
		// Attrs and other map aliases.
		if m, ok := toStringMap(a); ok {
			return ValueEqual(m, b)
		}
		return fmt.Sprintf("%v", a) == fmt.Sprintf("%v", b)
	}
}

func toStringMap(v any) (map[string]any, bool) {
	switch m := v.(type) {
	case map[string]any:
		return m, true
	case Attrs:
		return map[string]any(m), true
	default:
		return nil, false
	}
}

// Fingerprint returns a canonical string capturing the full graph content:
// useful in tests and for hashing results.
func (g *Graph) Fingerprint() string {
	var sb strings.Builder
	if g.directed {
		sb.WriteString("digraph\n")
	} else {
		sb.WriteString("graph\n")
	}
	nodes := g.Nodes()
	sort.Strings(nodes)
	for _, n := range nodes {
		sb.WriteString("n ")
		sb.WriteString(n)
		sb.WriteString(" ")
		sb.WriteString(canonAttrs(g.nodeViewByID(n)))
		sb.WriteString("\n")
	}
	keys := make([]EdgeKey, 0, len(g.edges))
	for k := range g.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].U != keys[j].U {
			return keys[i].U < keys[j].U
		}
		return keys[i].V < keys[j].V
	})
	for _, k := range keys {
		fmt.Fprintf(&sb, "e %s %s %s\n", k.U, k.V, canonAttrs(g.edges[k]))
	}
	return sb.String()
}

func canonAttrs(a Attrs) string {
	if len(a) == 0 {
		return "{}"
	}
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString("{")
	for i, k := range keys {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "%s=%s", k, CanonValue(a[k]))
	}
	sb.WriteString("}")
	return sb.String()
}

// CanonValue renders a value canonically (maps sorted by key, floats that
// are integral rendered without decimals) for fingerprinting.
func CanonValue(v any) string {
	switch x := Normalize(v).(type) {
	case nil:
		return "nil"
	case bool:
		return fmt.Sprintf("%v", x)
	case string:
		return fmt.Sprintf("%q", x)
	case int64:
		return fmt.Sprintf("%d", x)
	case float64:
		if x == float64(int64(x)) {
			return fmt.Sprintf("%d", int64(x))
		}
		return fmt.Sprintf("%g", x)
	case []any:
		parts := make([]string, len(x))
		for i, e := range x {
			parts[i] = CanonValue(e)
		}
		return "[" + strings.Join(parts, ",") + "]"
	case map[string]any:
		return canonAttrs(Attrs(x))
	case Attrs:
		return canonAttrs(x)
	default:
		return fmt.Sprintf("%v", x)
	}
}
