// Package graph implements an attributed multigraph library in the spirit of
// NetworkX. It is the primary execution substrate for LLM-generated network
// management programs: nodes and edges carry free-form attribute maps, the
// graph may be directed or undirected, and iteration order is deterministic
// (insertion order) so that benchmark runs are reproducible.
//
// Internally nodes are stored under dense integer indices (position in
// insertion order) with slice-based adjacency lists, so the traversal and
// centrality algorithms run over int loops instead of nested string maps.
// Graphs support copy-on-write sharing at two levels. Freeze marks a graph
// as an immutable master whose containers (node order and index, the
// attribute-map slots, edge order and map, adjacency lists) are shared:
// Clone of a shared graph copies only the Graph struct, so it costs the
// same at any size and is safe to call concurrently. The first write to a
// shared graph — a clone, or the master itself written after Freeze —
// copies the containers once (unshare), and from then on individual
// attribute maps are copied before their first write, so graphs never
// observe each other's writes. The map-level bookkeeping records what a
// graph owns rather than what it shares: a frozen master and a fresh clone
// own nothing, so Freeze allocates nothing and a clone's first write pays
// only the container copy, not a per-edge rebuild.
package graph

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
)

// Attrs is a free-form attribute map attached to nodes, edges and the graph
// itself. Values should be one of: nil, bool, int64, float64, string,
// []any, or map[string]any so that equality and JSON round-trips are
// well-defined. The convenience setters normalize Go ints to int64.
type Attrs map[string]any

// Clone returns a shallow copy of the attribute map (nested values are
// shared; callers that mutate nested values should copy them explicitly).
func (a Attrs) Clone() Attrs {
	if a == nil {
		return nil
	}
	out := make(Attrs, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// Normalize converts int-kind values to int64 and float32 to float64 so
// attribute comparisons behave uniformly regardless of the caller's types.
func Normalize(v any) any {
	switch x := v.(type) {
	case int:
		return int64(x)
	case int8:
		return int64(x)
	case int16:
		return int64(x)
	case int32:
		return int64(x)
	case uint:
		return int64(x)
	case uint8:
		return int64(x)
	case uint16:
		return int64(x)
	case uint32:
		return int64(x)
	case uint64:
		return int64(x)
	case float32:
		return float64(x)
	default:
		return v
	}
}

// EdgeKey identifies an edge by its endpoints. In an undirected graph the
// canonical key orders the endpoints lexicographically.
type EdgeKey struct {
	U, V string
}

// Edge is a materialized view of one edge and its attributes.
type Edge struct {
	U, V  string
	Attrs Attrs
}

// Graph is an attributed simple graph (at most one edge per ordered node
// pair; an undirected graph stores each edge once under its canonical key).
// The zero value is not usable; construct with New or NewDirected.
type Graph struct {
	directed bool
	attrs    Attrs

	nodeOrder []string       // insertion order; a node's index is its position here
	nodeIdx   map[string]int // id -> index in nodeOrder
	nodeAttrs []Attrs        // parallel to nodeOrder; entries are never nil

	edgeOrder []EdgeKey
	edges     map[EdgeKey]Attrs

	succ [][]int32 // out-neighbor indices (all neighbors if undirected), insertion order
	pred [][]int32 // in-neighbor indices (mirror of succ if undirected)

	// Copy-on-write bookkeeping. shared means the containers above are
	// shared with other graphs: Freeze sets it, Clone of a shared graph
	// inherits it, and every write path calls unshare first, which copies
	// the containers and clears it. A shared graph therefore owns no
	// attribute map.
	//
	// Attribute maps are tracked as ownership sets. A graph with cow unset
	// owns every attribute map (freshly constructed graphs). With cow set,
	// a map is shared with other graphs — and copied before its first
	// write — unless the graph owns it: nodeOwned[i] for nodeAttrs[i]
	// (parallel to nodeOrder once unshared), membership in edgeOwned for
	// edges[k], and attrsOwned for the graph-level map. Freeze and unshare
	// start with nothing owned, so edgeOwned stays nil until the graph
	// writes to (or adds) its first edge; new nodes and edges, and maps a
	// write copied, join the owned sets.
	shared     bool
	cow        bool
	nodeOwned  []bool
	edgeOwned  map[EdgeKey]struct{}
	attrsOwned bool

	// keys holds the sorted attribute-key unions, derived on first use
	// while the graph is shared and then read by every graph sharing the
	// same containers: Clone of a shared graph copies the pointer, and
	// every graph that owns its containers (new, unshared, deep-cloned)
	// gets a fresh one, so Freeze allocates nothing.
	keys *attrKeys

	// version counts structural changes (node/edge insertions and
	// removals, not attribute writes), letting bindings cache derived
	// node/edge listings safely.
	version uint64
}

// Version returns a counter that changes whenever the node or edge set
// changes (attribute writes do not affect it). Caches of derived listings
// are valid while the version is unchanged.
func (g *Graph) Version() uint64 { return g.version }

// New returns an empty undirected graph.
func New() *Graph { return newGraph(false) }

// NewDirected returns an empty directed graph.
func NewDirected() *Graph { return newGraph(true) }

func newGraph(directed bool) *Graph {
	return &Graph{
		directed: directed,
		attrs:    Attrs{},
		nodeIdx:  map[string]int{},
		edges:    map[EdgeKey]Attrs{},
		keys:     &attrKeys{},
	}
}

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// GraphAttrs returns the graph-level attribute map (mutable).
func (g *Graph) GraphAttrs() Attrs {
	g.unshare()
	if g.cow && !g.attrsOwned {
		g.attrs = g.attrs.Clone()
		if g.attrs == nil {
			g.attrs = Attrs{}
		}
		g.attrsOwned = true
	}
	return g.attrs
}

func (g *Graph) key(u, v string) EdgeKey {
	if !g.directed && u > v {
		u, v = v, u
	}
	return EdgeKey{U: u, V: v}
}

// Freeze turns g into an immutable master: its containers and attribute
// maps become shared, so subsequent Clone calls copy only the Graph struct
// (and are safe to issue from multiple goroutines), while the first write
// to any graph sharing them — g or any clone — copies the containers once
// and then each attribute map before its first write, so no graph ever
// observes another's mutations. Freeze itself must not race with writes to
// g, and allocates nothing: g stops owning anything.
// A frozen graph and its unwritten clones also share their attribute-key
// unions (NodeAttrKeys, EdgeAttrKeys), derived on first use.
//
// Freeze is incremental: a master extended with further nodes or edges
// (e.g. by applying streamed batches or Merge) can be re-frozen. The first
// write after Freeze copies the master's containers once, so clones taken
// earlier keep the containers they share and never observe the extension;
// re-freezing marks the newly added maps shared for future clones.
func (g *Graph) Freeze() {
	g.shared = true
	g.cow = true
	g.nodeOwned = nil
	g.edgeOwned = nil
	g.attrsOwned = false
}

// unshare gives g private copies of its containers before a write when
// they are shared with other graphs. The attribute maps themselves stay
// shared (nothing is owned yet); ownNode and ownEdge copy them one by one.
func (g *Graph) unshare() {
	if !g.shared {
		return
	}
	g.nodeOrder = slices.Clone(g.nodeOrder)
	g.nodeIdx = maps.Clone(g.nodeIdx)
	g.nodeAttrs = slices.Clone(g.nodeAttrs)
	g.edgeOrder = slices.Clone(g.edgeOrder)
	g.edges = maps.Clone(g.edges)
	g.succ = cloneAdjacency(g.succ)
	g.pred = cloneAdjacency(g.pred)
	g.nodeOwned = make([]bool, len(g.nodeOrder))
	g.edgeOwned = nil
	g.shared = false
	g.keys = &attrKeys{}
}

// ownNode ensures nodeAttrs[i] is exclusively owned before a write.
func (g *Graph) ownNode(i int) {
	g.unshare()
	if g.cow && !g.nodeOwned[i] {
		g.nodeAttrs[i] = g.nodeAttrs[i].Clone()
		g.nodeOwned[i] = true
	}
}

// ownEdge ensures edges[k] is exclusively owned before a write.
func (g *Graph) ownEdge(k EdgeKey) {
	g.unshare()
	if !g.cow {
		return
	}
	if _, owned := g.edgeOwned[k]; owned {
		return
	}
	g.edges[k] = g.edges[k].Clone()
	g.markEdgeOwned(k)
}

// markEdgeOwned adds k to the owned edge set, creating it on first use.
func (g *Graph) markEdgeOwned(k EdgeKey) {
	if g.edgeOwned == nil {
		g.edgeOwned = make(map[EdgeKey]struct{})
	}
	g.edgeOwned[k] = struct{}{}
}

// AddNode inserts a node if absent and merges attrs into its attribute map.
func (g *Graph) AddNode(id string, attrs Attrs) {
	i, ok := g.nodeIdx[id]
	if !ok {
		g.unshare()
		g.version++
		i = len(g.nodeOrder)
		g.nodeIdx[id] = i
		g.nodeOrder = append(g.nodeOrder, id)
		g.nodeAttrs = append(g.nodeAttrs, Attrs{})
		g.succ = append(g.succ, nil)
		g.pred = append(g.pred, nil)
		if g.cow {
			g.nodeOwned = append(g.nodeOwned, true)
		}
	}
	if len(attrs) == 0 {
		return
	}
	g.ownNode(i)
	cur := g.nodeAttrs[i]
	for k, v := range attrs {
		cur[k] = Normalize(v)
	}
}

// HasNode reports whether id exists in the graph.
func (g *Graph) HasNode(id string) bool {
	_, ok := g.nodeIdx[id]
	return ok
}

// NodeIndex returns id's position in Nodes() order, read from the node
// index without copying or taking ownership of anything; ok is false if
// id is absent.
func (g *Graph) NodeIndex(id string) (i int, ok bool) {
	i, ok = g.nodeIdx[id]
	return i, ok
}

// NodeAttrs returns the attribute map for id, or nil if id is absent. The
// returned map is live: mutations are visible in the graph.
func (g *Graph) NodeAttrs(id string) Attrs {
	i, ok := g.nodeIdx[id]
	if !ok {
		return nil
	}
	g.ownNode(i) // the caller may write through the returned map
	return g.nodeAttrs[i]
}

// NodeAttrsView returns the attribute map for id for read-only use, or nil
// if id is absent. Unlike NodeAttrs it does not take ownership of a shared
// (copy-on-write) map, so the caller must not mutate the result; use it
// for read paths that would otherwise force a copy of every map they
// touch.
func (g *Graph) NodeAttrsView(id string) Attrs { return g.nodeViewByID(id) }

// EdgeAttrsView returns the attribute map of edge u,v for read-only use,
// or nil if absent, without taking ownership of a shared map.
func (g *Graph) EdgeAttrsView(u, v string) Attrs { return g.edges[g.key(u, v)] }

// nodeView returns the attribute map for a node index without taking
// ownership. For package-internal read-only paths (equality, rendering,
// serialization) that must not defeat copy-on-write sharing.
func (g *Graph) nodeView(i int) Attrs { return g.nodeAttrs[i] }

// nodeViewByID is nodeView keyed by id; nil when absent.
func (g *Graph) nodeViewByID(id string) Attrs {
	if i, ok := g.nodeIdx[id]; ok {
		return g.nodeAttrs[i]
	}
	return nil
}

// edgeView returns an edge's attribute map without taking ownership.
func (g *Graph) edgeView(k EdgeKey) Attrs { return g.edges[k] }

// SetNodeAttr sets one attribute on an existing node. It returns an error if
// the node does not exist — mirroring the "imaginary attribute/node" failure
// mode the benchmark must surface.
func (g *Graph) SetNodeAttr(id, key string, value any) error {
	i, ok := g.nodeIdx[id]
	if !ok {
		return fmt.Errorf("graph: node %q does not exist", id)
	}
	g.ownNode(i)
	g.nodeAttrs[i][key] = Normalize(value)
	return nil
}

// RemoveNode deletes a node and every incident edge. Removing an absent node
// is an error (NetworkX raises too).
func (g *Graph) RemoveNode(id string) error {
	i, ok := g.nodeIdx[id]
	if !ok {
		return fmt.Errorf("graph: node %q does not exist", id)
	}
	g.unshare()
	// Collect incident edges first to avoid mutating while iterating.
	var doomed []EdgeKey
	for k := range g.edges {
		if k.U == id || k.V == id {
			doomed = append(doomed, k)
		}
	}
	for _, k := range doomed {
		g.removeEdgeKey(k)
	}
	g.version++
	delete(g.nodeIdx, id)
	g.nodeOrder = append(g.nodeOrder[:i], g.nodeOrder[i+1:]...)
	g.nodeAttrs = append(g.nodeAttrs[:i], g.nodeAttrs[i+1:]...)
	g.succ = append(g.succ[:i], g.succ[i+1:]...)
	g.pred = append(g.pred[:i], g.pred[i+1:]...)
	if g.cow {
		g.nodeOwned = append(g.nodeOwned[:i], g.nodeOwned[i+1:]...)
	}
	// Reindex: nodes after position i shift down by one, and every
	// adjacency entry referencing a higher index must follow.
	for j := i; j < len(g.nodeOrder); j++ {
		g.nodeIdx[g.nodeOrder[j]] = j
	}
	ri := int32(i)
	for n := range g.succ {
		shiftIndices(g.succ[n], ri)
		shiftIndices(g.pred[n], ri)
	}
	return nil
}

func shiftIndices(s []int32, removed int32) {
	for j, v := range s {
		if v > removed {
			s[j] = v - 1
		}
	}
}

// AddEdge inserts an edge (creating endpoints if necessary) and merges attrs.
func (g *Graph) AddEdge(u, v string, attrs Attrs) {
	g.AddNode(u, nil)
	g.AddNode(v, nil)
	k := g.key(u, v)
	cur, ok := g.edges[k]
	if !ok {
		g.unshare()
		g.version++
		cur = Attrs{}
		g.edges[k] = cur
		g.edgeOrder = append(g.edgeOrder, k)
		if g.cow {
			g.markEdgeOwned(k)
		}
		ui, vi := g.nodeIdx[u], g.nodeIdx[v]
		g.succ[ui] = append(g.succ[ui], int32(vi))
		g.pred[vi] = append(g.pred[vi], int32(ui))
		if !g.directed && ui != vi {
			g.succ[vi] = append(g.succ[vi], int32(ui))
			g.pred[ui] = append(g.pred[ui], int32(vi))
		}
	}
	if len(attrs) == 0 {
		return
	}
	g.ownEdge(k)
	cur = g.edges[k]
	for a, val := range attrs {
		cur[a] = Normalize(val)
	}
}

// HasEdge reports whether the edge u->v (or u—v when undirected) exists.
func (g *Graph) HasEdge(u, v string) bool {
	_, ok := g.edges[g.key(u, v)]
	return ok
}

// EdgeAttrs returns the live attribute map of edge u,v or nil if absent.
func (g *Graph) EdgeAttrs(u, v string) Attrs {
	k := g.key(u, v)
	if _, ok := g.edges[k]; !ok {
		return nil
	}
	g.ownEdge(k) // the caller may write through the returned map
	return g.edges[k]
}

// SetEdgeAttr sets one attribute on an existing edge.
func (g *Graph) SetEdgeAttr(u, v, key string, value any) error {
	k := g.key(u, v)
	if _, ok := g.edges[k]; !ok {
		return fmt.Errorf("graph: edge (%q,%q) does not exist", u, v)
	}
	g.ownEdge(k)
	g.edges[k][key] = Normalize(value)
	return nil
}

// RemoveEdge deletes the edge u,v. Removing an absent edge is an error.
func (g *Graph) RemoveEdge(u, v string) error {
	k := g.key(u, v)
	if _, ok := g.edges[k]; !ok {
		return fmt.Errorf("graph: edge (%q,%q) does not exist", u, v)
	}
	g.unshare()
	g.removeEdgeKey(k)
	return nil
}

func (g *Graph) removeEdgeKey(k EdgeKey) {
	g.version++
	delete(g.edges, k)
	delete(g.edgeOwned, k)
	for i, e := range g.edgeOrder {
		if e == k {
			g.edgeOrder = append(g.edgeOrder[:i], g.edgeOrder[i+1:]...)
			break
		}
	}
	ui, uok := g.nodeIdx[k.U]
	vi, vok := g.nodeIdx[k.V]
	if !uok || !vok {
		return
	}
	g.succ[ui] = removeIndex(g.succ[ui], int32(vi))
	g.pred[vi] = removeIndex(g.pred[vi], int32(ui))
	if !g.directed && ui != vi {
		g.succ[vi] = removeIndex(g.succ[vi], int32(ui))
		g.pred[ui] = removeIndex(g.pred[ui], int32(vi))
	}
}

func removeIndex(s []int32, x int32) []int32 {
	for i, v := range s {
		if v == x {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// Nodes returns node IDs in insertion order. The slice is a copy.
func (g *Graph) Nodes() []string {
	out := make([]string, len(g.nodeOrder))
	copy(out, g.nodeOrder)
	return out
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodeOrder) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edges returns materialized edges in insertion order. Attribute maps are
// live references the caller may write through, so shared (copy-on-write)
// maps are copied first; read-only iteration should use EdgesView.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.edgeOrder))
	for _, k := range g.edgeOrder {
		g.ownEdge(k) // the caller may write through Edge.Attrs
		out = append(out, Edge{U: k.U, V: k.V, Attrs: g.edges[k]})
	}
	return out
}

// EdgesView returns materialized edges in insertion order without taking
// ownership of shared attribute maps. The caller must not mutate
// Edge.Attrs; use it for read paths (serialization, frame building) that
// would otherwise force a copy of every edge map.
func (g *Graph) EdgesView() []Edge {
	out := make([]Edge, 0, len(g.edgeOrder))
	for _, k := range g.edgeOrder {
		out = append(out, Edge{U: k.U, V: k.V, Attrs: g.edges[k]})
	}
	return out
}

// attrKeys is the sorted union of the node attribute keys and that of
// the edge attribute keys of the graphs that share one set of containers.
type attrKeys struct {
	nodeOnce, edgeOnce sync.Once
	nodes, edges       []string
}

// NodeAttrKeys returns the sorted union of the node attribute keys. A
// frozen master and its unwritten clones derive it once and share it; a
// graph that owns its containers derives it on every call. The caller
// must not modify the slice.
func (g *Graph) NodeAttrKeys() []string {
	union := func() []string {
		seen := map[string]bool{}
		for _, a := range g.nodeAttrs {
			addKeys(seen, a)
		}
		return sortedKeys(seen)
	}
	if k := g.keys; g.shared && k != nil {
		k.nodeOnce.Do(func() { k.nodes = union() })
		return k.nodes
	}
	return union()
}

// EdgeAttrKeys is NodeAttrKeys for the edge attribute keys.
func (g *Graph) EdgeAttrKeys() []string {
	union := func() []string {
		seen := map[string]bool{}
		for _, a := range g.edges {
			addKeys(seen, a)
		}
		return sortedKeys(seen)
	}
	if k := g.keys; g.shared && k != nil {
		k.edgeOnce.Do(func() { k.edges = union() })
		return k.edges
	}
	return union()
}

func addKeys(seen map[string]bool, a Attrs) {
	for k := range a {
		seen[k] = true
	}
}

func sortedKeys(seen map[string]bool) []string {
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Neighbors returns the out-neighbors of id (all neighbors when undirected),
// sorted lexicographically for determinism.
func (g *Graph) Neighbors(id string) []string {
	i, ok := g.nodeIdx[id]
	if !ok {
		return []string{}
	}
	return g.idsOf(g.succ[i])
}

// Predecessors returns the in-neighbors of id (same as Neighbors when
// undirected), sorted.
func (g *Graph) Predecessors(id string) []string {
	i, ok := g.nodeIdx[id]
	if !ok {
		return []string{}
	}
	return g.idsOf(g.pred[i])
}

// idsOf maps node indices to their IDs, sorted lexicographically.
func (g *Graph) idsOf(adj []int32) []string {
	out := make([]string, len(adj))
	for j, v := range adj {
		out[j] = g.nodeOrder[v]
	}
	sort.Strings(out)
	return out
}

// Degree returns the degree of id: total degree for undirected graphs,
// in+out degree for directed graphs.
func (g *Graph) Degree(id string) int {
	i, ok := g.nodeIdx[id]
	if !ok {
		return 0
	}
	if g.directed {
		return len(g.succ[i]) + len(g.pred[i])
	}
	d := len(g.succ[i])
	if g.HasEdge(id, id) {
		d++ // NetworkX counts self-loops twice in undirected degree.
	}
	return d
}

// InDegree returns the in-degree (undirected graphs: same as Degree).
func (g *Graph) InDegree(id string) int {
	if !g.directed {
		return g.Degree(id)
	}
	if i, ok := g.nodeIdx[id]; ok {
		return len(g.pred[i])
	}
	return 0
}

// OutDegree returns the out-degree (undirected graphs: same as Degree).
func (g *Graph) OutDegree(id string) int {
	if !g.directed {
		return g.Degree(id)
	}
	if i, ok := g.nodeIdx[id]; ok {
		return len(g.succ[i])
	}
	return 0
}

// Clone returns a deep copy of the graph (attribute maps are copied one
// level deep, matching Attrs.Clone). Cloning a frozen graph — or an
// unwritten clone of one — copies only the Graph struct: containers and
// attribute maps stay shared until the clone's first write, which copies
// the containers once and then each attribute map it writes. That makes
// cloning an immutable master cheap at any size and safe to do from many
// goroutines at once. Cloning a graph that was written after sharing copies
// its containers now, sharing every attribute map the source shares and
// copying the ones it owns.
func (g *Graph) Clone() *Graph {
	if g.shared {
		// A shared graph owns no map, the graph-level one included: every
		// write path, GraphAttrs too, unshares first.
		c := *g
		if c.attrs == nil {
			c.attrs = Attrs{}
		}
		return &c
	}
	c := &Graph{
		directed:  g.directed,
		version:   g.version,
		cow:       g.cow,
		nodeOrder: slices.Clone(g.nodeOrder),
		nodeIdx:   maps.Clone(g.nodeIdx),
		nodeAttrs: slices.Clone(g.nodeAttrs),
		edgeOrder: slices.Clone(g.edgeOrder),
		edges:     maps.Clone(g.edges),
		succ:      cloneAdjacency(g.succ),
		pred:      cloneAdjacency(g.pred),
		keys:      &attrKeys{},
	}
	if g.cow {
		// COW mode: the clone shares every map the source shares, and gets
		// (and owns) a copy of every map the source owns.
		c.nodeOwned = slices.Clone(g.nodeOwned)
		for i, owned := range g.nodeOwned {
			if owned {
				c.nodeAttrs[i] = g.nodeAttrs[i].Clone()
			}
		}
		if len(g.edgeOwned) > 0 {
			c.edgeOwned = make(map[EdgeKey]struct{}, len(g.edgeOwned))
			for k := range g.edgeOwned {
				c.edges[k] = g.edges[k].Clone()
				c.edgeOwned[k] = struct{}{}
			}
		}
		c.attrs, c.attrsOwned = g.attrs, g.attrsOwned
		if g.attrsOwned {
			c.attrs = g.attrs.Clone()
		}
	} else {
		for i, a := range c.nodeAttrs {
			c.nodeAttrs[i] = a.Clone()
		}
		for k, a := range c.edges {
			c.edges[k] = a.Clone()
		}
		c.attrs = g.attrs.Clone()
	}
	if c.attrs == nil {
		c.attrs = Attrs{}
	}
	return c
}

// cloneAdjacency deep-copies adjacency lists into one shared backing array.
func cloneAdjacency(adj [][]int32) [][]int32 {
	total := 0
	for _, a := range adj {
		total += len(a)
	}
	out := make([][]int32, len(adj))
	backing := make([]int32, total)
	off := 0
	for i, a := range adj {
		if len(a) == 0 {
			continue
		}
		end := off + len(a)
		copy(backing[off:end], a)
		out[i] = backing[off:end:end]
		off = end
	}
	return out
}

// Merge unions other's nodes and edges into g: nodes and edges absent from
// g are appended in other's insertion order, and attribute maps are merged
// key-by-key with other's values winning. Merge reads other through
// read-only views, so merging from a frozen master (or a clone of one)
// never defeats its copy-on-write sharing; the written maps in g are owned
// copies. Merging shard-level subgraphs that were partitioned from one
// stream reassembles the full graph.
func (g *Graph) Merge(other *Graph) {
	for i, id := range other.nodeOrder {
		g.AddNode(id, other.nodeView(i))
	}
	for _, k := range other.edgeOrder {
		g.AddEdge(k.U, k.V, other.edgeView(k))
	}
}

// Subgraph returns a new graph induced by keep: it contains every listed
// node present in g and every edge whose endpoints are both kept.
func (g *Graph) Subgraph(keep []string) *Graph {
	in := make(map[string]bool, len(keep))
	for _, n := range keep {
		if g.HasNode(n) {
			in[n] = true
		}
	}
	s := newGraph(g.directed)
	for _, n := range g.nodeOrder {
		if in[n] {
			s.AddNode(n, g.nodeViewByID(n))
		}
	}
	for _, k := range g.edgeOrder {
		if in[k.U] && in[k.V] {
			s.AddEdge(k.U, k.V, g.edges[k])
		}
	}
	return s
}

// Reverse returns a copy of a directed graph with all edges reversed; for an
// undirected graph it is equivalent to Clone.
func (g *Graph) Reverse() *Graph {
	if !g.directed {
		return g.Clone()
	}
	r := newGraph(true)
	r.attrs = g.attrs.Clone()
	for _, n := range g.nodeOrder {
		r.AddNode(n, g.nodeViewByID(n))
	}
	for _, k := range g.edgeOrder {
		r.AddEdge(k.V, k.U, g.edges[k])
	}
	return r
}

// String summarizes the graph, e.g. "DiGraph(12 nodes, 30 edges)".
func (g *Graph) String() string {
	kind := "Graph"
	if g.directed {
		kind = "DiGraph"
	}
	return fmt.Sprintf("%s(%d nodes, %d edges)", kind, g.NumNodes(), g.NumEdges())
}
