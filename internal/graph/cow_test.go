package graph

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// cowMaster builds a directed graph of n nodes with k out-edges each (edge
// i -> i+1..i+k mod n, all distinct), every node and edge carrying attrs.
func cowMaster(n, k int) *Graph {
	g := NewDirected()
	id := func(i int) string { return fmt.Sprintf("n%04d", i) }
	for i := 0; i < n; i++ {
		g.AddNode(id(i), Attrs{"ip": fmt.Sprintf("10.0.%d.%d", i/256, i%256)})
	}
	for i := 0; i < n; i++ {
		for j := 1; j <= k; j++ {
			g.AddEdge(id(i), id((i+j)%n), Attrs{"bytes": int64(i*k + j)})
		}
	}
	return g
}

// TestFreezeAllocatesPerNodeNotPerEdge pins the cost of Freeze: it flips
// the sharing flags and scans the attribute values for NaN, so freezing a
// 600-node, 6000-edge master allocates nothing at all.
func TestFreezeAllocatesPerNodeNotPerEdge(t *testing.T) {
	g := cowMaster(600, 10)
	if g.NumEdges() != 6000 {
		t.Fatalf("master has %d edges, want 6000", g.NumEdges())
	}
	if allocs := testing.AllocsPerRun(20, g.Freeze); allocs > 0 {
		t.Fatalf("Freeze made %v allocations per run, want none", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g.Freeze()
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > uint64(16*g.NumNodes()) {
		t.Fatalf("Freeze allocated %d bytes for %d nodes / %d edges, want O(nodes)", bytes, g.NumNodes(), g.NumEdges())
	}
}

// TestReadOnlyCloneOwnsNoEdges checks that reading a clone never starts
// edge bookkeeping, and that the first write owns exactly one edge.
func TestReadOnlyCloneOwnsNoEdges(t *testing.T) {
	master := cowMaster(50, 4)
	master.Freeze()
	c := master.Clone()
	_ = c.EdgesView()
	_ = c.EdgeAttrsView("n0000", "n0001")
	_ = c.NodeAttrsView("n0000")
	_, _ = c.NodeIndex("n0000")
	_ = c.Neighbors("n0000")
	_ = c.PageRank(0.85, 20, 1e-9)
	if !Equal(c, master) {
		t.Fatal("clone differs from its master")
	}
	if c.edgeOwned != nil {
		t.Fatalf("read-only clone owns %d edges, want edgeOwned == nil", len(c.edgeOwned))
	}
	if !c.shared {
		t.Fatal("a read unshared the clone's containers")
	}
	if err := c.SetEdgeAttr("n0000", "n0001", "bytes", 0); err != nil {
		t.Fatal(err)
	}
	if len(c.edgeOwned) != 1 {
		t.Fatalf("one write owns %d edges, want 1", len(c.edgeOwned))
	}
	if master.EdgeAttrsView("n0000", "n0001")["bytes"] != int64(1) {
		t.Fatal("clone write leaked into the master")
	}
}

// TestCloneOfCloneAfterRemovalsIsolated removes a node and an edge from a
// clone that already owns written maps, clones it again, and checks that
// writes on either side stay on that side and the master is untouched.
func TestCloneOfCloneAfterRemovalsIsolated(t *testing.T) {
	master := cowMaster(30, 3)
	master.Freeze()
	want := master.Clone()

	c := master.Clone()
	if err := c.SetEdgeAttr("n0001", "n0002", "bytes", 100); err != nil {
		t.Fatal(err)
	}
	if err := c.SetNodeAttr("n0005", "ip", "owned"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveEdge("n0003", "n0004"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveNode("n0002"); err != nil { // drops the written edge too
		t.Fatal(err)
	}
	if _, owned := c.edgeOwned[EdgeKey{"n0001", "n0002"}]; owned {
		t.Fatal("removed edge still in the owned set")
	}
	if len(c.nodeOwned) != c.NumNodes() {
		t.Fatalf("nodeOwned has %d entries for %d nodes", len(c.nodeOwned), c.NumNodes())
	}

	cc := c.Clone()
	if !Equal(cc, c) {
		t.Fatal("clone of clone differs from its source")
	}
	if err := cc.SetNodeAttr("n0005", "ip", "cc"); err != nil {
		t.Fatal(err)
	}
	if err := cc.SetEdgeAttr("n0006", "n0007", "bytes", -1); err != nil {
		t.Fatal(err)
	}
	if got := c.NodeAttrsView("n0005")["ip"]; got != "owned" {
		t.Fatalf("clone-of-clone write leaked into its source: ip = %v", got)
	}
	if got := c.EdgeAttrsView("n0006", "n0007")["bytes"]; got == int64(-1) {
		t.Fatal("clone-of-clone edge write leaked into its source")
	}
	if err := c.SetEdgeAttr("n0008", "n0009", "bytes", -2); err != nil {
		t.Fatal(err)
	}
	if cc.EdgeAttrsView("n0008", "n0009")["bytes"] == int64(-2) {
		t.Fatal("source write leaked into its clone")
	}
	if cc.HasNode("n0002") || cc.HasEdge("n0003", "n0004") {
		t.Fatal("clone of clone resurrected a removed node or edge")
	}
	if !Equal(master, want) {
		t.Fatalf("master changed: %s", Diff(master, want))
	}
}

// TestRefreezeAfterExtensionIsolatesEarlierClones follows the streamed
// shard path: clone a frozen master, extend the master with a batch, clone
// again before and after re-freezing, and write everywhere.
func TestRefreezeAfterExtensionIsolatesEarlierClones(t *testing.T) {
	master := cowMaster(20, 2)
	master.Freeze()
	early := master.Clone()
	earlyWant := master.Clone()

	master.AddEdge("n0000", "n0010", Attrs{"bytes": int64(7)})
	master.AddNode("n9999", Attrs{"ip": "new"})
	if err := master.SetEdgeAttr("n0000", "n0001", "bytes", 555); err != nil {
		t.Fatal(err)
	}
	mid := master.Clone() // before re-freeze: the batch is master-owned
	master.Freeze()
	late := master.Clone()

	if err := master.SetEdgeAttr("n0000", "n0010", "bytes", 8); err != nil {
		t.Fatal(err)
	}
	if got := mid.EdgeAttrsView("n0000", "n0010")["bytes"]; got != int64(7) {
		t.Fatalf("master write leaked into a pre-refreeze clone: %v", got)
	}
	if got := late.EdgeAttrsView("n0000", "n0010")["bytes"]; got != int64(7) {
		t.Fatalf("master write leaked into a post-refreeze clone: %v", got)
	}
	if err := late.SetNodeAttr("n9999", "ip", "late"); err != nil {
		t.Fatal(err)
	}
	if mid.NodeAttrsView("n9999")["ip"] != "new" || master.NodeAttrsView("n9999")["ip"] != "new" {
		t.Fatal("post-refreeze clone write leaked")
	}
	if err := early.SetEdgeAttr("n0001", "n0002", "bytes", -3); err != nil {
		t.Fatal(err)
	}
	if master.EdgeAttrsView("n0001", "n0002")["bytes"] == int64(-3) || late.EdgeAttrsView("n0001", "n0002")["bytes"] == int64(-3) {
		t.Fatal("early clone write leaked")
	}
	if err := early.SetEdgeAttr("n0001", "n0002", "bytes", earlyWant.EdgeAttrsView("n0001", "n0002")["bytes"]); err != nil {
		t.Fatal(err)
	}
	if !Equal(early, earlyWant) {
		t.Fatalf("earlier clone observed the extension: %s", Diff(early, earlyWant))
	}
}

// cowMutators writes through every exported mutator of *Graph once, each
// one visibly changing the graph it is applied to (a cowMaster of at least
// 11 nodes and 3 out-edges per node).
var cowMutators = []struct {
	name  string
	write func(g *Graph) error
}{
	{"AddNode/new", func(g *Graph) error { g.AddNode("new", Attrs{"ip": "x"}); return nil }},
	{"AddNode/existing", func(g *Graph) error { g.AddNode("n0001", Attrs{"ip": "changed"}); return nil }},
	{"SetNodeAttr", func(g *Graph) error { return g.SetNodeAttr("n0001", "ip", "changed") }},
	{"NodeAttrs", func(g *Graph) error { g.NodeAttrs("n0001")["ip"] = "changed"; return nil }},
	{"AddEdge/new", func(g *Graph) error { g.AddEdge("n0000", "n0010", Attrs{"bytes": 1}); return nil }},
	{"AddEdge/existing", func(g *Graph) error { g.AddEdge("n0000", "n0001", Attrs{"bytes": -1}); return nil }},
	{"SetEdgeAttr", func(g *Graph) error { return g.SetEdgeAttr("n0000", "n0001", "bytes", -1) }},
	{"EdgeAttrs", func(g *Graph) error { g.EdgeAttrs("n0000", "n0001")["bytes"] = int64(-1); return nil }},
	{"Edges", func(g *Graph) error { g.Edges()[0].Attrs["bytes"] = int64(-1); return nil }},
	{"RemoveNode", func(g *Graph) error { return g.RemoveNode("n0001") }},
	{"RemoveEdge", func(g *Graph) error { return g.RemoveEdge("n0000", "n0001") }},
	{"GraphAttrs", func(g *Graph) error { g.GraphAttrs()["app"] = "changed"; return nil }},
	{"Merge", func(g *Graph) error {
		other := NewDirected()
		other.AddEdge("n0000", "n0001", Attrs{"bytes": -1})
		other.AddEdge("x", "y", nil)
		g.Merge(other)
		return nil
	}},
	{"UnmarshalJSON", func(g *Graph) error {
		src := cowMaster(12, 3)
		if err := src.SetNodeAttr("n0001", "ip", "changed"); err != nil {
			return err
		}
		data, err := src.MarshalJSON()
		if err != nil {
			return err
		}
		return g.UnmarshalJSON(data)
	}},
}

// TestCloneWritesStayIsolated writes through each mutator on a lazy clone
// of a frozen master and checks that the master, a sibling clone and a
// clone taken before the write are unchanged; then it clones the written
// clone and checks that writes on either side stay on that side.
func TestCloneWritesStayIsolated(t *testing.T) {
	for _, m := range cowMutators {
		t.Run(m.name, func(t *testing.T) {
			want := cowMaster(12, 3)
			master := cowMaster(12, 3)
			master.GraphAttrs()["app"] = "master"
			want.GraphAttrs()["app"] = "master"
			master.Freeze()
			sibling := master.Clone()
			c := master.Clone()
			before := c.Clone()

			if err := m.write(c); err != nil {
				t.Fatal(err)
			}
			if Equal(c, want) {
				t.Fatal("the write did not change the clone")
			}
			for name, g := range map[string]*Graph{"master": master, "sibling": sibling, "clone-before-write": before} {
				if !Equal(g, want) {
					t.Errorf("%s changed: %s", name, Diff(g, want))
				}
				if err := checkIndexes(g); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}

			after := c.Clone()
			cWant := c.Clone()
			after.AddNode("after", Attrs{"ip": "after"})
			after.AddEdge("after", "n0002", Attrs{"bytes": 9})
			if err := after.SetNodeAttr("n0003", "ip", "after"); err != nil {
				t.Fatal(err)
			}
			if !Equal(c, cWant) {
				t.Errorf("clone-after-write write leaked into its source: %s", Diff(c, cWant))
			}
			afterWant := after.Clone()
			c.AddNode("source", nil)
			if err := c.SetNodeAttr("n0004", "ip", "source"); err != nil {
				t.Fatal(err)
			}
			if !Equal(after, afterWant) {
				t.Errorf("source write leaked into its clone: %s", Diff(after, afterWant))
			}
			if !Equal(master, want) {
				t.Errorf("master changed: %s", Diff(master, want))
			}
		})
	}
}

// assertEqualMatchesDiff checks that Equal agrees with Diff in both
// argument orders and returns Equal's answer.
func assertEqualMatchesDiff(t *testing.T, a, b *Graph) bool {
	t.Helper()
	eq := Equal(a, b)
	for _, p := range [][2]*Graph{{a, b}, {b, a}} {
		if got, d := Equal(p[0], p[1]), Diff(p[0], p[1]); got != (d == "") || got != eq {
			t.Fatalf("Equal = %v but Diff = %q", got, d)
		}
	}
	return eq
}

// TestEqualOnSiblingClonesMatchesDiff writes once through each mutator on
// one of two sibling clones of a frozen master, so Equal takes its
// identity skips for everything the write left shared, and checks it
// against Diff, which walks every node and edge.
func TestEqualOnSiblingClonesMatchesDiff(t *testing.T) {
	for _, m := range cowMutators {
		t.Run(m.name, func(t *testing.T) {
			master := cowMaster(12, 3)
			master.GraphAttrs()["app"] = "master"
			master.Freeze()
			a, b := master.Clone(), master.Clone()
			if !assertEqualMatchesDiff(t, a, b) {
				t.Fatal("unwritten sibling clones differ")
			}
			if err := m.write(b); err != nil {
				t.Fatal(err)
			}
			if assertEqualMatchesDiff(t, a, b) {
				t.Fatal("sibling clones equal after a write on one")
			}
			assertEqualMatchesDiff(t, b, b.Clone())
			assertEqualMatchesDiff(t, a, master)
		})
	}
}

// TestDiffEntriesOnSiblingClones pins Diff's entries, as a set, after one
// write through each mutator on one of two sibling clones of a frozen
// master: the maps the write left shared hold equal values, so skipping
// them must not change what Diff reports.
func TestDiffEntriesOnSiblingClones(t *testing.T) {
	nodeIP := `node "n0001" attributes differ: map[ip:10.0.0.1] vs map[ip:changed]`
	edgeBytes := `edge ("n0000","n0001") attributes differ: map[bytes:1] vs map[bytes:-1]`
	want := map[string][]string{
		"AddNode/new":      {`node "new" missing from first graph`},
		"AddNode/existing": {nodeIP},
		"SetNodeAttr":      {nodeIP},
		"NodeAttrs":        {nodeIP},
		"AddEdge/new":      {`edge ("n0000","n0010") missing from first graph`},
		"AddEdge/existing": {edgeBytes},
		"SetEdgeAttr":      {edgeBytes},
		"EdgeAttrs":        {edgeBytes},
		"Edges":            {edgeBytes},
		"RemoveNode": {
			`node "n0001" missing from second graph`,
			`edge ("n0000","n0001") missing from second graph`,
			`edge ("n0001","n0002") missing from second graph`,
			`edge ("n0001","n0003") missing from second graph`,
			`edge ("n0001","n0004") missing from second graph`,
			`edge ("n0010","n0001") missing from second graph`,
			`edge ("n0011","n0001") missing from second graph`,
		},
		"RemoveEdge": {`edge ("n0000","n0001") missing from second graph`},
		"GraphAttrs": {"graph attributes differ"},
		"Merge": {
			`node "x" missing from first graph`,
			`node "y" missing from first graph`,
			edgeBytes,
			`edge ("x","y") missing from first graph`,
		},
		"UnmarshalJSON": {"graph attributes differ", nodeIP},
	}
	for _, m := range cowMutators {
		t.Run(m.name, func(t *testing.T) {
			entries, ok := want[m.name]
			if !ok {
				t.Fatal("no pinned Diff entries for this mutator")
			}
			master := cowMaster(12, 3)
			master.GraphAttrs()["app"] = "master"
			master.Freeze()
			a, b := master.Clone(), master.Clone()
			if err := m.write(b); err != nil {
				t.Fatal(err)
			}
			got := strings.Split(Diff(a, b), "; ")
			sort.Strings(got)
			entries = slices.Clone(entries)
			sort.Strings(entries)
			if !slices.Equal(got, entries) {
				t.Fatalf("Diff entries:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(entries, "\n  "))
			}
		})
	}
	// Diff reports at most eight differences: twelve written nodes give
	// eight entries.
	master := cowMaster(12, 3)
	master.Freeze()
	a, b := master.Clone(), master.Clone()
	for _, n := range b.Nodes() {
		if err := b.SetNodeAttr(n, "ip", "changed"); err != nil {
			t.Fatal(err)
		}
	}
	if got := strings.Split(Diff(a, b), "; "); len(got) != 8 {
		t.Fatalf("Diff holds %d entries, want 8: %q", len(got), got)
	}
}

// TestEqualKeepsValueEqualAnswers pins the cases where identity and
// ValueEqual could disagree: a NaN (equal to a NaN, as in scalar.Equal)
// shared from the master or written on a clone, an int and a float of one
// value and -0 and 0 (equal), and a write that restores the value the
// master holds (equal, though the written map is no longer shared).
func TestEqualKeepsValueEqualAnswers(t *testing.T) {
	nan := math.NaN()
	frozen := func(edit func(g *Graph)) *Graph {
		g := cowMaster(12, 3)
		edit(g)
		g.Freeze()
		return g
	}
	set := func(t *testing.T, g *Graph, key string, v any) {
		t.Helper()
		if err := g.SetNodeAttr("n0001", key, v); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("NaN in master", func(t *testing.T) {
		for name, v := range map[string]any{
			"scalar": nan,
			"list":   []any{int64(1), nan},
			"map":    map[string]any{"loss": []any{nan}},
		} {
			master := frozen(func(g *Graph) { g.SetNodeAttr("n0005", "loss", v) })
			if !assertEqualMatchesDiff(t, master.Clone(), master.Clone()) {
				t.Errorf("%s: unwritten clones holding NaN compare unequal", name)
			}
			// The same write on both clones: each now owns its copy of
			// the NaN-holding maps' containers and compares them by value.
			a, b := master.Clone(), master.Clone()
			set(t, a, "ip", "changed")
			set(t, b, "ip", "changed")
			if err := a.SetNodeAttr("n0005", "w", int64(1)); err != nil {
				t.Fatal(err)
			}
			if err := b.SetNodeAttr("n0005", "w", int64(1)); err != nil {
				t.Fatal(err)
			}
			if !assertEqualMatchesDiff(t, a, b) {
				t.Errorf("%s: clones given the same write compare unequal", name)
			}
		}
		master := frozen(func(g *Graph) { g.AddEdge("n0000", "n0001", Attrs{"loss": nan}) })
		if !assertEqualMatchesDiff(t, master.Clone(), master.Clone()) {
			t.Error("unwritten clones holding a NaN edge attribute compare unequal")
		}
		master = frozen(func(g *Graph) { g.GraphAttrs()["loss"] = nan })
		if !assertEqualMatchesDiff(t, master.Clone(), master.Clone()) {
			t.Error("unwritten clones holding a NaN graph attribute compare unequal")
		}
	})
	t.Run("NaN written on a clone", func(t *testing.T) {
		master := frozen(func(*Graph) {})
		a, b := master.Clone(), master.Clone()
		set(t, b, "loss", nan)
		if assertEqualMatchesDiff(t, a, b) {
			t.Error("a NaN write went unseen")
		}
		set(t, a, "loss", math.Float64frombits(0x7ff8000000000002))
		if !assertEqualMatchesDiff(t, a, b) {
			t.Error("two NaN writes compare unequal")
		}
		if !assertEqualMatchesDiff(t, b, b) {
			t.Error("a graph holding a NaN it wrote compares unequal to itself")
		}
		set(t, a, "loss", 1.0)
		if assertEqualMatchesDiff(t, a, b) {
			t.Error("a NaN compares equal to 1.0")
		}
	})
	t.Run("negative zero", func(t *testing.T) {
		master := frozen(func(g *Graph) { g.SetNodeAttr("n0001", "w", 0.0) })
		a, b := master.Clone(), master.Clone()
		set(t, b, "w", math.Copysign(0, -1))
		if !assertEqualMatchesDiff(t, a, b) {
			t.Error("-0 and 0 compare unequal")
		}
	})
	t.Run("int and float", func(t *testing.T) {
		master := frozen(func(g *Graph) { g.SetNodeAttr("n0001", "w", 3) })
		a, b := master.Clone(), master.Clone()
		set(t, b, "w", 3.0)
		if !assertEqualMatchesDiff(t, a, b) {
			t.Error("int64 3 and float64 3 compare unequal")
		}
		set(t, a, "w", 3.0)
		set(t, b, "w", int64(3))
		if !assertEqualMatchesDiff(t, a, b) {
			t.Error("float64 3 and int64 3 compare unequal")
		}
	})
	t.Run("write restores the value", func(t *testing.T) {
		master := frozen(func(*Graph) {})
		a, b := master.Clone(), master.Clone()
		set(t, b, "ip", master.NodeAttrsView("n0001")["ip"])
		if err := b.SetEdgeAttr("n0000", "n0001", "bytes", master.EdgeAttrsView("n0000", "n0001")["bytes"]); err != nil {
			t.Fatal(err)
		}
		if !assertEqualMatchesDiff(t, a, b) {
			t.Error("a write of the master's own values compares unequal")
		}
	})
}

// TestEqualOfUnwrittenClonesAllocatesNothing pins the evaluator's common
// case: comparing two unwritten clones of a frozen master costs no
// allocation, and neither does comparing after a write.
func TestEqualOfUnwrittenClonesAllocatesNothing(t *testing.T) {
	master := cowMaster(600, 10)
	master.Freeze()
	a, b := master.Clone(), master.Clone()
	if allocs := testing.AllocsPerRun(20, func() {
		if !Equal(a, b) {
			t.Fatal("unwritten clones differ")
		}
	}); allocs > 0 {
		t.Fatalf("Equal of unwritten clones made %v allocations per run, want none", allocs)
	}
	if err := b.SetEdgeAttr("n0000", "n0001", "bytes", -1); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if Equal(a, b) {
			t.Fatal("written clone equals its sibling")
		}
	}); allocs > 0 {
		t.Fatalf("Equal after a write made %v allocations per run, want none", allocs)
	}
}

// checkIndexes verifies that a graph's index containers agree with its
// order slices, which Equal alone does not see: a write leaking into a
// shared index map would leave an entry no order slice lists.
func checkIndexes(g *Graph) error {
	n := len(g.nodeOrder)
	if len(g.nodeIdx) != n || len(g.nodeAttrs) != n || len(g.succ) != n || len(g.pred) != n {
		return fmt.Errorf("node containers disagree: order %d, index %d, attrs %d, succ %d, pred %d",
			n, len(g.nodeIdx), len(g.nodeAttrs), len(g.succ), len(g.pred))
	}
	for i, id := range g.nodeOrder {
		if g.nodeIdx[id] != i {
			return fmt.Errorf("node %q at position %d is indexed at %d", id, i, g.nodeIdx[id])
		}
	}
	if len(g.edges) != len(g.edgeOrder) {
		return fmt.Errorf("edge map has %d entries for %d ordered edges", len(g.edges), len(g.edgeOrder))
	}
	adj := 0
	for _, s := range g.succ {
		adj += len(s)
	}
	if g.directed && adj != len(g.edgeOrder) {
		return fmt.Errorf("adjacency lists hold %d edges, want %d", adj, len(g.edgeOrder))
	}
	return nil
}

// TestGraphMethodsClassified fails when an exported *Graph method is
// listed neither as a reader nor as a mutator, so a new mutator cannot skip
// unshare unnoticed: every mutator must have an entry in cowMutators.
func TestGraphMethodsClassified(t *testing.T) {
	readers := map[string]bool{}
	for _, name := range []string{
		"AsUndirected", "AverageClustering", "AverageShortestPathLength", "BFS",
		"BetweennessCentrality", "ClosenessCentrality", "ClusterNodesBy",
		"ClusteringCoefficient", "ConnectedComponents", "DFS", "DOT", "Degree",
		"DegreeCentrality", "Density", "Diameter", "DijkstraPath", "Directed",
		"EdgeAttrKeys", "EdgeAttrsView", "EdgesView", "Fingerprint", "HasCycle", "HasEdge",
		"HasNode", "HopCount", "InDegree", "IsolatedNodes", "MarshalJSON", "MaxBy",
		"Neighbors", "NodeAttrKeys", "NodeAttrsView", "NodeIndex", "Nodes", "NumEdges", "NumNodes", "OutDegree",
		"PageRank", "Predecessors", "Reverse", "SelfLoops", "ShortestPath",
		"String", "StronglyConnectedComponents", "Subgraph", "TopNByDegree",
		"TopologicalSort", "Version", "WeightedDegree",
		// The sharing machinery itself, covered by the tests above.
		"Clone", "Freeze",
	} {
		readers[name] = true
	}
	mutators := map[string]bool{}
	for _, m := range cowMutators {
		name, _, _ := strings.Cut(m.name, "/")
		mutators[name] = true
	}
	typ := reflect.TypeOf((*Graph)(nil))
	var unlisted []string
	for i := 0; i < typ.NumMethod(); i++ {
		name := typ.Method(i).Name
		if !readers[name] && !mutators[name] {
			unlisted = append(unlisted, name)
		}
		if readers[name] && mutators[name] {
			t.Errorf("%s is listed as both reader and mutator", name)
		}
	}
	sort.Strings(unlisted)
	if len(unlisted) > 0 {
		t.Errorf("exported *Graph methods neither reader nor mutator: %v (a mutator must call unshare and get a cowMutators entry)", unlisted)
	}
	for name := range mutators {
		if _, ok := typ.MethodByName(name); !ok {
			t.Errorf("cowMutators lists %s, which is not a *Graph method", name)
		}
	}
}

// TestCloneOfFrozenAllocatesOnce pins the lazy clone's cost: cloning a
// frozen 600-node, 6000-edge master copies only the Graph struct.
func TestCloneOfFrozenAllocatesOnce(t *testing.T) {
	g := cowMaster(600, 10)
	g.Freeze()
	var sink *Graph
	if allocs := testing.AllocsPerRun(100, func() { sink = g.Clone() }); allocs > 2 {
		t.Fatalf("Clone of a frozen master made %v allocations per run, want at most 2", allocs)
	}
	if !Equal(sink, g) {
		t.Fatal("clone differs from its master")
	}
}

// TestConcurrentClonesOfFrozenMaster clones one frozen master from many
// goroutines, each writing its own clone, while the master is read; run
// under -race it proves lazy clones share nothing a write touches.
func TestConcurrentClonesOfFrozenMaster(t *testing.T) {
	master := cowMaster(40, 3)
	master.Freeze()
	want := cowMaster(40, 3)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				c := master.Clone()
				_ = master.PageRank(0.85, 5, 1e-6)
				id := fmt.Sprintf("n%04d", (w+i)%40)
				if err := c.SetNodeAttr(id, "ip", w); err != nil {
					t.Error(err)
					return
				}
				c.AddEdge(id, "w", Attrs{"bytes": i})
				if err := c.RemoveNode(fmt.Sprintf("n%04d", (w+i+1)%40)); err != nil {
					t.Error(err)
					return
				}
				if got := c.NodeAttrsView(id)["ip"]; got != int64(w) {
					t.Errorf("worker %d reads ip %v after its own write", w, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if !Equal(master, want) {
		t.Fatalf("master changed: %s", Diff(master, want))
	}
}

// TestAttrKeysPerMaster: a frozen master and its unwritten clones derive
// the attribute-key unions once and share them; a clone that writes, and a
// master written and frozen again, derive their own, while graphs that
// still share the old containers keep the old unions.
func TestAttrKeysPerMaster(t *testing.T) {
	g := cowMaster(20, 3)
	g.Freeze()
	a, b := g.Clone(), g.Clone()
	nodes, edges := a.NodeAttrKeys(), a.EdgeAttrKeys()
	if !reflect.DeepEqual(nodes, []string{"ip"}) || !reflect.DeepEqual(edges, []string{"bytes"}) {
		t.Fatalf("keys = %v / %v", nodes, edges)
	}
	for _, h := range []*Graph{g, b} {
		if &h.NodeAttrKeys()[0] != &nodes[0] || &h.EdgeAttrKeys()[0] != &edges[0] {
			t.Fatal("a master and its unwritten clones derived separate unions")
		}
	}
	if err := b.SetNodeAttr("n0003", "role", "spine"); err != nil {
		t.Fatal(err)
	}
	b.AddEdge("n0001", "n0019", Attrs{"alarm": true})
	if got := b.NodeAttrKeys(); !reflect.DeepEqual(got, []string{"ip", "role"}) {
		t.Errorf("written clone node keys = %v", got)
	}
	if got := b.EdgeAttrKeys(); !reflect.DeepEqual(got, []string{"alarm", "bytes"}) {
		t.Errorf("written clone edge keys = %v", got)
	}
	if got := g.NodeAttrKeys(); !reflect.DeepEqual(got, []string{"ip"}) {
		t.Errorf("master node keys after a clone's write = %v", got)
	}
	// The master itself is written and frozen again: its new clones see the
	// new key, the clone taken before keeps the master's old containers.
	if err := g.SetNodeAttr("n0004", "rack", int64(2)); err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	if got := g.Clone().NodeAttrKeys(); !reflect.DeepEqual(got, []string{"ip", "rack"}) {
		t.Errorf("clone of the re-frozen master: node keys = %v", got)
	}
	if got := a.NodeAttrKeys(); !reflect.DeepEqual(got, []string{"ip"}) {
		t.Errorf("earlier clone after the master's write: node keys = %v", got)
	}
}
