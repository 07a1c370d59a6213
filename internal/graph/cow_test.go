package graph

import (
	"fmt"
	"runtime"
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

// TestFreezeAllocatesPerNodeNotPerEdge pins the cost of Freeze: one flag
// per node, nothing per edge, so freezing a 600-node, 6000-edge master
// makes a single small allocation.
func TestFreezeAllocatesPerNodeNotPerEdge(t *testing.T) {
	g := cowMaster(600, 10)
	if g.NumEdges() != 6000 {
		t.Fatalf("master has %d edges, want 6000", g.NumEdges())
	}
	if allocs := testing.AllocsPerRun(20, g.Freeze); allocs > 1 {
		t.Fatalf("Freeze made %v allocations per run, want at most 1", allocs)
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
	_ = c.Neighbors("n0000")
	_ = c.PageRank(0.85, 20, 1e-9)
	if !Equal(c, master) {
		t.Fatal("clone differs from its master")
	}
	if c.edgeOwned != nil {
		t.Fatalf("read-only clone owns %d edges, want edgeOwned == nil", len(c.edgeOwned))
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
