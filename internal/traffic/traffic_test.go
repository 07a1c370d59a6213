package traffic

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Nodes: 50, Edges: 60, Seed: 7})
	b := Generate(Config{Nodes: 50, Edges: 60, Seed: 7})
	if !graph.Equal(a, b) {
		t.Fatal("same seed must generate identical graphs")
	}
	c := Generate(Config{Nodes: 50, Edges: 60, Seed: 8})
	if graph.Equal(a, c) {
		t.Fatal("different seeds should differ")
	}
}

func TestGenerateShape(t *testing.T) {
	g := Generate(Config{Nodes: 80, Edges: 80, Seed: 42})
	if g.NumNodes() != 80 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 80 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if !g.Directed() {
		t.Fatal("communication graphs are directed")
	}
}

func TestGenerateAttrs(t *testing.T) {
	g := Generate(Config{Nodes: 30, Edges: 40, Seed: 1})
	saw1576 := false
	for _, n := range g.Nodes() {
		ip, ok := g.NodeAttrs(n)["ip"].(string)
		if !ok || strings.Count(ip, ".") != 3 {
			t.Fatalf("node %s ip = %v", n, g.NodeAttrs(n))
		}
		if strings.HasPrefix(ip, "15.76.") {
			saw1576 = true
		}
	}
	if !saw1576 {
		t.Fatal("fixed prefix 15.76 should appear")
	}
	for _, e := range g.Edges() {
		for _, attr := range []string{"bytes", "connections", "packets"} {
			v, ok := e.Attrs[attr].(int64)
			if !ok || v <= 0 {
				t.Fatalf("edge %s->%s attr %s = %v", e.U, e.V, attr, e.Attrs[attr])
			}
		}
	}
}

func TestNoSelfLoopsOrDuplicates(t *testing.T) {
	g := Generate(Config{Nodes: 20, Edges: 100, Seed: 3})
	for _, e := range g.Edges() {
		if e.U == e.V {
			t.Fatalf("self loop %s", e.U)
		}
	}
}

func TestTinyGraphs(t *testing.T) {
	g := Generate(Config{Nodes: 1, Edges: 10, Seed: 1})
	if g.NumNodes() != 1 || g.NumEdges() != 0 {
		t.Fatalf("1-node graph: %v", g)
	}
	empty := Generate(Config{Nodes: 0, Edges: 0, Seed: 1})
	if empty.NumNodes() != 0 {
		t.Fatal("empty graph")
	}
}

func TestFramesRoundTrip(t *testing.T) {
	g := Generate(Config{Nodes: 25, Edges: 30, Seed: 9})
	nodes, edges := Frames(g)
	if nodes.NumRows() != g.NumNodes() || edges.NumRows() != g.NumEdges() {
		t.Fatalf("frames %dx%d vs graph %dx%d", nodes.NumRows(), edges.NumRows(), g.NumNodes(), g.NumEdges())
	}
	// Every edge row matches the graph edge attributes.
	for i := 0; i < edges.NumRows(); i++ {
		row := edges.Row(i)
		a := g.EdgeAttrs(row["src"].(string), row["dst"].(string))
		if a == nil {
			t.Fatalf("edge %v not in graph", row)
		}
		if a["bytes"] != row["bytes"] {
			t.Fatalf("bytes mismatch %v vs %v", a["bytes"], row["bytes"])
		}
	}
}

func TestDatabaseTables(t *testing.T) {
	g := Generate(Config{Nodes: 10, Edges: 12, Seed: 5})
	db := Database(g)
	f, err := db.Query("SELECT COUNT(*) AS n FROM nodes")
	if err != nil || f.Row(0)["n"] != int64(10) {
		t.Fatalf("nodes count: %v err=%v", f, err)
	}
	f, err = db.Query("SELECT COUNT(*) AS n FROM edges")
	if err != nil || f.Row(0)["n"] != int64(12) {
		t.Fatalf("edges count: %v err=%v", f, err)
	}
}

func TestWrapperDescriptions(t *testing.T) {
	w := Wrapper{}
	if w.Name() == "" {
		t.Fatal("empty name")
	}
	for _, backend := range []string{"networkx", "pandas", "sql"} {
		d := w.Describe(backend)
		if !strings.Contains(d, "bytes") {
			t.Errorf("%s description missing schema: %q", backend, d)
		}
	}
	if w.Describe("networkx") == w.Describe("sql") {
		t.Fatal("descriptions must be backend-specific")
	}
}

func TestGenerateDenseConfigDeliversFullEdgeCount(t *testing.T) {
	// 20 nodes hold at most 380 directed edges; the 20x-attempts rejection
	// budget used to run out well before that and silently under-deliver.
	g, err := GenerateChecked(Config{Nodes: 20, Edges: 380, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 380 {
		t.Fatalf("dense config generated %d edges, want 380", g.NumEdges())
	}
	for _, e := range g.Edges() {
		if e.U == e.V {
			t.Fatalf("self loop %s", e.U)
		}
	}
	// Same config twice stays deterministic through the completion scan.
	if !graph.Equal(g, Generate(Config{Nodes: 20, Edges: 380, Seed: 3})) {
		t.Fatal("dense generation must stay deterministic")
	}
}

func TestGenerateCheckedRejectsImpossibleEdgeCount(t *testing.T) {
	g, err := GenerateChecked(Config{Nodes: 5, Edges: 100, Seed: 1})
	if err == nil {
		t.Fatal("5 nodes cannot hold 100 edges; want error")
	}
	if g.NumEdges() != 20 {
		t.Fatalf("saturated graph has %d edges, want 20", g.NumEdges())
	}
	if _, err := GenerateChecked(Config{Nodes: 1, Edges: 10, Seed: 1}); err == nil {
		t.Fatal("1-node graph cannot hold edges; want error")
	}
}

func TestGeneratePrefixesDistinct(t *testing.T) {
	// With many prefixes the random draws used to be able to collide with
	// the fixed prefixes (all four fall inside the draw range) or each
	// other, skewing prefix-distribution queries.
	for seed := int64(0); seed < 30; seed++ {
		g := Generate(Config{Nodes: 400, Edges: 0, Seed: seed, Prefixes: 40})
		prefixes := map[string]bool{}
		for _, n := range g.Nodes() {
			ip := g.NodeAttrsView(n)["ip"].(string)
			parts := strings.SplitN(ip, ".", 3)
			prefixes[parts[0]+"."+parts[1]] = true
		}
		// 400 nodes across 40 prefixes: every prefix should be hit with
		// overwhelming probability, so distinctness shows up as exactly 40
		// observed /16s. Before the dedupe fix, colliding draws left
		// fewer.
		if len(prefixes) != 40 {
			t.Fatalf("seed %d: %d distinct /16 prefixes observed, want 40", seed, len(prefixes))
		}
	}
}

func TestGenerateIDWidthScalesPast1000Nodes(t *testing.T) {
	small := Generate(Config{Nodes: 999, Edges: 0, Seed: 1})
	if nodes := small.Nodes(); nodes[7] != "h007" || nodes[998] != "h998" {
		t.Fatalf("<=999-node IDs must keep the historical 3-digit layout, got %q/%q", nodes[7], nodes[998])
	}
	big := Generate(Config{Nodes: 1001, Edges: 0, Seed: 1})
	nodes := big.Nodes()
	if nodes[7] != "h0007" || nodes[1000] != "h1000" {
		t.Fatalf("1001-node IDs must be 4 digits wide, got %q/%q", nodes[7], nodes[1000])
	}
	if !sort.StringsAreSorted(nodes) {
		t.Fatal("node IDs must sort lexicographically in index order")
	}
	for i, tc := range []struct{ nodes, width int }{
		{0, 3}, {1, 3}, {999, 3}, {1000, 3}, {1001, 4}, {10000, 4}, {10001, 5},
	} {
		if w := IDWidth(tc.nodes); w != tc.width {
			t.Fatalf("case %d: IDWidth(%d) = %d, want %d", i, tc.nodes, w, tc.width)
		}
	}
}

func TestPropEdgeCountNeverExceedsRequested(t *testing.T) {
	f := func(seed int64, n, e uint8) bool {
		g := Generate(Config{Nodes: int(n%40) + 2, Edges: int(e % 100), Seed: seed})
		return g.NumEdges() <= int(e%100)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
