package nqlbind

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/dataframe"
	"repro/internal/graph"
	"repro/internal/nql"
	"repro/internal/sqldb"
)

func testGraph() *graph.Graph {
	g := graph.NewDirected()
	g.AddNode("a", graph.Attrs{"ip": "15.76.0.1"})
	g.AddNode("b", graph.Attrs{"ip": "15.76.0.2"})
	g.AddNode("c", graph.Attrs{"ip": "10.0.0.1"})
	g.AddEdge("a", "b", graph.Attrs{"bytes": 100, "packets": 10})
	g.AddEdge("b", "c", graph.Attrs{"bytes": 300, "packets": 30})
	g.AddEdge("a", "c", graph.Attrs{"bytes": 50, "packets": 5})
	return g
}

func runWithGraph(t *testing.T, g *graph.Graph, src string) (nql.Value, error) {
	t.Helper()
	in := nql.NewInterp(nql.Limits{}, Globals(g, nil))
	return in.Run(src)
}

func mustRun(t *testing.T, g *graph.Graph, src string) nql.Value {
	t.Helper()
	v, err := runWithGraph(t, g, src)
	if err != nil {
		t.Fatalf("error: %v\nsource:\n%s", err, src)
	}
	return v
}

func TestGraphNodesEdges(t *testing.T) {
	g := testGraph()
	v := mustRun(t, g, `return [len(graph.nodes()), len(graph.edges()), graph.number_of_nodes(), graph.number_of_edges()]`)
	l := v.(*nql.List)
	if l.Items[0] != int64(3) || l.Items[1] != int64(3) || l.Items[2] != int64(3) || l.Items[3] != int64(3) {
		t.Fatalf("got %s", nql.Repr(v))
	}
}

func TestGraphNodeAttrAccess(t *testing.T) {
	g := testGraph()
	v := mustRun(t, g, `return graph.node("a")["ip"]`)
	if v != "15.76.0.1" {
		t.Fatalf("got %v", v)
	}
}

func TestImaginaryAttributeError(t *testing.T) {
	g := testGraph()
	_, err := runWithGraph(t, g, `return graph.node("a")["bandwidth"]`)
	if err == nil || nql.ClassOf(err) != "attribute" {
		t.Fatalf("err = %v class=%s", err, nql.ClassOf(err))
	}
}

func TestImaginaryMethodError(t *testing.T) {
	g := testGraph()
	_, err := runWithGraph(t, g, `return graph.all_shortest_hyperpaths("a", "b")`)
	if err == nil || nql.ClassOf(err) != "attribute" {
		t.Fatalf("err = %v class=%s", err, nql.ClassOf(err))
	}
}

func TestArgumentErrors(t *testing.T) {
	g := testGraph()
	_, err := runWithGraph(t, g, `return graph.degree()`)
	if err == nil || nql.ClassOf(err) != "argument" {
		t.Fatalf("err = %v", err)
	}
	_, err = runWithGraph(t, g, `return graph.degree(42)`)
	if err == nil || nql.ClassOf(err) != "argument" {
		t.Fatalf("err = %v", err)
	}
}

func TestGraphMutation(t *testing.T) {
	g := testGraph()
	mustRun(t, g, `
graph.add_node("d", {"ip": "10.0.0.9"})
graph.add_edge("c", "d", {"bytes": 10})
graph.set_node_attr("a", "label", "app:production")
graph.node("b")["color"] = "red"`)
	if !g.HasEdge("c", "d") {
		t.Fatal("edge not added")
	}
	if g.NodeAttrs("a")["label"] != "app:production" {
		t.Fatal("set_node_attr failed")
	}
	if g.NodeAttrs("b")["color"] != "red" {
		t.Fatal("attr map write failed")
	}
}

func TestGraphEdgeIteration(t *testing.T) {
	g := testGraph()
	v := mustRun(t, g, `
let total = 0
for e in graph.edges() {
  total = total + e.attrs["bytes"]
}
return total`)
	if v != int64(450) {
		t.Fatalf("got %v", v)
	}
}

func TestGraphAlgorithms(t *testing.T) {
	g := testGraph()
	v := mustRun(t, g, `
let p = graph.shortest_path("a", "c")
let h = graph.hop_count("a", "c")
let d = graph.degree("a")
return [len(p), h, d]`)
	l := v.(*nql.List)
	if l.Items[0] != int64(2) || l.Items[1] != int64(1) || l.Items[2] != int64(2) {
		t.Fatalf("got %s", nql.Repr(v))
	}
}

func TestGraphDijkstra(t *testing.T) {
	g := testGraph()
	v := mustRun(t, g, `
let r = graph.dijkstra_path("a", "c", "bytes")
return r["cost"]`)
	if v != 50.0 {
		t.Fatalf("got %v", v)
	}
}

func TestGraphCentralityMaps(t *testing.T) {
	g := testGraph()
	v := mustRun(t, g, `
let dc = graph.degree_centrality()
return dc["b"]`)
	if v != 1.0 { // b has degree 2, n-1 = 2
		t.Fatalf("got %v", v)
	}
}

func TestGraphSubgraphClone(t *testing.T) {
	g := testGraph()
	v := mustRun(t, g, `
let sub = graph.subgraph(["a", "b"])
let cp = graph.clone()
cp.remove_node("a")
return [sub.number_of_nodes(), sub.number_of_edges(), cp.number_of_nodes(), graph.number_of_nodes()]`)
	l := v.(*nql.List)
	if l.Items[0] != int64(2) || l.Items[1] != int64(1) || l.Items[2] != int64(2) || l.Items[3] != int64(3) {
		t.Fatalf("got %s", nql.Repr(v))
	}
}

func TestGraphRemoveMissing(t *testing.T) {
	g := testGraph()
	_, err := runWithGraph(t, g, `graph.remove_node("ghost")`)
	if err == nil || nql.ClassOf(err) != "value" {
		t.Fatalf("err = %v", err)
	}
}

func TestWeightedDegreeBinding(t *testing.T) {
	g := testGraph()
	v := mustRun(t, g, `return graph.weighted_degree("a", "bytes")`)
	if v != 150.0 {
		t.Fatalf("got %v", v)
	}
}

func TestKMeansBuiltin(t *testing.T) {
	g := testGraph()
	v := mustRun(t, g, `return kmeans([1.0, 2.0, 100.0, 101.0], 2)`)
	l := v.(*nql.List)
	if l.Items[0] != int64(0) || l.Items[2] != int64(1) {
		t.Fatalf("got %s", nql.Repr(v))
	}
	_, err := runWithGraph(t, g, `return kmeans([1.0], 0)`)
	if err == nil || nql.ClassOf(err) != "value" {
		t.Fatalf("err = %v", err)
	}
}

func testFrames() (nodes, edges *dataframe.Frame) {
	nodes = dataframe.New("id", "ip")
	nodes.AppendRow("a", "15.76.0.1")
	nodes.AppendRow("b", "15.76.0.2")
	nodes.AppendRow("c", "10.0.0.1")
	edges = dataframe.New("src", "dst", "bytes")
	edges.AppendRow("a", "b", 100)
	edges.AppendRow("b", "c", 300)
	edges.AppendRow("a", "c", 50)
	return nodes, edges
}

func runWithFrames(t *testing.T, src string) (nql.Value, error) {
	t.Helper()
	nodes, edges := testFrames()
	globals := Globals(nil, map[string]nql.Value{
		"nodes_df": NewFrameObject(nodes),
		"edges_df": NewFrameObject(edges),
	})
	in := nql.NewInterp(nql.Limits{}, globals)
	return in.Run(src)
}

func TestFrameBasics(t *testing.T) {
	v, err := runWithFrames(t, `return [edges_df.num_rows(), len(edges_df.columns()), edges_df.cell(0, "bytes")]`)
	if err != nil {
		t.Fatal(err)
	}
	l := v.(*nql.List)
	if l.Items[0] != int64(3) || l.Items[1] != int64(3) || l.Items[2] != int64(100) {
		t.Fatalf("got %s", nql.Repr(v))
	}
}

func TestFrameFilterSortChain(t *testing.T) {
	v, err := runWithFrames(t, `
let big = edges_df.filter(fn(r) => r["bytes"] >= 100)
let top = big.sort_values("bytes", false)
return top.cell(0, "src")`)
	if err != nil {
		t.Fatal(err)
	}
	if v != "b" {
		t.Fatalf("got %v", v)
	}
}

func TestFrameGroupbyAgg(t *testing.T) {
	v, err := runWithFrames(t, `
let g = edges_df.groupby("src")
let agg = g.agg(["bytes", "sum", "total"])
let sorted_agg = agg.sort_values("total", false)
return [sorted_agg.cell(0, "src"), sorted_agg.cell(0, "total")]`)
	if err != nil {
		t.Fatal(err)
	}
	l := v.(*nql.List)
	if l.Items[0] != "b" || l.Items[1] != int64(300) {
		t.Fatalf("got %s", nql.Repr(v))
	}
}

func TestFrameMerge(t *testing.T) {
	v, err := runWithFrames(t, `
let j = edges_df.merge(nodes_df, "src", "id")
return [j.num_rows(), j.cell(0, "ip")]`)
	if err != nil {
		t.Fatal(err)
	}
	l := v.(*nql.List)
	if l.Items[0] != int64(3) || l.Items[1] != "15.76.0.1" {
		t.Fatalf("got %s", nql.Repr(v))
	}
}

func TestFrameImaginaryColumn(t *testing.T) {
	_, err := runWithFrames(t, `return edges_df.sum("bandwidth")`)
	if err == nil || nql.ClassOf(err) != "attribute" {
		t.Fatalf("err = %v", err)
	}
	_, err = runWithFrames(t, `return edges_df.groupby("ghost")`)
	if err == nil || nql.ClassOf(err) != "attribute" {
		t.Fatalf("err = %v", err)
	}
}

func TestFrameMutateRecords(t *testing.T) {
	v, err := runWithFrames(t, `
let f = edges_df.mutate("kb", fn(r) => r["bytes"] / 1000.0)
let recs = f.records()
return recs[1]["kb"]`)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0.3 {
		t.Fatalf("got %v", v)
	}
}

func TestFrameAggSpecValidation(t *testing.T) {
	_, err := runWithFrames(t, `return edges_df.groupby("src").agg(["bytes", "median"])`)
	if err == nil || nql.ClassOf(err) != "argument" {
		t.Fatalf("err = %v", err)
	}
	_, err = runWithFrames(t, `return edges_df.groupby("src").agg("bytes")`)
	if err == nil || nql.ClassOf(err) != "argument" {
		t.Fatalf("err = %v", err)
	}
}

func testDB() *sqldb.DB {
	nodes, edges := testFrames()
	db := sqldb.NewDB()
	db.CreateTable("nodes", nodes)
	db.CreateTable("edges", edges)
	return db
}

func runWithDB(t *testing.T, src string) (nql.Value, error) {
	t.Helper()
	globals := Globals(nil, map[string]nql.Value{"db": NewDBObject(testDB())})
	in := nql.NewInterp(nql.Limits{}, globals)
	return in.Run(src)
}

func TestDBQuery(t *testing.T) {
	v, err := runWithDB(t, `
let f = db.query("SELECT src, SUM(bytes) AS total FROM edges GROUP BY src ORDER BY total DESC")
return [f.num_rows(), f.cell(0, "src"), f.cell(0, "total")]`)
	if err != nil {
		t.Fatal(err)
	}
	l := v.(*nql.List)
	if l.Items[0] != int64(2) || l.Items[1] != "b" || l.Items[2] != int64(300) {
		t.Fatalf("got %s", nql.Repr(v))
	}
}

func TestDBExec(t *testing.T) {
	v, err := runWithDB(t, `
let n = db.exec("UPDATE edges SET bytes = bytes * 2 WHERE src = 'a'")
let f = db.query("SELECT SUM(bytes) AS s FROM edges")
return [n, f.cell(0, "s")]`)
	if err != nil {
		t.Fatal(err)
	}
	l := v.(*nql.List)
	if l.Items[0] != int64(2) || l.Items[1] != int64(600) {
		t.Fatalf("got %s", nql.Repr(v))
	}
}

func TestDBSyntaxErrorClass(t *testing.T) {
	_, err := runWithDB(t, `return db.query("SELEKT * FROM edges")`)
	if err == nil {
		t.Fatal("expected error")
	}
	if nql.ClassOf(err) != "operation" || !strings.Contains(err.Error(), "syntax") {
		t.Fatalf("err = %v class=%s", err, nql.ClassOf(err))
	}
}

func TestDBUnknownTableClass(t *testing.T) {
	_, err := runWithDB(t, `return db.query("SELECT * FROM ghost")`)
	if err == nil || nql.ClassOf(err) != "attribute" {
		t.Fatalf("err = %v class=%s", err, nql.ClassOf(err))
	}
}

func TestDBTablesList(t *testing.T) {
	v, err := runWithDB(t, `return db.tables()`)
	if err != nil {
		t.Fatal(err)
	}
	l := v.(*nql.List)
	if len(l.Items) != 2 || l.Items[0] != "nodes" {
		t.Fatalf("got %s", nql.Repr(v))
	}
}

func TestEdgeObjectMembers(t *testing.T) {
	g := testGraph()
	v := mustRun(t, g, `
let e = graph.edges()[0]
return [e.src, e.dst, e.u, e.v, e.attrs["bytes"]]`)
	l := v.(*nql.List)
	if l.Items[0] != "a" || l.Items[1] != "b" || l.Items[4] != int64(100) {
		t.Fatalf("got %s", nql.Repr(v))
	}
}

func TestAttrMapHelpers(t *testing.T) {
	g := testGraph()
	v := mustRun(t, g, `
let a = graph.node("a")
return [a.get("ip"), a.get("missing", "dflt"), a.has("ip"), len(a), keys(a)]`)
	l := v.(*nql.List)
	if l.Items[0] != "15.76.0.1" || l.Items[1] != "dflt" || l.Items[2] != true || l.Items[3] != int64(1) {
		t.Fatalf("got %s", nql.Repr(v))
	}
}

func TestEndToEndColorByPrefix(t *testing.T) {
	// The paper's Figure 1 query: assign a unique color per /16 prefix.
	g := testGraph()
	mustRun(t, g, `
let palette = ["red", "green", "blue", "orange"]
let prefix_color = {}
let next = 0
for n in graph.nodes() {
  let parts = split(graph.node(n)["ip"], ".")
  let prefix = parts[0] + "." + parts[1]
  if not contains(prefix_color, prefix) {
    prefix_color[prefix] = palette[next]
    next = next + 1
  }
  graph.node(n)["color"] = prefix_color[prefix]
}`)
	if g.NodeAttrs("a")["color"] != g.NodeAttrs("b")["color"] {
		t.Fatal("same prefix should share a color")
	}
	if g.NodeAttrs("a")["color"] == g.NodeAttrs("c")["color"] {
		t.Fatal("different prefixes should differ")
	}
}

// TestFrameMergeHonoursDeadline: a merge whose constant key fans 1,000
// rows out to a million stops at the request deadline with a cancel-class
// error, instead of running to the end and returning every row.
func TestFrameMergeHonoursDeadline(t *testing.T) {
	f := dataframe.New("k", "v")
	for i := 0; i < 1000; i++ {
		f.AppendRow(int64(1), int64(i))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	in := nql.NewInterp(nql.Limits{Context: ctx}, map[string]nql.Value{"df": NewFrameObject(f)})
	v, err := in.Run(`return df.merge(df, "k", "k").num_rows()`)
	if nql.ClassOf(err) != string(nql.ErrCancel) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("merge under a deadline: %v, %v (class %s), want a cancel error", nql.Repr(v), err, nql.ClassOf(err))
	}
}
