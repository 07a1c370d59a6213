package nqlbind

import (
	"strings"
	"testing"

	"repro/internal/dataframe"
	"repro/internal/federate"
	"repro/internal/graph"
	"repro/internal/nql"
	"repro/internal/sqldb"
)

func fedGlobals() map[string]nql.Value {
	g := graph.NewDirected()
	g.AddNode("a", graph.Attrs{"ip": "10.0.0.1"})
	g.AddNode("b", graph.Attrs{"ip": "10.0.0.2"})
	g.AddNode("c", graph.Attrs{"ip": "15.76.0.3"})
	g.AddEdge("a", "b", graph.Attrs{"bytes": int64(100)})
	g.AddEdge("b", "c", graph.Attrs{"bytes": int64(250)})
	g.AddEdge("a", "c", graph.Attrs{"bytes": int64(50)})
	nodes := dataframe.New("id", "ip")
	for _, id := range g.Nodes() {
		nodes.AppendRow(id, g.NodeAttrsView(id)["ip"])
	}
	edges := dataframe.New("src", "dst", "bytes")
	for _, e := range g.EdgesView() {
		edges.AppendRow(e.U, e.V, e.Attrs["bytes"])
	}
	db := sqldb.NewDB()
	db.CreateTable("nodes", nodes.Clone())
	db.CreateTable("edges", edges.Clone())
	cat := &federate.Catalog{
		Graph:  g,
		Frames: map[string]*dataframe.Frame{"nodes": nodes, "edges": edges},
		DB:     db,
	}
	return Globals(g, map[string]nql.Value{"fed": NewFedObject(cat)})
}

func runFed(t *testing.T, src string) nql.Value {
	t.Helper()
	in := nql.NewInterp(nql.DefaultLimits, fedGlobals())
	v, err := in.Run(src)
	if err != nil {
		t.Fatalf("program failed: %v\n%s", err, src)
	}
	return v
}

func TestFedScanCollectCount(t *testing.T) {
	if v := runFed(t, `return fed.scan("sql", "nodes").count()`); !nql.ValuesEqual(v, int64(3)) {
		t.Errorf("sql count: got %s", nql.Repr(v))
	}
	if v := runFed(t, `return fed.scan("frame", "edges").filter("bytes", ">=", 100).count()`); !nql.ValuesEqual(v, int64(2)) {
		t.Errorf("frame filter count: got %s", nql.Repr(v))
	}
	v := runFed(t, `return fed.scan("graph", "nodes").filter("ip", "prefix", "15.76.").project("id").collect()`)
	if got := nql.Repr(v); got != `[{"id": "c"}]` {
		t.Errorf("graph scan: got %s", got)
	}
}

func TestFedSourcesAndTables(t *testing.T) {
	v := runFed(t, `return [fed.sources(), fed.tables("frame")]`)
	if got := nql.Repr(v); got != `[["graph", "frame", "sql"], ["edges", "nodes"]]` {
		t.Errorf("sources/tables: got %s", got)
	}
}

func TestFedCrossSubstrateJoinProgram(t *testing.T) {
	// Join the SQL edge table against graph degree, entirely from NQL.
	v := runFed(t, `
let deg = fed.scan("graph", "degree")
let rows = fed.scan("sql", "edges").join(deg, "dst", "id").sort("dst").collect()
let out = []
for r in rows { push(out, [r["dst"], r["in_degree"]]) }
return unique(out)`)
	if got := nql.Repr(v); got != `[["b", 1], ["c", 2]]` {
		t.Errorf("join program: got %s", got)
	}
}

func TestFedAggAndCell(t *testing.T) {
	v := runFed(t, `return fed.scan("sql", "edges").agg([], ["bytes", "sum", "s"]).cell(0, "s")`)
	if !nql.ValuesEqual(v, int64(400)) {
		t.Errorf("sum: got %s", nql.Repr(v))
	}
	v = runFed(t, `
let stats = fed.scan("frame", "edges").agg(["src"], ["bytes", "sum", "total"], ["bytes", "count", "n"]).sort("src").collect()
let out = []
for r in stats { push(out, [r["src"], r["total"], r["n"]]) }
return out`)
	if got := nql.Repr(v); got != `[["a", 150, 2], ["b", 250, 1]]` {
		t.Errorf("groupby: got %s", got)
	}
}

func TestFedWhereLambdaAndExplain(t *testing.T) {
	v := runFed(t, `return fed.scan("sql", "edges").where(fn(r) => r["bytes"] > 60 and r["src"] == "a").count()`)
	if !nql.ValuesEqual(v, int64(1)) {
		t.Errorf("where: got %s", nql.Repr(v))
	}
	ev := runFed(t, `return fed.scan("sql", "edges").filter("bytes", ">", 60).project("src").explain()`)
	s, ok := ev.(string)
	if !ok || !strings.Contains(s, "scan sql.edges [bytes > 60] cols=(src)") {
		t.Errorf("explain did not show pushdown: %s", nql.Repr(ev))
	}
}

func TestFedErrorsAreCategorized(t *testing.T) {
	in := nql.NewInterp(nql.DefaultLimits, fedGlobals())
	_, err := in.Run(`return fed.scan("sql", "edges").filter("ghost", "==", 1).count()`)
	if err == nil {
		t.Fatal("expected unknown-column error")
	}
	if nql.ClassOf(err) != string(nql.ErrAttr) {
		t.Errorf("unknown column class = %s, want %s (err: %v)", nql.ClassOf(err), nql.ErrAttr, err)
	}
	in = nql.NewInterp(nql.DefaultLimits, fedGlobals())
	_, err = in.Run(`return fed.scan("mongo", "edges").count()`)
	if err == nil || nql.ClassOf(err) != string(nql.ErrValue) {
		t.Errorf("unknown source: err=%v class=%s", err, nql.ClassOf(err))
	}
	in = nql.NewInterp(nql.DefaultLimits, fedGlobals())
	_, err = in.Run(`return fed.scan("sql", "edges").filter("bytes", "~", 1).count()`)
	if err == nil || nql.ClassOf(err) != string(nql.ErrArg) {
		t.Errorf("bad operator: err=%v class=%s", err, nql.ClassOf(err))
	}
}

// TestFedScanAnySourceRefused: "any" names no source. A scan of it fails
// as any unknown source does, with the sources the catalog can have.
func TestFedScanAnySourceRefused(t *testing.T) {
	in := nql.NewInterp(nql.DefaultLimits, fedGlobals())
	_, err := in.Run(`return fed.scan("any", "edges").count()`)
	if err == nil || nql.ClassOf(err) != string(nql.ErrValue) ||
		!strings.Contains(err.Error(), `federate: unknown scan source "any" (have graph, frame, sql)`) {
		t.Errorf("scan of any: err=%v class=%s", err, nql.ClassOf(err))
	}
}

// TestFedExplainPrintsEstimatesOnly: explain() annotates each operator
// with its row and cost estimates and names no join build side, which the
// join picks from its inputs' row counts when it runs.
func TestFedExplainPrintsEstimatesOnly(t *testing.T) {
	v := runFed(t, `return fed.scan("sql", "edges").filter("src", "==", "a").join(fed.scan("sql", "nodes"), "dst", "id").explain()`)
	s, _ := v.(string)
	if strings.Count(s, "rows~") != 3 || strings.Contains(s, "build=") {
		t.Errorf("explain:\n%s", s)
	}
}

func TestFedTwoPassSortTopK(t *testing.T) {
	v := runFed(t, `
let rows = fed.scan("graph", "degree").sort("id").sort("out_degree", false).limit(1).collect()
return rows[0]["id"]`)
	if got := nql.Repr(v); got != `"a"` {
		t.Errorf("top by out_degree: got %s", got)
	}
}

func TestFedExplainAnalyze(t *testing.T) {
	ev := runFed(t, `return fed.scan("sql", "edges").filter("bytes", ">", 60).project("src").explain_analyze()`)
	s, ok := ev.(string)
	if !ok {
		t.Fatalf("explain_analyze returned %s, want string", nql.Repr(ev))
	}
	// The rendered profile carries the optimized operator tree with row
	// counts and wall/own timings per node, the pushed-down scan included.
	if !strings.Contains(s, "scan sql.edges [bytes > 60] cols=(src)") {
		t.Errorf("explain_analyze lost the optimized plan shape:\n%s", s)
	}
	if !strings.Contains(s, "rows=2 wall=") || !strings.Contains(s, "own=") {
		t.Errorf("explain_analyze missing rows/timing annotations:\n%s", s)
	}
	// A SQL scan reads its table as a frame scan does: no sqldb frame
	// nests under it.
	if strings.Contains(s, "sql.select") || strings.Contains(s, "sql.scan") {
		t.Errorf("explain_analyze nests sqldb frames under a federated scan:\n%s", s)
	}
}
