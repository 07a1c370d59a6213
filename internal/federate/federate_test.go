package federate

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dataframe"
	"repro/internal/graph"
	"repro/internal/nql"
	"repro/internal/sqldb"
)

// testCatalog builds a small catalog with the same data in all three
// substrates: four nodes, four weighted edges.
func testCatalog() *Catalog {
	g := graph.NewDirected()
	g.AddNode("a", graph.Attrs{"ip": "10.0.0.1"})
	g.AddNode("b", graph.Attrs{"ip": "10.0.0.2"})
	g.AddNode("c", graph.Attrs{"ip": "15.76.0.3"})
	g.AddNode("d", graph.Attrs{"ip": "15.76.0.4"})
	g.AddEdge("a", "b", graph.Attrs{"bytes": int64(100)})
	g.AddEdge("b", "c", graph.Attrs{"bytes": int64(250)})
	g.AddEdge("a", "c", graph.Attrs{"bytes": int64(50)})
	g.AddEdge("c", "d", graph.Attrs{"bytes": int64(400)})

	nodes := dataframe.New("id", "ip")
	edges := dataframe.New("src", "dst", "bytes")
	for _, id := range g.Nodes() {
		nodes.AppendRow(id, g.NodeAttrsView(id)["ip"])
	}
	for _, e := range g.EdgesView() {
		edges.AppendRow(e.U, e.V, e.Attrs["bytes"])
	}
	db := sqldb.NewDB()
	db.CreateTable("nodes", nodes.Clone())
	db.CreateTable("edges", edges.Clone())
	return &Catalog{
		Graph:  g,
		Frames: map[string]*dataframe.Frame{"nodes": nodes, "edges": edges},
		DB:     db,
	}
}

func run(t *testing.T, cat *Catalog, plan Node) *Relation {
	t.Helper()
	rel, err := Run(cat, plan)
	if err != nil {
		t.Fatalf("Run(%s): %v", strings.TrimSpace(Explain(plan)), err)
	}
	return rel
}

func TestScanAllSourcesAgree(t *testing.T) {
	cat := testCatalog()
	want := [][]nql.Value{
		{"a", "b", int64(100)},
		{"b", "c", int64(250)},
		{"a", "c", int64(50)},
		{"c", "d", int64(400)},
	}
	for _, source := range []string{SourceGraph, SourceFrame, SourceSQL} {
		rel := run(t, cat, &Scan{Source: source, Table: "edges"})
		if len(rel.Rows) != len(want) {
			t.Fatalf("%s scan: got %d rows, want %d", source, len(rel.Rows), len(want))
		}
		for i, wr := range want {
			for j, col := range []string{"src", "dst", "bytes"} {
				k, err := rel.colIndex(col)
				if err != nil {
					t.Fatalf("%s scan: %v", source, err)
				}
				if !nql.ValuesEqual(rel.Rows[i][k], wr[j]) {
					t.Errorf("%s scan row %d col %s: got %v, want %v", source, i, col, rel.Rows[i][k], wr[j])
				}
			}
		}
	}
}

func TestFilterPushdownMatchesLocalFilter(t *testing.T) {
	cat := testCatalog()
	for _, source := range []string{SourceGraph, SourceFrame, SourceSQL} {
		base := &Scan{Source: source, Table: "edges"}
		filtered := &Filter{Input: base, Pred: Cmp{Col: "bytes", Op: ">=", Value: int64(100)}}
		// Optimized path (pushdown) vs unoptimized path must agree.
		opt := run(t, cat, filtered)
		raw, err := execute(cat, filtered)
		if err != nil {
			t.Fatalf("%s: unoptimized exec: %v", source, err)
		}
		if nql.Repr(opt.Value()) != nql.Repr(raw.Value()) {
			t.Errorf("%s: pushdown changed results:\n  pushed: %s\n  local:  %s",
				source, nql.Repr(opt.Value()), nql.Repr(raw.Value()))
		}
		if opt.NumRows() != 3 {
			t.Errorf("%s: got %d rows, want 3", source, opt.NumRows())
		}
	}
}

func TestOptimizeMergesFiltersAndProjection(t *testing.T) {
	plan := Node(&Project{
		Cols: []string{"src", "bytes"},
		Input: &Filter{
			Pred: Cmp{Col: "bytes", Op: ">", Value: int64(60)},
			Input: &Filter{
				Pred:  Cmp{Col: "src", Op: "==", Value: "a"},
				Input: &Scan{Source: SourceSQL, Table: "edges"},
			},
		},
	})
	opt := Optimize(plan)
	scan, ok := opt.(*Scan)
	if !ok {
		t.Fatalf("optimized plan is %T, want *Scan:\n%s", opt, Explain(opt))
	}
	if len(scan.Pushed) != 2 {
		t.Errorf("pushed %d predicates, want 2", len(scan.Pushed))
	}
	if len(scan.Cols) != 2 {
		t.Errorf("scan cols %v, want (src, bytes)", scan.Cols)
	}
	// The original plan tree must be untouched (handles are shared).
	if orig := plan.(*Project).Input.(*Filter).Input.(*Filter).Input.(*Scan); orig.Pushed != nil || orig.Cols != nil {
		t.Errorf("Optimize mutated the original scan: %+v", orig)
	}
	cat := testCatalog()
	rel := run(t, cat, plan)
	if rel.NumRows() != 1 || !nql.ValuesEqual(rel.Rows[0][1], int64(100)) {
		t.Errorf("got %s, want one row (a, 100)", nql.Repr(rel.Value()))
	}
}

func TestCrossSubstrateJoin(t *testing.T) {
	cat := testCatalog()
	// Join SQL edges against graph degree — the cross-substrate case no
	// single backend can express.
	plan := &Sort{
		Ascending: true,
		Cols:      []string{"dst"},
		Input: &Join{
			Left:     &Filter{Input: &Scan{Source: SourceSQL, Table: "edges"}, Pred: Cmp{Col: "bytes", Op: ">=", Value: int64(100)}},
			Right:    &Scan{Source: SourceGraph, Table: "degree"},
			LeftKey:  "dst",
			RightKey: "id",
		},
	}
	rel := run(t, cat, plan)
	if rel.NumRows() != 3 {
		t.Fatalf("got %d rows, want 3:\n%s", rel.NumRows(), nql.Repr(rel.Value()))
	}
	di, err := rel.colIndex("in_degree")
	if err != nil {
		t.Fatal(err)
	}
	// Rows sorted by dst: b (in 1), c (in 2), d (in 1).
	wantIn := []int64{1, 2, 1}
	for i, w := range wantIn {
		if !nql.ValuesEqual(rel.Rows[i][di], w) {
			t.Errorf("row %d in_degree: got %v, want %d", i, rel.Rows[i][di], w)
		}
	}
}

func TestJoinRenamesCollidingColumns(t *testing.T) {
	cat := testCatalog()
	plan := &Join{
		Left:     &Scan{Source: SourceFrame, Table: "edges"},
		Right:    &Scan{Source: SourceFrame, Table: "edges"},
		LeftKey:  "dst",
		RightKey: "src",
	}
	rel := run(t, cat, plan)
	wantCols := []string{"src", "dst", "bytes", "dst_r", "bytes_r"}
	if strings.Join(rel.Cols, ",") != strings.Join(wantCols, ",") {
		t.Errorf("join cols %v, want %v", rel.Cols, wantCols)
	}
	// Two-hop paths: a>b>c, b>c>d, a>c>d.
	if rel.NumRows() != 3 {
		t.Errorf("got %d rows, want 3:\n%s", rel.NumRows(), nql.Repr(rel.Value()))
	}
}

func TestAggregate(t *testing.T) {
	cat := testCatalog()
	plan := &Aggregate{
		Input:   &Scan{Source: SourceSQL, Table: "edges"},
		GroupBy: []string{"src"},
		Aggs: []AggSpec{
			{Col: "bytes", Fn: AggSum, As: "total"},
			{Col: "bytes", Fn: AggCount, As: "n"},
			{Col: "bytes", Fn: AggMean, As: "avg"},
		},
	}
	rel := run(t, cat, plan)
	got := nql.Repr(rel.Value())
	want := `[{"src": "a", "total": 150, "n": 2, "avg": 75.0}, ` +
		`{"src": "b", "total": 250, "n": 1, "avg": 250.0}, ` +
		`{"src": "c", "total": 400, "n": 1, "avg": 400.0}]`
	if got != want {
		t.Errorf("aggregate:\n  got  %s\n  want %s", got, want)
	}
}

func TestGlobalAggregateOverEmptyInput(t *testing.T) {
	cat := testCatalog()
	plan := &Aggregate{
		Input: &Filter{
			Input: &Scan{Source: SourceFrame, Table: "edges"},
			Pred:  Cmp{Col: "bytes", Op: ">", Value: int64(1_000_000)},
		},
		Aggs: []AggSpec{{Fn: AggCount, As: "n"}, {Col: "bytes", Fn: AggSum, As: "s"}},
	}
	rel := run(t, cat, plan)
	if got := nql.Repr(rel.Value()); got != `[{"n": 0, "s": nil}]` {
		t.Errorf("empty aggregate: got %s", got)
	}
}

func TestSortStableTwoPassTopK(t *testing.T) {
	cat := testCatalog()
	// sort by id asc, then stable sort by out_degree desc = order by
	// (-out_degree, id).
	plan := &Limit{N: 2, Input: &Sort{
		Ascending: false, Cols: []string{"out_degree"},
		Input: &Sort{Ascending: true, Cols: []string{"id"},
			Input: &Scan{Source: SourceGraph, Table: "degree"}},
	}}
	rel := run(t, cat, plan)
	ids := []string{rel.Rows[0][0].(string), rel.Rows[1][0].(string)}
	if ids[0] != "a" || ids[1] != "b" {
		t.Errorf("top-2 by out-degree: got %v, want [a b]", ids)
	}
}

func TestGraphComputedTables(t *testing.T) {
	cat := testCatalog()
	pr := run(t, cat, &Scan{Source: SourceGraph, Table: GraphTablePageRank})
	if pr.NumRows() != 4 {
		t.Fatalf("pagerank rows: %d", pr.NumRows())
	}
	want := cat.Graph.PageRank(0.85, 100, 1e-9)
	for _, row := range pr.Rows {
		if !nql.ValuesEqual(row[1], want[row[0].(string)]) {
			t.Errorf("pagerank(%v) = %v, want %v", row[0], row[1], want[row[0].(string)])
		}
	}
	comp := run(t, cat, &Scan{Source: SourceGraph, Table: GraphTableComponents})
	for _, row := range comp.Rows {
		if !nql.ValuesEqual(row[1], int64(0)) {
			t.Errorf("component(%v) = %v, want 0 (single weak component)", row[0], row[1])
		}
	}
}

func TestScanErrors(t *testing.T) {
	cat := testCatalog()
	cases := []Node{
		&Scan{Source: "mongo", Table: "edges"},
		&Scan{Source: SourceGraph, Table: "ghost"},
		&Scan{Source: SourceFrame, Table: "ghost"},
		&Scan{Source: SourceSQL, Table: "ghost"},
		&Filter{Input: &Scan{Source: SourceFrame, Table: "edges"}, Pred: Cmp{Col: "ghost", Op: "==", Value: int64(1)}},
		&Project{Input: &Scan{Source: SourceGraph, Table: "nodes"}, Cols: []string{"ghost"}},
	}
	for _, plan := range cases {
		if _, err := Run(cat, plan); err == nil {
			t.Errorf("expected error for plan:\n%s", Explain(plan))
		}
	}
	empty := &Catalog{}
	if _, err := Run(empty, &Scan{Source: SourceGraph, Table: "nodes"}); err == nil {
		t.Error("expected error scanning missing graph source")
	}
}

func TestSQLPushdownFallsBackOnInexpressiblePredicates(t *testing.T) {
	cat := testCatalog()
	// A string literal holding a quote is a value, never SQL text, and the
	// scan still projects after filtering.
	plan := &Project{
		Cols: []string{"dst"},
		Input: &Filter{
			Input: &Scan{Source: SourceSQL, Table: "edges"},
			Pred:  Cmp{Col: "src", Op: "!=", Value: "o'brien"},
		},
	}
	rel := run(t, cat, plan)
	if rel.NumRows() != 4 || len(rel.Cols) != 1 || rel.Cols[0] != "dst" {
		t.Errorf("fallback scan: got cols %v rows %d", rel.Cols, rel.NumRows())
	}
	// prefix runs at the scan.
	prefix := &Filter{
		Input: &Scan{Source: SourceSQL, Table: "nodes"},
		Pred:  Cmp{Col: "ip", Op: "prefix", Value: "15.76."},
	}
	rel = run(t, cat, prefix)
	if rel.NumRows() != 2 {
		t.Errorf("prefix pushdown: got %d rows, want 2", rel.NumRows())
	}
}

func TestSQLPushdownFloatLiterals(t *testing.T) {
	cat := testCatalog()
	// Float literals, infinities and NaN compare against int cells by
	// value. NaN orders below every other number (scalar.Compare), so every
	// row's bytes exceed it.
	for _, c := range []struct {
		value nql.Value
		want  int
	}{
		{1e7, 0},
		{99.5, 3},
		{-1.5, 4},
		{math.Inf(1), 0},
		{math.NaN(), 4},
	} {
		plan := &Filter{
			Input: &Scan{Source: SourceSQL, Table: "edges"},
			Pred:  Cmp{Col: "bytes", Op: ">", Value: c.value},
		}
		rel, err := Run(cat, plan)
		if err != nil {
			t.Errorf("bytes > %v: %v", c.value, err)
			continue
		}
		if rel.NumRows() != c.want {
			t.Errorf("bytes > %v: got %d rows, want %d", c.value, rel.NumRows(), c.want)
		}
	}
}

func TestFilterAfterProjectKeepsUnknownColumnError(t *testing.T) {
	cat := testCatalog()
	// The filter references a column the projection dropped: optimized and
	// unoptimized execution must both fail (the fold is gated on the scan
	// still exposing the column).
	plan := &Filter{
		Pred: Cmp{Col: "bytes", Op: ">", Value: int64(10)},
		Input: &Project{
			Cols:  []string{"src"},
			Input: &Scan{Source: SourceFrame, Table: "edges"},
		},
	}
	if _, err := execute(cat, plan); err == nil {
		t.Error("unoptimized exec: expected unknown-column error")
	}
	if _, err := Run(cat, plan); err == nil {
		t.Error("optimized run: expected unknown-column error")
	}
	// A filter on a surviving column still folds and agrees.
	ok := &Filter{
		Pred: Cmp{Col: "src", Op: "==", Value: "a"},
		Input: &Project{
			Cols:  []string{"src"},
			Input: &Scan{Source: SourceFrame, Table: "edges"},
		},
	}
	rel, err := Run(cat, ok)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 2 {
		t.Errorf("folded filter on projected column: got %d rows, want 2", rel.NumRows())
	}
}

func TestExplain(t *testing.T) {
	plan := &Limit{N: 5, Input: &Join{
		Left:     &Scan{Source: SourceSQL, Table: "edges", Pushed: []Cmp{{Col: "bytes", Op: ">", Value: int64(10)}}},
		Right:    &Scan{Source: SourceGraph, Table: "pagerank"},
		LeftKey:  "dst",
		RightKey: "id",
	}}
	got := Explain(plan)
	for _, want := range []string{"limit 5", "join on dst = id", "scan sql.edges [bytes > 10]", "scan graph.pagerank"} {
		if !strings.Contains(got, want) {
			t.Errorf("explain missing %q:\n%s", want, got)
		}
	}
}

func TestRelationFrameRoundTrip(t *testing.T) {
	cat := testCatalog()
	rel := run(t, cat, &Scan{Source: SourceGraph, Table: "nodes"})
	f := rel.Frame()
	if f.NumRows() != 4 || strings.Join(f.Columns(), ",") != "id,ip" {
		t.Errorf("frame round trip: cols %v rows %d", f.Columns(), f.NumRows())
	}
}
