package federate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/dataframe"
	"repro/internal/graph"
	"repro/internal/nql"
	"repro/internal/obs"
	"repro/internal/sqldb"
)

// TestPipelineNaNKeys pins NaN canonicalization across join and group keys
// over frame and SQL scans: every NaN payload is one equivalence class, and
// int64/float64 collapse.
func TestPipelineNaNKeys(t *testing.T) {
	f := dataframe.New("k", "v")
	f.AppendRow(math.NaN(), int64(1))
	f.AppendRow(math.Float64frombits(0x7ff8000000000001), int64(2)) // another NaN payload
	f.AppendRow(int64(3), int64(3))
	f.AppendRow(3.0, int64(4))
	db := sqldb.NewDB()
	db.CreateTable("t", f.Clone())
	cat := &Catalog{Frames: map[string]*dataframe.Frame{"t": f}, DB: db}

	const (
		groups = `k,n|NaN,2|3,2`
		joined = `k,v,v_r|NaN,1,1|NaN,1,2|NaN,2,1|NaN,2,2|3,3,3|3,3,4|3.0,4,3|3.0,4,4`
	)
	for _, src := range []string{SourceFrame, SourceSQL} {
		rel, err := Run(cat, &Aggregate{
			Input:   &Scan{Source: src, Table: "t"},
			GroupBy: []string{"k"},
			Aggs:    []AggSpec{{Col: "v", Fn: AggCount, As: "n"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := renderRel(rel); got != groups {
			t.Errorf("%s group-by:\n  got  %s\n  want %s", src, got, groups)
		}
		rel, err = Run(cat, &Join{
			Left:    &Scan{Source: src, Table: "t"},
			Right:   &Scan{Source: src, Table: "t"},
			LeftKey: "k", RightKey: "k",
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := renderRel(rel); got != joined {
			t.Errorf("%s join:\n  got  %s\n  want %s", src, got, joined)
		}
	}
}

// TestPipelineFuncPredNotCalledOnUpstreamError: an opaque predicate is
// never invoked when its input fails.
func TestPipelineFuncPredNotCalledOnUpstreamError(t *testing.T) {
	cat := testCatalog()
	called := false
	plan := &Filter{
		Pred: FuncPred{Fn: func(*nql.Map) (bool, error) {
			called = true
			return true, nil
		}},
		Input: &Aggregate{
			Input:   &Scan{Source: SourceSQL, Table: "edges"},
			GroupBy: []string{"ghost"},
			Aggs:    []AggSpec{{Fn: AggCount, As: "n"}},
		},
	}
	_, err := Run(cat, plan)
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("err = %v, want group-key error", err)
	}
	if called {
		t.Error("FuncPred ran despite upstream error")
	}
}

// TestPipelinePanicPropagates: a panic inside an operator surfaces as a
// panic in the caller, not a hang or a swallowed error.
func TestPipelinePanicPropagates(t *testing.T) {
	cat := testCatalog()
	plan := &Filter{
		Pred:  FuncPred{Fn: func(*nql.Map) (bool, error) { panic("boom") }},
		Input: &Scan{Source: SourceSQL, Table: "edges"},
	}
	defer func() {
		if r := recover(); r == nil {
			t.Error("operator panic did not propagate")
		} else if fmt.Sprint(r) != "boom" {
			t.Errorf("panic value = %v, want boom", r)
		}
	}()
	_, _ = Run(cat, plan)
}

// bigCatalog builds rows-row frame and SQL copies of one table for the
// per-operator cancellation tests.
func bigCatalog(rows int) *Catalog {
	f := dataframe.New("k", "v")
	for i := 0; i < rows; i++ {
		f.AppendRow(int64(i%97), int64(i))
	}
	db := sqldb.NewDB()
	db.CreateTable("t", f.Clone())
	return &Catalog{Frames: map[string]*dataframe.Frame{"t": f}, DB: db}
}

// TestPipelineStageCancellation arms a short deadline against plans whose
// hot loop sits in each operator in turn, joins and aggregates over SQL
// scans included; every one must abort with the deadline error instead of
// running to completion, and the error must surface from that operator:
// its profile frame fails while the scans under it complete.
func TestPipelineStageCancellation(t *testing.T) {
	const rows = 400_000
	cat := bigCatalog(rows)
	slowFn := FuncPred{Fn: func(row *nql.Map) (bool, error) { return true, nil }}
	stages := []struct {
		name, op string
		plan     Node
	}{
		{"filter-funcpred", "filter", &Filter{Pred: slowFn, Input: &Scan{Source: SourceFrame, Table: "t"}}},
		{"aggregate", "aggregate", &Aggregate{Input: &Scan{Source: SourceFrame, Table: "t"},
			GroupBy: []string{"k"}, Aggs: []AggSpec{{Col: "v", Fn: AggSum, As: "s"}}}},
		{"sort", "sort", &Sort{Cols: []string{"v"}, Ascending: false,
			Input: &Scan{Source: SourceFrame, Table: "t"}}},
		{"sql-aggregate", "aggregate", &Aggregate{Input: &Scan{Source: SourceSQL, Table: "t"},
			GroupBy: []string{"k"}, Aggs: []AggSpec{{Col: "v", Fn: AggSum, As: "s"}}}},
		{"sql-join", "join", &Limit{N: 1, Input: &Join{
			Left:    &Scan{Source: SourceSQL, Table: "t"},
			Right:   &Scan{Source: SourceSQL, Table: "t"},
			LeftKey: "k", RightKey: "k"}}},
	}
	for _, st := range stages {
		t.Run(st.name, func(t *testing.T) {
			// Prepare (statistics over the whole table) runs before the
			// deadline is armed, so the deadline falls inside execution.
			p := Prepare(cat, st.plan)
			prof := obs.NewProfile()
			ctx, cancel := context.WithTimeout(obs.WithProfile(context.Background(), prof), 2*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := p.ExecuteContext(ctx, cat)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want wrapped DeadlineExceeded", err)
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("abort took %v, want a prompt checkpoint return", elapsed)
			}
			failed := ""
			for _, fr := range prof.Flatten() {
				if fr.Rows < 0 {
					failed = fr.Op // the deepest failed frame, in pre-order
				}
			}
			if failed != st.op {
				t.Errorf("cancellation surfaced from %q, want %q:\n%s", failed, st.op, prof.String())
			}
		})
	}
}

// TestPipelineProfileOperatorTree: an unfused aggregate emits its own
// frame with its scan's frame nested under it.
func TestPipelineProfileOperatorTree(t *testing.T) {
	cat := testCatalog()
	plan := &Sort{
		Cols: []string{"src"},
		Input: &Aggregate{
			Input:   &Scan{Source: SourceGraph, Table: "edges"},
			GroupBy: []string{"src"},
			Aggs:    []AggSpec{{Col: "bytes", Fn: AggSum, As: "total"}},
		},
	}
	prof := obs.NewProfile()
	ctx := obs.WithProfile(context.Background(), prof)
	rel, err := RunContext(ctx, cat, plan)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", rel.NumRows())
	}
	flat := prof.Flatten()
	if len(flat) != 3 {
		t.Fatalf("got %d frames, want 3 (sort > aggregate > scan):\n%s", len(flat), prof.String())
	}
	want := []struct {
		op    string
		depth int
		rows  int64
	}{
		{"sort", 0, 3},
		{"aggregate", 1, 3},
		{"scan", 2, 4},
	}
	for i, w := range want {
		got := flat[i]
		if got.Op != w.op || got.Depth != w.depth || got.Rows != w.rows {
			t.Fatalf("frame %d = %+v, want op=%s depth=%d rows=%d\n%s", i, got, w.op, w.depth, w.rows, prof.String())
		}
		if got.WallNS < got.OwnNS {
			t.Fatalf("frame %d wall %d < own %d", i, got.WallNS, got.OwnNS)
		}
	}
	if cat.prof != nil || cat.ctx != nil {
		t.Fatal("RunContext mutated the caller's catalog")
	}
}

// TestPipelineProfileNativeScanFrames: a pushed-down SQL scan reads its
// table as a frame scan does, so its profile is one scan frame counting
// the surviving rows, with no sql.* substrate frames under it.
func TestPipelineProfileNativeScanFrames(t *testing.T) {
	cat := testCatalog()
	plan := &Filter{
		Input: &Scan{Source: SourceSQL, Table: "edges"},
		Pred:  Cmp{Col: "bytes", Op: ">=", Value: int64(100)},
	}
	prof := obs.NewProfile()
	ctx := obs.WithProfile(context.Background(), prof)
	rel, err := RunContext(ctx, cat, plan)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", rel.NumRows())
	}
	var got []string
	for _, fr := range prof.Flatten() {
		got = append(got, fmt.Sprintf("%d:%s:%s:%d", fr.Depth, fr.Op, fr.Detail, fr.Rows))
	}
	if want := "0:scan:sql.edges [bytes >= 100]:3"; strings.Join(got, ",") != want {
		t.Errorf("frames = %s, want %s\n%s", strings.Join(got, ","), want, prof.String())
	}
}

// TestPipelineSQLAggProfile: an aggregate that reads a SQL scan's cells in
// place still nests the scan's own frame, counting the rows that survived
// its predicates.
func TestPipelineSQLAggProfile(t *testing.T) {
	cat := testCatalog()
	plan := &Aggregate{
		Input: &Filter{
			Input: &Scan{Source: SourceSQL, Table: "edges"},
			Pred:  Cmp{Col: "bytes", Op: ">=", Value: int64(100)},
		},
		GroupBy: []string{"src"},
		Aggs:    []AggSpec{{Col: "bytes", Fn: AggSum, As: "total"}},
	}
	prof := obs.NewProfile()
	ctx := obs.WithProfile(context.Background(), prof)
	if _, err := RunContext(ctx, cat, plan); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, fr := range prof.Flatten() {
		got = append(got, fmt.Sprintf("%d:%s:%d", fr.Depth, fr.Op, fr.Rows))
	}
	want := "0:aggregate:3,1:scan:3"
	if strings.Join(got, ",") != want {
		t.Errorf("frames = %s, want %s\n%s", strings.Join(got, ","), want, prof.String())
	}
}

// TestPipelineLargeResultRoundTrip pushes a few thousand rows through
// scan, project, limit and filter over both substrates and checks every
// row against the source table (row i holds k = i%97, v = i).
func TestPipelineLargeResultRoundTrip(t *testing.T) {
	const rows = 3*1024 + 17
	cat := bigCatalog(rows)
	check := func(plan Node, cols string, first, n int) {
		t.Helper()
		rel, err := Run(cat, plan)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(rel.Cols, ","); got != cols {
			t.Fatalf("cols %s, want %s\n%s", got, cols, Explain(plan))
		}
		if rel.NumRows() != n {
			t.Fatalf("%d rows, want %d\n%s", rel.NumRows(), n, Explain(plan))
		}
		for r, row := range rel.Rows {
			i := int64(first + r)
			want := []nql.Value{i % 97, i}
			if cols == "v" {
				want = want[1:]
			}
			for c := range want {
				if row[c] != want[c] {
					t.Fatalf("row %d = %v, want %v\n%s", r, row, want, Explain(plan))
				}
			}
		}
	}
	for _, src := range []string{SourceFrame, SourceSQL} {
		scan := func() Node { return &Scan{Source: src, Table: "t"} }
		check(scan(), "k,v", 0, rows)
		check(&Project{Cols: []string{"v"}, Input: scan()}, "v", 0, rows)
		check(&Limit{N: 1024 + 5, Input: scan()}, "k,v", 0, 1024+5)
		check(&Filter{Pred: Cmp{Col: "v", Op: ">=", Value: int64(1024)}, Input: scan()}, "k,v", 1024, rows-1024)
	}
}

// keyCatalog holds one table, "nodes", in all three sources: key cells k
// that collapse across int64/float64 and carry two NaN payloads, value
// cells v with a nil (a missing graph attribute), and a list cell in bad.
// Only the graph keeps the list; a frame stores it as its string form.
func keyCatalog() *Catalog {
	rows := []struct {
		id   string
		bad  any
		k, v any
	}{
		{"a", "x", int64(3), int64(10)},
		{"b", []any{int64(1)}, 3.0, nil},
		{"c", "y", math.NaN(), 2.5},
		{"d", "z", math.Float64frombits(0x7ff8000000000001), int64(4)},
		{"e", "w", "s", int64(7)},
	}
	g := graph.NewDirected()
	f := dataframe.New("id", "bad", "k", "v")
	for _, r := range rows {
		attrs := graph.Attrs{"bad": r.bad, "k": r.k}
		if r.v != nil {
			attrs["v"] = r.v
		}
		g.AddNode(r.id, attrs)
		f.AppendRow(r.id, r.bad, r.k, r.v)
	}
	db := sqldb.NewDB()
	db.CreateTable("nodes", f.Clone())
	return &Catalog{Graph: g, Frames: map[string]*dataframe.Frame{"nodes": f}, DB: db}
}

// TestOperatorsReadScanLikeRelation runs Aggregate and Join over a bare
// scan, whose cells they read in place, and over the same scan behind a
// Project, which lifts its rows first, for every scan source. Both must
// give the pinned columns, repr and error text. The unhashable-key cases
// run on the graph only, the one source that can hold a list cell.
func TestOperatorsReadScanLikeRelation(t *testing.T) {
	cat := keyCatalog()
	all := []string{"id", "bad", "k", "v"}
	aggs := []AggSpec{
		{Fn: AggCount, As: "n"}, {Col: "v", Fn: AggSum, As: "s"}, {Col: "v", Fn: AggMean, As: "m"},
		{Col: "v", Fn: AggMin, As: "lo"}, {Col: "v", Fn: AggMax, As: "hi"},
	}
	none := Cmp{Col: "id", Op: "==", Value: "zzz"}
	cases := []struct {
		name      string
		graphOnly bool
		plan      func(in func() Node) Node
		want      corpusPin
	}{
		{"group int/float and NaN keys, nil values", false, func(in func() Node) Node {
			return &Aggregate{Input: in(), GroupBy: []string{"k"}, Aggs: aggs}
		}, corpusPin{cols: "k,n,s,m,lo,hi",
			repr: `[{"k": 3, "n": 2, "s": 10, "m": 10.0, "lo": 10, "hi": 10}, {"k": NaN, "n": 2, "s": 6.5, "m": 3.25, "lo": 2.5, "hi": 4}, {"k": "s", "n": 1, "s": 7, "m": 7.0, "lo": 7, "hi": 7}]`}},
		{"global aggregate", false, func(in func() Node) Node {
			return &Aggregate{Input: in(), Aggs: aggs}
		}, corpusPin{cols: "n,s,m,lo,hi",
			repr: `[{"n": 5, "s": 23.5, "m": 5.875, "lo": 2.5, "hi": 10}]`}},
		{"join int/float and NaN keys", false, func(in func() Node) Node {
			return &Project{Cols: []string{"id", "id_r"}, Input: &Join{Left: in(), Right: in(), LeftKey: "k", RightKey: "k"}}
		}, corpusPin{cols: "id,id_r",
			repr: `[{"id": "a", "id_r": "a"}, {"id": "a", "id_r": "b"}, {"id": "b", "id_r": "a"}, {"id": "b", "id_r": "b"}, {"id": "c", "id_r": "c"}, {"id": "c", "id_r": "d"}, {"id": "d", "id_r": "c"}, {"id": "d", "id_r": "d"}, {"id": "e", "id_r": "e"}]`}},
		{"unhashable group key", true, func(in func() Node) Node {
			return &Aggregate{Input: in(), GroupBy: []string{"bad"}, Aggs: aggs}
		}, corpusPin{err: `federate: group key bad: unhashable value of type list`}},
		{"unhashable join key", true, func(in func() Node) Node {
			return &Join{Left: in(), Right: in(), LeftKey: "bad", RightKey: "bad"}
		}, corpusPin{err: `federate: join key bad: unhashable value of type list`}},
		{"unknown group column over no rows", false, func(in func() Node) Node {
			return &Aggregate{Input: &Filter{Input: in(), Pred: none}, GroupBy: []string{"ghost"}, Aggs: aggs}
		}, corpusPin{err: `federate: column "ghost" does not exist (have [id bad k v])`}},
		{"unknown join key over no rows", false, func(in func() Node) Node {
			return &Join{Left: &Filter{Input: in(), Pred: none}, Right: in(), LeftKey: "ghost", RightKey: "id"}
		}, corpusPin{err: `federate: column "ghost" does not exist (have [id bad k v])`}},
	}
	for _, src := range []string{SourceSQL, SourceFrame, SourceGraph} {
		inputs := map[string]func() Node{
			"scan": func() Node { return &Scan{Source: src, Table: "nodes"} },
			"lifted": func() Node {
				return &Project{Cols: all, Input: &Scan{Source: src, Table: "nodes", Cols: all}}
			},
		}
		for _, c := range cases {
			if c.graphOnly && src != SourceGraph {
				continue
			}
			for _, via := range []string{"scan", "lifted"} {
				cols, repr, errText, _ := outcome(cat, c.plan(inputs[via]))
				if cols != c.want.cols || repr != c.want.repr || errText != c.want.err {
					t.Errorf("%s %s via %s:\n  got  %q %s %q\n  want %q %s %q", src, c.name, via,
						cols, repr, errText, c.want.cols, c.want.repr, c.want.err)
				}
			}
		}
	}
}

// TestKeyContractAcrossScans pins the federated operators to the scalar
// contract. A composite group key whose strings hold the old field
// separator does not collide, and a comparison keeps the same rows on SQL,
// frame and graph scans: NaN equals only NaN and sorts below every number, -0 equals 0, and int64
// beyond 2^53 compares through float64.
func TestKeyContractAcrossScans(t *testing.T) {
	const p53 = int64(1) << 53
	f := dataframe.New("id", "a", "b", "x")
	g := graph.NewDirected()
	for i, r := range []struct {
		a, b string
		x    any
	}{
		{"x\x1f\x03y", "z", int64(1)},
		{"x", "y\x1f\x03z", 1.0},
		{"p", "q", math.NaN()},
		{"p", "q", math.Copysign(0, -1)},
		{"p", "q", p53 + 1},
	} {
		id := fmt.Sprint(i)
		f.AppendRow(id, r.a, r.b, r.x)
		g.AddNode(id, graph.Attrs{"a": r.a, "b": r.b, "x": r.x})
	}
	db := sqldb.NewDB()
	db.CreateTable("t", f.Clone())
	cat := &Catalog{Graph: g, Frames: map[string]*dataframe.Frame{"t": f}, DB: db}

	agg := &Aggregate{Input: &Scan{Source: SourceFrame, Table: "t"}, GroupBy: []string{"a", "b"},
		Aggs: []AggSpec{{Fn: AggCount, As: "n"}}}
	if _, repr, errText, _ := outcome(cat, agg); repr != `[{"a": "x\x1f\x03y", "b": "z", "n": 1}, {"a": "x", "b": "y\x1f\x03z", "n": 1}, {"a": "p", "b": "q", "n": 3}]` {
		t.Errorf("group by a, b: %s %s", repr, errText)
	}

	for _, c := range []struct {
		cmp  Cmp
		want string
	}{
		{Cmp{Col: "x", Op: "==", Value: math.NaN()}, "2"},
		{Cmp{Col: "x", Op: "==", Value: int64(1)}, "0,1"},
		{Cmp{Col: "x", Op: "==", Value: int64(0)}, "3"},
		{Cmp{Col: "x", Op: "==", Value: p53}, "4"},
		{Cmp{Col: "x", Op: "!=", Value: math.NaN()}, "0,1,3,4"},
		{Cmp{Col: "x", Op: "<", Value: math.Inf(-1)}, "2"},
		{Cmp{Col: "x", Op: ">=", Value: int64(0)}, "0,1,3,4"},
	} {
		for _, src := range []string{SourceSQL, SourceFrame, SourceGraph} {
			table := "t"
			if src == SourceGraph {
				table = "nodes"
			}
			rel, err := Run(cat, &Filter{Input: &Scan{Source: src, Table: table, Cols: []string{"id", "x"}}, Pred: c.cmp})
			if err != nil {
				t.Errorf("%s x %s %v: %v", src, c.cmp.Op, c.cmp.Value, err)
				continue
			}
			var ids []string
			for _, row := range rel.Rows {
				ids = append(ids, row[0].(string))
			}
			if got := strings.Join(ids, ","); got != c.want {
				t.Errorf("%s x %s %v: rows %s, want %s", src, c.cmp.Op, c.cmp.Value, got, c.want)
			}
		}
	}
}
