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
	"repro/internal/nql"
	"repro/internal/obs"
	"repro/internal/sqldb"
)

// TestPipelineNaNKeys pins NaN canonicalization across join and group keys
// on both the fused SQL calls and the executor's own hash tables: every NaN
// payload is one equivalence class, and int64/float64 collapse.
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
// hot loop sits in each operator in turn, fused SQL calls included; every
// one must abort with the deadline error instead of running to completion.
func TestPipelineStageCancellation(t *testing.T) {
	const rows = 400_000
	cat := bigCatalog(rows)
	slowFn := FuncPred{Fn: func(row *nql.Map) (bool, error) { return true, nil }}
	stages := []struct {
		name string
		plan Node
	}{
		{"filter-funcpred", &Filter{Pred: slowFn, Input: &Scan{Source: SourceFrame, Table: "t"}}},
		{"aggregate", &Aggregate{Input: &Scan{Source: SourceFrame, Table: "t"},
			GroupBy: []string{"k"}, Aggs: []AggSpec{{Col: "v", Fn: AggSum, As: "s"}}}},
		{"sort", &Sort{Cols: []string{"v"}, Ascending: false,
			Input: &Scan{Source: SourceFrame, Table: "t"}}},
		{"fused-agg", &Aggregate{Input: &Scan{Source: SourceSQL, Table: "t"},
			GroupBy: []string{"k"}, Aggs: []AggSpec{{Col: "v", Fn: AggSum, As: "s"}}}},
		{"fused-join", &Limit{N: 1, Input: &Join{
			Left:    &Scan{Source: SourceSQL, Table: "t"},
			Right:   &Scan{Source: SourceSQL, Table: "t"},
			LeftKey: "k", RightKey: "k"}}},
	}
	for _, st := range stages {
		t.Run(st.name, func(t *testing.T) {
			explain := Prepare(cat, st.plan).Explain()
			if fused := strings.Contains(explain, " fused="); fused != strings.HasPrefix(st.name, "fused-") {
				t.Fatalf("plan fused = %v, want the operator the case names:\n%s", fused, explain)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := RunContext(ctx, cat, st.plan)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want wrapped DeadlineExceeded", err)
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("abort took %v, want a prompt checkpoint return", elapsed)
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

// TestPipelineProfileNativeScanFrames: a pushed-down SQL scan nests the
// substrate's frames (sql.select > sql.scan > sql.filter) under the scan
// operator, exactly like the text path would.
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
	byOp := map[string]int{}
	var scanDepth, selectDepth = -1, -1
	for _, fr := range prof.Flatten() {
		byOp[fr.Op]++
		switch fr.Op {
		case "scan":
			scanDepth = fr.Depth
		case "sql.select":
			selectDepth = fr.Depth
		}
	}
	for _, op := range []string{"scan", "sql.select", "sql.scan", "sql.filter"} {
		if byOp[op] != 1 {
			t.Errorf("op %q appears %d times, want 1:\n%s", op, byOp[op], prof.String())
		}
	}
	if selectDepth != scanDepth+1 {
		t.Errorf("sql.select depth %d, want nested under scan (depth %d):\n%s",
			selectDepth, scanDepth, prof.String())
	}
}

// TestPipelineFusedAggProfile: a fused sql group-by emits the aggregate's
// logical frame with the substrate frames under it and no separate scan
// frame.
func TestPipelineFusedAggProfile(t *testing.T) {
	cat := testCatalog()
	plan := &Aggregate{
		Input:   &Scan{Source: SourceSQL, Table: "edges"},
		GroupBy: []string{"src"},
		Aggs:    []AggSpec{{Col: "bytes", Fn: AggSum, As: "total"}},
	}
	p := Prepare(cat, plan)
	if p.decs[0].Fuse != fuseSQLAgg {
		t.Fatalf("plan not a fused aggregate:\n%s", p.Explain())
	}
	prof := obs.NewProfile()
	ctx := obs.WithProfile(context.Background(), prof)
	if _, err := p.ExecuteContext(ctx, cat); err != nil {
		t.Fatal(err)
	}
	flat := prof.Flatten()
	if len(flat) == 0 || flat[0].Op != "aggregate" || flat[0].Rows != 3 {
		t.Fatalf("fused agg root frame = %+v, want aggregate rows=3:\n%s", flat, prof.String())
	}
	for _, fr := range flat[1:] {
		if fr.Op == "scan" {
			t.Errorf("fused aggregate emitted a separate scan frame:\n%s", prof.String())
		}
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
