package federate

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataframe"
	"repro/internal/nql"
)

// TestResolveSourceAny pins SourceAny resolution: a table in every
// substrate resolves to the cheapest (sql when the native pushdown
// applies), and a frame-only table resolves to frame.
func TestResolveSourceAny(t *testing.T) {
	cat := testCatalog()
	cat.Epoch = NewEpoch()
	p := Prepare(cat, &Scan{Source: SourceAny, Table: "edges"})
	s, ok := p.plan.(*Scan)
	if !ok || s.Source != SourceSQL {
		t.Fatalf("SourceAny edges resolved to %+v, want sql scan", p.plan)
	}
	rel, err := p.ExecuteContext(context.Background(), cat)
	if err != nil || rel.NumRows() != 4 {
		t.Fatalf("resolved scan: rows=%v err=%v", rel, err)
	}

	only := dataframe.New("x")
	only.AppendRow(int64(1))
	cat2 := &Catalog{Frames: map[string]*dataframe.Frame{"solo": only}}
	p2 := Prepare(cat2, &Scan{Source: SourceAny, Table: "solo"})
	if s2 := p2.plan.(*Scan); s2.Source != SourceFrame {
		t.Fatalf("frame-only table resolved to %s, want frame", s2.Source)
	}

	// Unknown table: resolution still lands somewhere present so the
	// executor reports its canonical unknown-table error.
	if _, err := Run(cat, &Scan{Source: SourceAny, Table: "ghost"}); err == nil {
		t.Error("SourceAny over unknown table: expected execution error")
	}
}

// TestCostDecisions pins build-side choice and native scan marks.
func TestCostDecisions(t *testing.T) {
	cat := testCatalog()
	// Left side filtered to ~1 row, right side the full table: hash the left.
	j := &Join{
		Left: &Scan{Source: SourceSQL, Table: "edges",
			Pushed: []Cmp{{Col: "src", Op: "==", Value: "b"}}},
		Right:    &Scan{Source: SourceSQL, Table: "edges"},
		LeftKey:  "dst",
		RightKey: "src",
	}
	decs := annotate(cat, j)
	if len(decs) != 3 {
		t.Fatalf("join decisions = %d, want 3", len(decs))
	}
	if !decs[0].BuildLeft {
		t.Errorf("filtered-left join: BuildLeft = false, want true\n%+v", decs)
	}
	if !decs[1].Native || !decs[2].Native {
		t.Errorf("sql scans not native: %+v", decs)
	}

	// A graph scan is never native.
	j2 := &Join{
		Left:     &Scan{Source: SourceSQL, Table: "edges"},
		Right:    &Scan{Source: SourceGraph, Table: "degree"},
		LeftKey:  "dst",
		RightKey: "id",
	}
	if d := annotate(cat, j2); !d[1].Native || d[2].Native {
		t.Errorf("sql+graph join native marks: %+v", d)
	}

	// An invalid aggregate function plans like any other; the aggregate
	// raises the canonical error at execution.
	bad := &Aggregate{
		Input: &Scan{Source: SourceSQL, Table: "edges"},
		Aggs:  []AggSpec{{Col: "bytes", Fn: "median", As: "m"}},
	}
	if _, err := Run(cat, bad); err == nil || !strings.Contains(err.Error(), "unknown aggregate") {
		t.Errorf("invalid agg fn error = %v, want unknown aggregate", err)
	}
}

// TestIdentOK pins the identifier gate keeping native pushdown off names
// the SQL text path would fail to parse.
func TestIdentOK(t *testing.T) {
	for name, want := range map[string]bool{
		"edges": true, "a_b": true, "x1": true, "A": true,
		"": false, "1x": false, "a-b": false, "a b": false,
		"select": false, "WHERE": false, "naïve": false,
	} {
		if got := identOK(name); got != want {
			t.Errorf("identOK(%q) = %v, want %v", name, got, want)
		}
	}
	// A keyword table name keeps the whole scan off the native path.
	cat := testCatalog()
	if nativeScanOK(cat, &Scan{Source: SourceSQL, Table: "select"}) {
		t.Error("nativeScanOK accepted a keyword table name")
	}
	// A non-compilable pushed predicate (quote in the literal) leaves the
	// scan native with a residual; a bad column name in a compilable one
	// disables native entirely.
	if !nativeScanOK(cat, &Scan{Source: SourceSQL, Table: "edges",
		Pushed: []Cmp{{Col: "src", Op: "!=", Value: "o'brien"}}}) {
		t.Error("residual predicate should keep native scan (with local filter)")
	}
	if nativeScanOK(cat, &Scan{Source: SourceSQL, Table: "edges",
		Pushed: []Cmp{{Col: "a-b", Op: "==", Value: int64(1)}}}) {
		t.Error("bad predicate column accepted for native scan")
	}
}

// TestStatsCollection pins the statistics feeding the planner: row counts,
// sampled distincts, the graph degree histogram, and epoch caching.
func TestStatsCollection(t *testing.T) {
	cat := testCatalog()
	st := collectTableStats(cat, SourceSQL, "edges")
	if st == nil || st.Rows != 4 {
		t.Fatalf("sql edges stats = %+v, want 4 rows", st)
	}
	if d := st.distinctOf("src"); d != 3 {
		t.Errorf("distinct(src) = %d, want 3", d)
	}
	deg := collectTableStats(cat, SourceGraph, "degree")
	if deg == nil || deg.Rows != 4 || len(deg.DegreeHist) == 0 {
		t.Fatalf("graph degree stats = %+v, want histogram", deg)
	}
	pr := collectTableStats(cat, SourceGraph, "pagerank")
	if pr == nil || !pr.Compute {
		t.Errorf("pagerank stats = %+v, want Compute", pr)
	}
	if collectTableStats(cat, SourceSQL, "ghost") != nil {
		t.Error("unknown table produced stats")
	}

	// Same epoch → same cached catalogStats; epoch 0 → fresh every time.
	cat.Epoch = NewEpoch()
	if statsFor(cat) != statsFor(cat) {
		t.Error("epoch stats not shared")
	}
	cat.Epoch = 0
	if statsFor(cat) == statsFor(cat) {
		t.Error("epoch-0 stats unexpectedly shared")
	}
}

// TestPlanCacheHitMissEpoch exercises the shared cache end to end: a first
// Prepare misses and stores, a second hits, and a new epoch misses again.
func TestPlanCacheHitMissEpoch(t *testing.T) {
	cat := testCatalog()
	cat.Epoch = NewEpoch()
	plan := &Filter{
		Input: &Scan{Source: SourceSQL, Table: "edges"},
		Pred:  Cmp{Col: "bytes", Op: ">", Value: int64(60)},
	}
	h0, m0, _ := DefaultCache.Stats()
	Prepare(cat, plan)
	h1, m1, _ := DefaultCache.Stats()
	if h1 != h0 || m1 != m0+1 {
		t.Fatalf("first prepare: hits %d→%d misses %d→%d, want one miss", h0, h1, m0, m1)
	}
	Prepare(cat, plan)
	h2, m2, _ := DefaultCache.Stats()
	if h2 != h1+1 || m2 != m1 {
		t.Fatalf("second prepare: hits %d→%d misses %d→%d, want one hit", h1, h2, m1, m2)
	}
	cat.Epoch = NewEpoch()
	Prepare(cat, plan)
	_, m3, _ := DefaultCache.Stats()
	if m3 != m2+1 {
		t.Fatalf("new epoch: misses %d→%d, want one miss", m2, m3)
	}
	// Epoch 0 never touches the cache.
	cat.Epoch = 0
	h4a, m4a, _ := DefaultCache.Stats()
	Prepare(cat, plan)
	h4b, m4b, _ := DefaultCache.Stats()
	if h4a != h4b || m4a != m4b {
		t.Error("epoch-0 prepare touched the cache")
	}
}

// TestPlanCacheClosureRebinding: two plans with the same fingerprint but
// different FuncPred closures share one cache entry, yet each execution
// runs its own closure.
func TestPlanCacheClosureRebinding(t *testing.T) {
	cat := testCatalog()
	cat.Epoch = NewEpoch()
	mk := func(keep string) Node {
		return &Filter{
			Input: &Aggregate{
				Input:   &Scan{Source: SourceSQL, Table: "edges"},
				GroupBy: []string{"src"},
				Aggs:    []AggSpec{{Col: "bytes", Fn: AggCount, As: "n"}},
			},
			Pred: FuncPred{Fn: func(row *nql.Map) (bool, error) {
				v, _ := row.Get("src")
				return v == keep, nil
			}},
		}
	}
	a, b := mk("a"), mk("b")
	if Explain(Optimize(a)) != Explain(Optimize(b)) {
		t.Fatal("closure plans should share a fingerprint")
	}
	relA, err := Run(cat, a)
	if err != nil {
		t.Fatal(err)
	}
	relB, err := Run(cat, b) // cache hit: decisions recalled, closure is b's
	if err != nil {
		t.Fatal(err)
	}
	getSrc := func(r *Relation) string {
		if r.NumRows() != 1 {
			t.Fatalf("got %d rows, want 1", r.NumRows())
		}
		return r.Rows[0][0].(string)
	}
	if getSrc(relA) != "a" || getSrc(relB) != "b" {
		t.Errorf("closure rebinding broken: a→%s b→%s", getSrc(relA), getSrc(relB))
	}
}

// TestPlanCacheStaleEntryRecomputes: a cache entry that does not align
// with the plan shape (fingerprint collision / stale schema) falls back to
// a fresh computation instead of failing.
func TestPlanCacheStaleEntryRecomputes(t *testing.T) {
	cat := testCatalog()
	cat.Epoch = NewEpoch()
	plan := &Scan{Source: SourceAny, Table: "edges"}
	fp := Explain(Optimize(plan))
	// Poison the entry with a decision list of the wrong shape.
	DefaultCache.store(fp, cat.Epoch, []decision{{Kind: kindJoin}, {Kind: kindScan}})
	p := Prepare(cat, plan)
	if s, ok := p.plan.(*Scan); !ok || s.Source != SourceSQL {
		t.Fatalf("stale entry not recomputed: %+v", p.plan)
	}
	if rel, err := p.ExecuteContext(context.Background(), cat); err != nil || rel.NumRows() != 4 {
		t.Fatalf("stale-entry execution: rows=%v err=%v", rel, err)
	}
}

// TestPlanCacheFIFOEviction fills a cache past its bound and checks the
// oldest entries leave first.
func TestPlanCacheFIFOEviction(t *testing.T) {
	c := NewPlanCache()
	epoch := uint64(1)
	for i := 0; i < planCacheMax+10; i++ {
		c.store(fmt.Sprintf("fp-%d", i), epoch, []decision{{Kind: kindScan}})
	}
	_, _, entries := c.Stats()
	if entries != planCacheMax {
		t.Fatalf("entries = %d, want %d", entries, planCacheMax)
	}
	if _, ok := c.lookup("fp-0", epoch); ok {
		t.Error("oldest entry survived eviction")
	}
	if _, ok := c.lookup(fmt.Sprintf("fp-%d", planCacheMax+9), epoch); !ok {
		t.Error("newest entry missing")
	}
}

// TestPreparedPlanCarriesDecisions: Prepare copies the join build side
// onto the plan it executes, and leaves the caller's plan nodes untouched.
func TestPreparedPlanCarriesDecisions(t *testing.T) {
	cat := testCatalog()
	join := &Join{
		Left: &Filter{
			Input: &Scan{Source: SourceSQL, Table: "edges"},
			Pred:  Cmp{Col: "src", Op: "==", Value: "b"},
		},
		Right:    &Scan{Source: SourceSQL, Table: "edges"},
		LeftKey:  "dst",
		RightKey: "src",
	}
	j, ok := Prepare(cat, join).plan.(*Join)
	if !ok || !j.buildLeft {
		t.Fatalf("prepared join = %+v, want build-left", j)
	}
	if join.buildLeft {
		t.Fatal("Prepare wrote decisions onto the caller's join")
	}
	buildRight := &Join{
		Left:    &Scan{Source: SourceGraph, Table: "edges"},
		Right:   &Scan{Source: SourceSQL, Table: "edges"},
		LeftKey: "dst", RightKey: "src",
	}
	if p := Prepare(cat, buildRight); p.plan != Node(buildRight) {
		t.Errorf("a join with default decisions was copied: %+v", p.plan)
	}
	agg := &Aggregate{
		Input: &Scan{Source: SourceSQL, Table: "edges"},
		Aggs:  []AggSpec{{Col: "bytes", Fn: AggSum, As: "t"}},
	}
	p := Prepare(cat, agg)
	if p.plan != Node(agg) {
		t.Errorf("an aggregate was copied: %+v", p.plan)
	}
	// Run against a catalog without the database, the prepared plan
	// reports the missing source.
	_, err := p.ExecuteContext(context.Background(), &Catalog{Graph: cat.Graph})
	if err == nil || err.Error() != "federate: catalog has no sql source" {
		t.Errorf("aggregate without a database: err = %v", err)
	}
}

// TestPreparedExplainAnnotations checks the cost annotations on the
// prepared rendering: row/cost estimates, native marks, build side.
func TestPreparedExplainAnnotations(t *testing.T) {
	cat := testCatalog()
	p := Prepare(cat, &Join{
		Left: &Filter{
			Input: &Scan{Source: SourceSQL, Table: "edges"},
			Pred:  Cmp{Col: "src", Op: "==", Value: "b"},
		},
		Right:    &Scan{Source: SourceSQL, Table: "edges"},
		LeftKey:  "dst",
		RightKey: "src",
	})
	out := p.Explain()
	for _, want := range []string{"rows~", "cost~", " native", " build=left"} {
		if !strings.Contains(out, want) {
			t.Errorf("prepared explain missing %q:\n%s", want, out)
		}
	}
}
