package federate

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/nql"
)

// TestCostDecisions pins the cost model's estimates: one per plan node,
// and a filtered input estimated smaller than the full table.
func TestCostDecisions(t *testing.T) {
	cat := testCatalog()
	j := &Join{
		Left: &Scan{Source: SourceSQL, Table: "edges",
			Pushed: []Cmp{{Col: "src", Op: "==", Value: "b"}}},
		Right:    &Scan{Source: SourceSQL, Table: "edges"},
		LeftKey:  "dst",
		RightKey: "src",
	}
	ests := annotate(cat, j)
	if len(ests) != 3 {
		t.Fatalf("join estimates = %d, want 3", len(ests))
	}
	if ests[1].EstRows >= ests[2].EstRows || ests[2].EstRows != 4 {
		t.Errorf("filtered left estimated %v rows, full right %v; want fewer on the left and 4 on the right", ests[1].EstRows, ests[2].EstRows)
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

// TestEpochStatsSurviveTheirNextLookup: however many epochs came before,
// an epoch's statistics are found again by its next lookup; the cache
// makes room only for a new epoch.
func TestEpochStatsSurviveTheirNextLookup(t *testing.T) {
	cat := testCatalog()
	for i := 0; i <= epochStatsMax+1; i++ {
		cat.Epoch = NewEpoch()
		if statsFor(cat) != statsFor(cat) {
			t.Fatalf("after %d new epochs, an epoch's stats were dropped by its next lookup", i)
		}
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
	relB, err := Run(cat, b) // cache hit: estimates recalled, closure is b's
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

// TestPlanCacheEntryNeverSteersExecution: execution reads the optimized
// plan alone, so a poisoned cache entry (here one estimate for a
// three-node plan) changes neither rows nor errors; Explain annotates the
// nodes the entry covers.
func TestPlanCacheEntryNeverSteersExecution(t *testing.T) {
	cat := testCatalog()
	cat.Epoch = NewEpoch()
	plan := &Join{
		Left:    &Filter{Input: &Scan{Source: SourceSQL, Table: "edges"}, Pred: Cmp{Col: "src", Op: "==", Value: "b"}},
		Right:   &Scan{Source: SourceGraph, Table: GraphTableEdges},
		LeftKey: "dst", RightKey: "src",
	}
	want := renderRel(run(t, &Catalog{Graph: cat.Graph, DB: cat.DB}, plan))
	DefaultCache.store(Explain(Optimize(plan)), cat.Epoch, []estimate{{EstRows: 7, EstCost: 9}})
	p := Prepare(cat, plan)
	rel, err := p.ExecuteContext(context.Background(), cat)
	if err != nil || renderRel(rel) != want {
		t.Fatalf("with a poisoned entry: %v %v, want %s", rel, err, want)
	}
	if got := strings.Count(p.Explain(), "rows~"); got != 1 || !strings.Contains(p.Explain(), "rows~7 cost~9") {
		t.Errorf("explain over a one-estimate entry:\n%s", p.Explain())
	}
}

// TestPlanCacheFIFOEviction fills a cache past its bound and checks the
// oldest entries leave first.
func TestPlanCacheFIFOEviction(t *testing.T) {
	c := NewPlanCache()
	epoch := uint64(1)
	for i := 0; i < planCacheMax+10; i++ {
		c.store(fmt.Sprintf("fp-%d", i), epoch, []estimate{{}})
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

// TestPreparedPlanIsOptimizedPlan: Prepare runs the optimized plan itself,
// so a plan the optimizer leaves alone is executed as the caller built it,
// never copied or annotated, and a prepared plan run against a catalog
// without the database reports the missing source.
func TestPreparedPlanIsOptimizedPlan(t *testing.T) {
	cat := testCatalog()
	join := &Join{
		Left:    &Scan{Source: SourceGraph, Table: "edges"},
		Right:   &Scan{Source: SourceSQL, Table: "edges"},
		LeftKey: "dst", RightKey: "src",
	}
	if p := Prepare(cat, join); p.plan != Node(join) {
		t.Errorf("a join the optimizer leaves alone was copied: %+v", p.plan)
	}
	agg := &Aggregate{
		Input: &Scan{Source: SourceSQL, Table: "edges"},
		Aggs:  []AggSpec{{Col: "bytes", Fn: AggSum, As: "t"}},
	}
	p := Prepare(cat, agg)
	if p.plan != Node(agg) {
		t.Errorf("an aggregate was copied: %+v", p.plan)
	}
	_, err := p.ExecuteContext(context.Background(), &Catalog{Graph: cat.Graph})
	if err == nil || err.Error() != "federate: catalog has no sql source" {
		t.Errorf("aggregate without a database: err = %v", err)
	}
}

// TestPreparedExplainAnnotations checks the cost annotations on the
// prepared rendering: row and cost estimates on every operator, and no
// build side, which the join decides from its inputs' row counts.
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
	if got := strings.Count(out, "  -- rows~"); got != 3 || strings.Count(out, " cost~") != 3 {
		t.Errorf("prepared explain annotates %d of 3 operators:\n%s", got, out)
	}
	if strings.Contains(out, "build=") {
		t.Errorf("prepared explain prints a build side:\n%s", out)
	}
}
