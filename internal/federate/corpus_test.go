package federate

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/nql"
	"repro/internal/obs"
)

// corpusCase is one plan of the pinned executor corpus.
type corpusCase struct {
	name string
	plan Node
}

// corpusPin is a corpus plan's expected outcome: the result's schema and
// nql.Repr, or the exact error text, and the EXPLAIN ANALYZE frame tree
// (operator, detail and rows per frame, indented by depth; timings are
// not pinned).
type corpusPin struct {
	cols, repr, err, frames string
}

// outcome runs a plan under a profile and renders what the corpus pins.
func outcome(cat *Catalog, plan Node) (cols, repr, errText, frames string) {
	prof := obs.NewProfile()
	rel, err := RunContext(obs.WithProfile(context.Background(), prof), cat, plan)
	var sb strings.Builder
	for _, fr := range prof.Flatten() {
		sb.WriteString(strings.Repeat("  ", fr.Depth))
		sb.WriteString(fr.Op)
		if fr.Detail != "" {
			sb.WriteString(" " + fr.Detail)
		}
		fmt.Fprintf(&sb, " rows=%d\n", fr.Rows)
	}
	if err != nil {
		return "", "", err.Error(), sb.String()
	}
	return strings.Join(rel.Cols, ","), nql.Repr(rel.Value()), "", sb.String()
}

func corpusCases() []corpusCase {
	sqlEdges := func() Node { return &Scan{Source: SourceSQL, Table: "edges"} }
	okFn := FuncPred{Fn: func(row *nql.Map) (bool, error) {
		v, _ := row.Get("n")
		i, _ := v.(int64)
		return i >= 1, nil
	}}
	return []corpusCase{
		// Scans of every substrate and virtual tables.
		{name: "sql scan", plan: sqlEdges()},
		{name: "frame scan", plan: &Scan{Source: SourceFrame, Table: "edges"}},
		{name: "graph scan", plan: &Scan{Source: SourceGraph, Table: "edges"}},
		{name: "graph degree", plan: &Scan{Source: SourceGraph, Table: "degree"}},
		{name: "any source", plan: &Scan{Source: SourceAny, Table: "nodes"}},
		// Filter folds (And-conjunctions) with residuals, projections.
		{name: "folded and with residual", plan: &Project{Cols: []string{"src", "bytes"}, Input: &Filter{
			Pred: And{Preds: []Pred{
				Cmp{Col: "bytes", Op: ">", Value: int64(60)},
				Cmp{Col: "src", Op: "!=", Value: "o'brien"},
			}},
			Input: sqlEdges(),
		}}},
		// Cross-substrate join + sort.
		{name: "cross-substrate join", plan: &Sort{Ascending: true, Cols: []string{"dst"}, Input: &Join{
			Left:    &Filter{Input: sqlEdges(), Pred: Cmp{Col: "bytes", Op: ">=", Value: int64(100)}},
			Right:   &Scan{Source: SourceGraph, Table: "degree"},
			LeftKey: "dst", RightKey: "id",
		}}},
		// Joins of two SQL scans: a self-join with colliding columns, and one
		// whose filtered left side is the planner's build side.
		{name: "sql join", plan: &Join{Left: sqlEdges(), Right: sqlEdges(), LeftKey: "dst", RightKey: "src"}},
		{name: "sql join build left", plan: &Join{
			Left:    &Filter{Input: sqlEdges(), Pred: Cmp{Col: "src", Op: "==", Value: "b"}},
			Right:   sqlEdges(),
			LeftKey: "dst", RightKey: "src",
		}},
		// A frame×graph join whose build side is the smaller left input.
		{name: "frame-graph join build left", plan: &Join{
			Left:    &Filter{Input: &Scan{Source: SourceFrame, Table: "edges"}, Pred: Cmp{Col: "src", Op: "==", Value: "b"}},
			Right:   &Scan{Source: SourceGraph, Table: "edges"},
			LeftKey: "dst", RightKey: "src",
		}},
		// Aggregates over a SQL scan: grouped, global, empty-input global.
		{name: "sql agg", plan: &Aggregate{Input: sqlEdges(), GroupBy: []string{"src"}, Aggs: []AggSpec{
			{Col: "bytes", Fn: AggSum, As: "total"},
			{Col: "bytes", Fn: AggMean, As: "avg"},
			{Col: "bytes", Fn: AggMin, As: "lo"},
			{Col: "bytes", Fn: AggMax, As: "hi"},
			{Fn: AggCount, As: "n"},
		}}},
		{name: "sql global agg over no rows", plan: &Aggregate{Input: &Filter{
			Input: sqlEdges(), Pred: Cmp{Col: "bytes", Op: ">", Value: int64(1 << 40)},
		}, Aggs: []AggSpec{{Fn: AggCount, As: "n"}, {Col: "bytes", Fn: AggSum, As: "s"}}}},
		// Errors raised while an operator reads a SQL scan's cells: a
		// non-numeric sum input and an unknown left join key.
		{name: "sql agg non-numeric sum", plan: &Aggregate{Input: sqlEdges(), GroupBy: []string{"dst"},
			Aggs: []AggSpec{{Col: "src", Fn: AggSum, As: "s"}}}},
		{name: "join unknown left key", plan: &Join{Left: sqlEdges(), Right: sqlEdges(), LeftKey: "ghost", RightKey: "src"}},
		// Sort stability (two-pass) + limit, limit 0, negative limit.
		{name: "two-pass sort limit", plan: &Limit{N: 2, Input: &Sort{Ascending: false, Cols: []string{"out_degree"},
			Input: &Sort{Ascending: true, Cols: []string{"id"},
				Input: &Scan{Source: SourceGraph, Table: "degree"}}}}},
		{name: "limit 0", plan: &Limit{N: 0, Input: sqlEdges()}},
		{name: "negative limit", plan: &Limit{N: -3, Input: sqlEdges()}},
		{name: "limit past end", plan: &Limit{N: 100, Input: sqlEdges()}},
		// Opaque predicates: above an aggregate, above a join, stacked, and
		// above a join feeding an aggregate and sort.
		{name: "funcpred over agg", plan: &Sort{Ascending: true, Cols: []string{"src"}, Input: &Filter{
			Pred: okFn,
			Input: &Aggregate{Input: sqlEdges(), GroupBy: []string{"src"},
				Aggs: []AggSpec{{Col: "bytes", Fn: AggCount, As: "n"}}},
		}}},
		{name: "funcpred over join", plan: &Filter{Pred: okFn, Input: &Join{
			Left: sqlEdges(), Right: sqlEdges(), LeftKey: "dst", RightKey: "src"}}},
		{name: "stacked funcpreds", plan: &Filter{Pred: okFn, Input: &Filter{Pred: okFn, Input: sqlEdges()}}},
		{name: "funcpred over agg over join", plan: &Sort{Ascending: true, Cols: []string{"src"}, Input: &Filter{
			Pred: okFn,
			Input: &Aggregate{
				Input: &Join{Left: sqlEdges(), Right: sqlEdges(),
					LeftKey: "dst", RightKey: "src"},
				GroupBy: []string{"src"},
				Aggs:    []AggSpec{{Col: "bytes", Fn: AggCount, As: "n"}}},
		}}},
		// Error cases: the exact text is pinned.
		{name: "unknown source", plan: &Scan{Source: "mongo", Table: "edges"}},
		{name: "unknown table", plan: &Scan{Source: SourceSQL, Table: "ghost"}},
		{name: "sort unknown column", plan: &Sort{Cols: []string{"ghost"}, Input: sqlEdges()}},
		{name: "project unknown column", plan: &Project{Cols: []string{"ghost"}, Input: sqlEdges()}},
		{name: "sql scan unknown column", plan: &Filter{Input: sqlEdges(), Pred: Cmp{Col: "ghost", Op: "==", Value: int64(1)}}},
		{name: "group unknown column", plan: &Aggregate{Input: sqlEdges(), GroupBy: []string{"ghost"},
			Aggs: []AggSpec{{Fn: AggCount, As: "n"}}}},
		{name: "agg unknown column", plan: &Aggregate{Input: sqlEdges(),
			Aggs: []AggSpec{{Col: "ghost", Fn: AggSum, As: "s"}}}},
		{name: "unknown agg function", plan: &Aggregate{Input: sqlEdges(),
			Aggs: []AggSpec{{Col: "bytes", Fn: "median", As: "m"}}}},
		{name: "join unknown right key", plan: &Join{Left: sqlEdges(), Right: sqlEdges(), LeftKey: "dst", RightKey: "ghost"}},
		// Upstream error precedence: the scan's error, not the sort's.
		{name: "scan error before sort error", plan: &Sort{Cols: []string{"ghost"}, Input: &Scan{Source: SourceSQL, Table: "missing"}}},
	}
}

// TestPipelineMatchesLegacyCorpus pins every corpus plan's result, schema
// and error text, and its operator frame tree. The name is kept from the
// differential test this replaced, which checked a pipelined executor
// against the row executor on the same plans.
func TestPipelineMatchesLegacyCorpus(t *testing.T) {
	cat := testCatalog()
	for _, c := range corpusCases() {
		t.Run(c.name, func(t *testing.T) {
			want, ok := corpusPins[c.name]
			if !ok {
				t.Fatal("no pinned outcome")
			}
			cols, repr, errText, frames := outcome(cat, c.plan)
			if errText != want.err {
				t.Errorf("error %q, want %q", errText, want.err)
			}
			if cols != want.cols || repr != want.repr {
				t.Errorf("result\n  got  %s %s\n  want %s %s", cols, repr, want.cols, want.repr)
			}
			if frames != want.frames {
				t.Errorf("frames\n%s\nwant\n%s", frames, want.frames)
			}
		})
	}
}

// corpusPins holds each corpus plan's expected outcome.
var corpusPins = map[string]corpusPin{
	"sql scan": {cols: "src,dst,bytes",
		repr: `[{"src": "a", "dst": "b", "bytes": 100}, {"src": "b", "dst": "c", "bytes": 250}, {"src": "a", "dst": "c", "bytes": 50}, {"src": "c", "dst": "d", "bytes": 400}]`,
		frames: `scan sql.edges rows=4
`},
	"frame scan": {cols: "src,dst,bytes",
		repr: `[{"src": "a", "dst": "b", "bytes": 100}, {"src": "b", "dst": "c", "bytes": 250}, {"src": "a", "dst": "c", "bytes": 50}, {"src": "c", "dst": "d", "bytes": 400}]`,
		frames: `scan frame.edges rows=4
`},
	"graph scan": {cols: "src,dst,bytes",
		repr: `[{"src": "a", "dst": "b", "bytes": 100}, {"src": "b", "dst": "c", "bytes": 250}, {"src": "a", "dst": "c", "bytes": 50}, {"src": "c", "dst": "d", "bytes": 400}]`,
		frames: `scan graph.edges rows=4
`},
	"graph degree": {cols: "id,degree,in_degree,out_degree",
		repr: `[{"id": "a", "degree": 2, "in_degree": 0, "out_degree": 2}, {"id": "b", "degree": 2, "in_degree": 1, "out_degree": 1}, {"id": "c", "degree": 3, "in_degree": 2, "out_degree": 1}, {"id": "d", "degree": 1, "in_degree": 1, "out_degree": 0}]`,
		frames: `scan graph.degree rows=4
`},
	"any source": {cols: "id,ip",
		repr: `[{"id": "a", "ip": "10.0.0.1"}, {"id": "b", "ip": "10.0.0.2"}, {"id": "c", "ip": "15.76.0.3"}, {"id": "d", "ip": "15.76.0.4"}]`,
		frames: `scan sql.nodes rows=4
`},
	"folded and with residual": {cols: "src,bytes",
		repr: `[{"src": "a", "bytes": 100}, {"src": "b", "bytes": 250}, {"src": "c", "bytes": 400}]`,
		frames: `scan sql.edges [bytes > 60] [src != "o'brien"] cols=(src, bytes) rows=3
`},
	"cross-substrate join": {cols: "src,dst,bytes,degree,in_degree,out_degree",
		repr: `[{"src": "a", "dst": "b", "bytes": 100, "degree": 2, "in_degree": 1, "out_degree": 1}, {"src": "b", "dst": "c", "bytes": 250, "degree": 3, "in_degree": 2, "out_degree": 1}, {"src": "c", "dst": "d", "bytes": 400, "degree": 1, "in_degree": 1, "out_degree": 0}]`,
		frames: `sort (dst) asc rows=3
  join on dst = id rows=3
    scan sql.edges [bytes >= 100] rows=3
    scan graph.degree rows=4
`},
	"sql join": {cols: "src,dst,bytes,dst_r,bytes_r",
		repr: `[{"src": "a", "dst": "b", "bytes": 100, "dst_r": "c", "bytes_r": 250}, {"src": "b", "dst": "c", "bytes": 250, "dst_r": "d", "bytes_r": 400}, {"src": "a", "dst": "c", "bytes": 50, "dst_r": "d", "bytes_r": 400}]`,
		frames: `join on dst = src rows=3
  scan sql.edges rows=4
  scan sql.edges rows=4
`},
	"sql join build left": {cols: "src,dst,bytes,dst_r,bytes_r",
		repr: `[{"src": "b", "dst": "c", "bytes": 250, "dst_r": "d", "bytes_r": 400}]`,
		frames: `join on dst = src rows=1
  scan sql.edges [src == "b"] rows=1
  scan sql.edges rows=4
`},
	"frame-graph join build left": {cols: "src,dst,bytes,dst_r,bytes_r",
		repr: `[{"src": "b", "dst": "c", "bytes": 250, "dst_r": "d", "bytes_r": 400}]`,
		frames: `join on dst = src rows=1
  scan frame.edges [src == "b"] rows=1
  scan graph.edges rows=4
`},
	"sql agg": {cols: "src,total,avg,lo,hi,n",
		repr: `[{"src": "a", "total": 150, "avg": 75.0, "lo": 50, "hi": 100, "n": 2}, {"src": "b", "total": 250, "avg": 250.0, "lo": 250, "hi": 250, "n": 1}, {"src": "c", "total": 400, "avg": 400.0, "lo": 400, "hi": 400, "n": 1}]`,
		frames: `aggregate group=(src) aggs=(sum(bytes) as total, mean(bytes) as avg, min(bytes) as lo, max(bytes) as hi, count() as n) rows=3
  scan sql.edges rows=4
`},
	"sql global agg over no rows": {cols: "n,s",
		repr: `[{"n": 0, "s": nil}]`,
		frames: `aggregate group=() aggs=(count() as n, sum(bytes) as s) rows=1
  scan sql.edges [bytes > 1099511627776] rows=0
`},
	"sql agg non-numeric sum": {err: `federate: sum(src): value must be a number, got string`,
		frames: `aggregate group=(dst) aggs=(sum(src) as s) rows=-1
  scan sql.edges rows=4
`},
	"join unknown left key": {err: `federate: column "ghost" does not exist (have [src dst bytes])`,
		frames: `join on ghost = src rows=-1
  scan sql.edges rows=4
  scan sql.edges rows=4
`},
	"two-pass sort limit": {cols: "id,degree,in_degree,out_degree",
		repr: `[{"id": "a", "degree": 2, "in_degree": 0, "out_degree": 2}, {"id": "b", "degree": 2, "in_degree": 1, "out_degree": 1}]`,
		frames: `limit 2 rows=2
  sort (out_degree) desc rows=4
    sort (id) asc rows=4
      scan graph.degree rows=4
`},
	"limit 0": {cols: "src,dst,bytes",
		repr: `[]`,
		frames: `limit 0 rows=0
  scan sql.edges rows=4
`},
	"negative limit": {cols: "src,dst,bytes",
		repr: `[]`,
		frames: `limit -3 rows=0
  scan sql.edges rows=4
`},
	"limit past end": {cols: "src,dst,bytes",
		repr: `[{"src": "a", "dst": "b", "bytes": 100}, {"src": "b", "dst": "c", "bytes": 250}, {"src": "a", "dst": "c", "bytes": 50}, {"src": "c", "dst": "d", "bytes": 400}]`,
		frames: `limit 100 rows=4
  scan sql.edges rows=4
`},
	"funcpred over agg": {cols: "src,n",
		repr: `[{"src": "a", "n": 2}, {"src": "b", "n": 1}, {"src": "c", "n": 1}]`,
		frames: `sort (src) asc rows=3
  filter fn(row) rows=3
    aggregate group=(src) aggs=(count(bytes) as n) rows=3
      scan sql.edges rows=4
`},
	"funcpred over join": {cols: "src,dst,bytes,dst_r,bytes_r",
		repr: `[]`,
		frames: `filter fn(row) rows=0
  join on dst = src rows=3
    scan sql.edges rows=4
    scan sql.edges rows=4
`},
	"stacked funcpreds": {cols: "src,dst,bytes",
		repr: `[]`,
		frames: `filter fn(row) rows=0
  filter fn(row) rows=0
    scan sql.edges rows=4
`},
	"funcpred over agg over join": {cols: "src,n",
		repr: `[{"src": "a", "n": 2}, {"src": "b", "n": 1}]`,
		frames: `sort (src) asc rows=2
  filter fn(row) rows=2
    aggregate group=(src) aggs=(count(bytes) as n) rows=2
      join on dst = src rows=3
        scan sql.edges rows=4
        scan sql.edges rows=4
`},
	"unknown source": {err: `federate: unknown scan source "mongo" (have graph, frame, sql)`,
		frames: `scan mongo.edges rows=-1
`},
	"unknown table": {err: `sql: table "ghost" does not exist (have [nodes edges])`,
		frames: `scan sql.ghost rows=-1
`},
	"sort unknown column": {err: `federate: column "ghost" does not exist (have [src dst bytes])`,
		frames: `sort (ghost) desc rows=-1
  scan sql.edges rows=4
`},
	"project unknown column": {err: `federate: column "ghost" does not exist (have [src dst bytes])`,
		frames: `scan sql.edges cols=(ghost) rows=-1
`},
	"sql scan unknown column": {err: `federate: column "ghost" does not exist (have [src dst bytes])`,
		frames: `scan sql.edges [ghost == 1] rows=-1
`},
	"group unknown column": {err: `federate: column "ghost" does not exist (have [src dst bytes])`,
		frames: `aggregate group=(ghost) aggs=(count() as n) rows=-1
  scan sql.edges rows=4
`},
	"agg unknown column": {err: `federate: column "ghost" does not exist (have [src dst bytes])`,
		frames: `aggregate group=() aggs=(sum(ghost) as s) rows=-1
  scan sql.edges rows=4
`},
	"unknown agg function": {err: `federate: unknown aggregate "median" (have count, sum, mean, min, max)`,
		frames: `aggregate group=() aggs=(median(bytes) as m) rows=-1
  scan sql.edges rows=4
`},
	"join unknown right key": {err: `federate: column "ghost" does not exist (have [src dst bytes])`,
		frames: `join on dst = ghost rows=-1
  scan sql.edges rows=4
  scan sql.edges rows=4
`},
	"scan error before sort error": {err: `sql: table "missing" does not exist (have [nodes edges])`,
		frames: `sort (ghost) desc rows=-1
  scan sql.missing rows=-1
`},
}
