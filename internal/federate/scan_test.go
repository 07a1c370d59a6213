package federate

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataframe"
	"repro/internal/graph"
	"repro/internal/nql"
	"repro/internal/obs"
)

// scanCatalog extends testCatalog with five small tables, each present as
// both a frame and a SQL table: "empty" (the edges schema, no rows),
// "mixed" (column v holds strings on rows 0-2 and an int on row 3), "kw"
// (a column named after the SQL keyword ORDER), "select" (a table named
// after a keyword) and "dotted" (a column name holding a dot).
func scanCatalog() *Catalog {
	cat := testCatalog()
	empty := dataframe.New("src", "dst", "bytes")
	mixed := dataframe.New("src", "v")
	for i := 0; i < 3; i++ {
		mixed.AppendRow("a", fmt.Sprintf("a%d", i))
	}
	mixed.AppendRow("a", int64(3))
	kw := dataframe.New("src", "order")
	kw.AppendRow("a", int64(1))
	sel := dataframe.New("src", "dst")
	sel.AppendRow("a", "b")
	dotted := dataframe.New("src", "a.b")
	dotted.AppendRow("a", int64(1))
	dotted.AppendRow("b", int64(2))
	for name, f := range map[string]*dataframe.Frame{"empty": empty, "mixed": mixed, "kw": kw, "select": sel, "dotted": dotted} {
		cat.Frames[name] = f
		cat.DB.CreateTable(name, f.Clone())
	}
	return cat
}

// keepAll is an opaque predicate that keeps every row.
var keepAll = FuncPred{Fn: func(*nql.Map) (bool, error) { return true, nil }}

// underJoin prepares the scan as a join input below an opaque filter: a
// join of the scan with the graph's node IDs on key, where every scanned
// row matches exactly one node and the right side contributes no column,
// so the result is the scan's own.
func underJoin(cat *Catalog, scan *Scan, key string) *Prepared {
	return Prepare(cat, &Filter{Pred: keepAll, Input: &Join{
		Left:     scan,
		Right:    &Project{Cols: []string{"id"}, Input: &Scan{Source: SourceGraph, Table: GraphTableNodes}},
		LeftKey:  key,
		RightKey: "id",
	}})
}

// modes runs body over a fresh copy of scan in two plan positions: as a
// join input below an opaque filter, and bare. The subtest names are the
// executors that ran each position when these pins were recorded; they
// are kept so the test IDs stay stable.
func modes(t *testing.T, cat *Catalog, scan func() *Scan, key string, body func(t *testing.T, p *Prepared)) {
	t.Run("legacy", func(t *testing.T) { body(t, underJoin(cat, scan(), key)) })
	t.Run("pipeline", func(t *testing.T) { body(t, Prepare(cat, scan())) })
}

// scanSources are the sources every pinned scan case runs on: a SQL
// table, a frame holding the same cells, and SourceAny, which the
// planner resolves to one of them. A case has one expected outcome on
// all three.
var scanSources = []string{SourceSQL, SourceFrame, SourceAny}

// TestScanPinnedRelations pins the exact relation of scans with pushed
// conditions and projections, bare and as a join input, on every source.
// A case reads edges unless it names a table. Names are read as they
// are, so keywords serve as table and column names, and a literal is a
// value, never SQL text.
func TestScanPinnedRelations(t *testing.T) {
	cat := scanCatalog()
	cases := []struct {
		name   string
		table  string
		pushed []Cmp
		cols   []string
		key    string
		want   string
	}{
		{
			name:   "one condition",
			pushed: []Cmp{{Col: "bytes", Op: ">=", Value: int64(100)}},
			key:    "src",
			want:   `src,dst,bytes|"a","b",100|"b","c",250|"c","d",400`,
		},
		{
			name:   "two conditions",
			pushed: []Cmp{{Col: "src", Op: "==", Value: "a"}, {Col: "bytes", Op: "<", Value: int64(100)}},
			key:    "src",
			want:   `src,dst,bytes|"a","c",50`,
		},
		{
			name:   "condition outside the projection",
			pushed: []Cmp{{Col: "bytes", Op: ">", Value: int64(200)}},
			cols:   []string{"dst"},
			key:    "dst",
			want:   `dst|"c"|"d"`,
		},
		{
			name:   "local predicate with projection",
			pushed: []Cmp{{Col: "dst", Op: "contains", Value: "c"}},
			cols:   []string{"src", "dst"},
			key:    "src",
			want:   `src,dst|"b","c"|"a","c"`,
		},
		{
			name:   "no row survives",
			pushed: []Cmp{{Col: "bytes", Op: ">", Value: int64(1000)}},
			key:    "src",
			want:   `src,dst,bytes`,
		},
		{
			name: "keyword column", table: "kw",
			pushed: []Cmp{{Col: "order", Op: "==", Value: int64(1)}},
			key:    "src",
			want:   `src,order|"a",1`,
		},
		{
			name: "projection onto a keyword column", table: "kw",
			cols: []string{"order", "src"},
			key:  "src",
			want: `order,src|1,"a"`,
		},
		{
			name: "keyword table", table: "select",
			key:  "src",
			want: `src,dst|"a","b"`,
		},
		{
			name: "dotted column", table: "dotted",
			key:  "src",
			want: `src,a.b|"a",1|"b",2`,
		},
		{
			name: "condition and projection on a dotted column", table: "dotted",
			pushed: []Cmp{{Col: "a.b", Op: ">", Value: int64(1)}},
			cols:   []string{"a.b", "src"},
			key:    "src",
			want:   `a.b,src|2,"b"`,
		},
		{
			name:   "ordering against a literal with an apostrophe",
			pushed: []Cmp{{Col: "dst", Op: "<", Value: "c'"}},
			key:    "src",
			want:   `src,dst,bytes|"a","b",100|"b","c",250|"a","c",50`,
		},
	}
	for _, source := range scanSources {
		for _, c := range cases {
			table := c.table
			if table == "" {
				table = "edges"
			}
			scan := func() *Scan {
				return &Scan{Source: source, Table: table, Pushed: append([]Cmp(nil), c.pushed...), Cols: c.cols}
			}
			t.Run(source+"/"+c.name, func(t *testing.T) {
				modes(t, cat, scan, c.key, func(t *testing.T, p *Prepared) {
					rel, err := p.ExecuteContext(context.Background(), cat)
					if err != nil {
						t.Fatal(err)
					}
					if got := renderRel(rel); got != c.want {
						t.Errorf("got  %s\nwant %s", got, c.want)
					}
				})
			})
		}
	}
}

// renderRel renders a relation as "cols|row|row..." with NQL reprs.
func renderRel(rel *Relation) string {
	parts := []string{strings.Join(rel.Cols, ",")}
	for _, row := range rel.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = nql.Repr(v)
		}
		parts = append(parts, strings.Join(cells, ","))
	}
	return strings.Join(parts, "|")
}

// TestScanPinnedErrors pins the exact error (or its absence) of scans whose
// pushed conditions fail, bare and as a join input, on every source.
func TestScanPinnedErrors(t *testing.T) {
	cat := scanCatalog()
	cases := []struct {
		name, table string
		pushed      []Cmp
		want        string // "" means the scan must succeed
	}{
		{
			name: "missing column", table: "edges",
			pushed: []Cmp{{Col: "ghost", Op: "==", Value: int64(1)}},
			want:   `federate: column "ghost" does not exist (have [src dst bytes])`,
		},
		{
			name: "missing column on an empty table", table: "empty",
			pushed: []Cmp{{Col: "ghost", Op: "==", Value: int64(1)}},
		},
		{
			name: "missing column behind a condition false on row 0", table: "edges",
			pushed: []Cmp{{Col: "src", Op: "==", Value: "b"}, {Col: "ghost", Op: "==", Value: int64(1)}},
			want:   `federate: column "ghost" does not exist (have [src dst bytes])`,
		},
		{
			name: "missing column behind a condition false on every row", table: "edges",
			pushed: []Cmp{{Col: "src", Op: "==", Value: "z"}, {Col: "ghost", Op: "==", Value: int64(1)}},
		},
		{
			name: "type error on row 3", table: "mixed",
			pushed: []Cmp{{Col: "v", Op: "contains", Value: "a"}},
			want:   `federate: contains requires strings, got int and string`,
		},
		{
			name: "prefix of a number", table: "edges",
			pushed: []Cmp{{Col: "src", Op: "prefix", Value: int64(1)}},
			want:   `federate: prefix requires strings, got string and int`,
		},
		{
			name: "ordering across kinds", table: "mixed",
			pushed: []Cmp{{Col: "v", Op: "<", Value: "a1'"}},
			want:   `federate: cannot order int against string`,
		},
	}
	for _, source := range scanSources {
		for _, c := range cases {
			scan := func() *Scan {
				return &Scan{Source: source, Table: c.table, Pushed: append([]Cmp(nil), c.pushed...)}
			}
			t.Run(source+"/"+c.name, func(t *testing.T) {
				modes(t, cat, scan, "src", func(t *testing.T, p *Prepared) {
					_, err := p.ExecuteContext(context.Background(), cat)
					if got := fmt.Sprint(err); c.want == "" && err != nil || c.want != "" && got != c.want {
						t.Errorf("error %v, want %q", err, c.want)
					}
				})
			})
		}
	}
	t.Run("cancelled context", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for _, source := range scanSources {
			scan := func() *Scan {
				return &Scan{Source: source, Table: "edges", Pushed: []Cmp{{Col: "bytes", Op: ">", Value: int64(0)}}}
			}
			modes(t, cat, scan, "src", func(t *testing.T, p *Prepared) {
				_, err := p.ExecuteContext(ctx, cat)
				if err == nil || err.Error() != "federate: context canceled" {
					t.Errorf("%s scan: error %v, want federate: context canceled", source, err)
				}
			})
		}
	})
}

// TestScanPinnedAboveLimit runs one filter in two plan positions on every
// source: pushed into the scan, and above a Limit that keeps every row,
// where the filter operator runs it. Each case has one expected outcome
// in both positions.
func TestScanPinnedAboveLimit(t *testing.T) {
	cat := scanCatalog()
	cases := []struct {
		name, table string
		pred        Cmp
		want        string // the relation, or "error: " and its text
	}{
		{
			name: "ordering across kinds", table: "mixed",
			pred: Cmp{Col: "v", Op: ">", Value: int64(1)},
			want: `error: federate: cannot order string against int`,
		},
		{
			name: "prefix of a number cell", table: "mixed",
			pred: Cmp{Col: "v", Op: "prefix", Value: "a"},
			want: `error: federate: prefix requires strings, got int and string`,
		},
		{
			name: "equality across kinds", table: "mixed",
			pred: Cmp{Col: "v", Op: "==", Value: int64(3)},
			want: `src,v|"a",3`,
		},
		{
			name: "ordering numbers", table: "edges",
			pred: Cmp{Col: "bytes", Op: ">=", Value: int64(100)},
			want: `src,dst,bytes|"a","b",100|"b","c",250|"c","d",400`,
		},
	}
	for _, source := range scanSources {
		for _, c := range cases {
			scan := func() Node { return &Scan{Source: source, Table: c.table} }
			shapes := []struct {
				name string
				plan Node
			}{
				{"pushed", &Filter{Pred: c.pred, Input: scan()}},
				{"above limit", &Filter{Pred: c.pred, Input: &Limit{N: 100, Input: scan()}}},
			}
			for _, shape := range shapes {
				plan := shape.plan
				t.Run(source+"/"+c.name+"/"+shape.name, func(t *testing.T) {
					got := "error: "
					if rel, err := Run(cat, plan); err != nil {
						got += err.Error()
					} else {
						got = renderRel(rel)
					}
					if got != c.want {
						t.Errorf("%s\ngot  %s\nwant %s", strings.TrimSpace(Explain(plan)), got, c.want)
					}
				})
			}
		}
	}
}

// TestScanProfileFramesMatchAcrossModes: a SQL scan emits one scan frame
// counting the rows that survived its predicates, with no substrate
// frames under it, bare and as a join input.
func TestScanProfileFramesMatchAcrossModes(t *testing.T) {
	cat := scanCatalog()
	scan := func() *Scan {
		return &Scan{Source: SourceSQL, Table: "edges", Pushed: []Cmp{{Col: "bytes", Op: ">=", Value: int64(100)}}}
	}
	frames := func(p *Prepared) []string {
		prof := obs.NewProfile()
		if _, err := p.ExecuteContext(obs.WithProfile(context.Background(), prof), cat); err != nil {
			t.Fatal(err)
		}
		var out []string
		scanDepth := -1
		for _, fr := range prof.Flatten() {
			switch {
			case fr.Op == "scan" && strings.HasPrefix(fr.Detail, "sql."):
				scanDepth = fr.Depth
				out = append(out, fmt.Sprintf("scan(%s) rows=%d", fr.Detail, fr.Rows))
			case scanDepth >= 0 && fr.Depth > scanDepth:
				out = append(out, fmt.Sprintf("%s(%s) depth+%d rows=%d", fr.Op, fr.Detail, fr.Depth-scanDepth, fr.Rows))
			default:
				scanDepth = -1
			}
		}
		return out
	}
	joined := frames(underJoin(cat, scan(), "src"))
	bare := frames(Prepare(cat, scan()))
	want := "scan(sql.edges [bytes >= 100]) rows=3"
	if got := strings.Join(joined, ","); got != want {
		t.Errorf("join input frames:\n  got  %s\n  want %s", got, want)
	}
	if got := strings.Join(bare, ","); got != want {
		t.Errorf("bare scan frames:\n  got  %s\n  want %s", got, want)
	}
}

// TestGraphScanKeysFollowClone: the node and edge attribute columns of a
// graph scan are derived once per frozen master, yet a clone that writes a
// new attribute key scans it as a column while its master and a sibling
// clone, which derived their columns before the write, do not.
func TestGraphScanKeysFollowClone(t *testing.T) {
	master := testCatalog().Graph
	master.Freeze()
	sibling := master.Clone()
	writer := master.Clone()
	cols := func(g *graph.Graph, table string) string {
		t.Helper()
		rel, err := Run(&Catalog{Graph: g}, &Scan{Source: SourceGraph, Table: table})
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(rel.Cols, " ")
	}
	for _, g := range []*graph.Graph{master, sibling, writer} {
		if got := cols(g, GraphTableNodes) + "; " + cols(g, GraphTableEdges); got != "id ip; src dst bytes" {
			t.Fatalf("before the write: columns %q", got)
		}
	}
	if err := writer.SetNodeAttr("b", "role", "spine"); err != nil {
		t.Fatal(err)
	}
	if err := writer.SetEdgeAttr("c", "d", "alarm", true); err != nil {
		t.Fatal(err)
	}
	if got := cols(writer, GraphTableNodes) + "; " + cols(writer, GraphTableEdges); got != "id ip role; src dst alarm bytes" {
		t.Errorf("writer: columns %q", got)
	}
	rel, err := Run(&Catalog{Graph: writer}, &Scan{Source: SourceGraph, Table: GraphTableNodes, Pushed: []Cmp{{Col: "role", Op: "==", Value: "spine"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 1 || rel.Rows[0][0] != "b" {
		t.Errorf("writer: role == spine rows %v", rel.Rows)
	}
	for name, g := range map[string]*graph.Graph{"master": master, "sibling": sibling, "new clone": master.Clone()} {
		if got := cols(g, GraphTableNodes) + "; " + cols(g, GraphTableEdges); got != "id ip; src dst bytes" {
			t.Errorf("%s after the writer's write: columns %q", name, got)
		}
	}
}
