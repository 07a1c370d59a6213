package federate

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataframe"
	"repro/internal/graph"
	"repro/internal/nql"
	"repro/internal/sqldb"
)

// seekTestFrame builds the differential's frame: k holds strings that share
// runs of prefixes, an empty string and prefixes that are values
// themselves; kn is k with a nil and a number in it; w is a string
// except on rows 5 (an int) and 7 (nil), so ordering it fails there; n
// is the row number.
func seekTestFrame() *dataframe.Frame {
	ks := []string{"10.0.0.1", "10.0.0.10", "b", "10.0.0.2", "a", "ab", "", "abc", "10.1", "a", "10.0.0.1", "abd", "b"}
	f := dataframe.New("k", "kn", "w", "n")
	for i, k := range ks {
		var kn, w any = k, "x" + k
		switch i {
		case 3:
			kn = nil
		case 8:
			kn = int64(10)
		}
		switch i {
		case 5:
			w = int64(5)
		case 7:
			w = nil
		}
		f.AppendRow(k, kn, w, int64(i))
	}
	return f
}

// seekCases are frame-scan predicate lists: == and prefix seeks, with and
// without residual predicates, and the shapes that must scan.
func seekCases() [][]Cmp {
	c := func(col, op string, v any) Cmp { return Cmp{Col: col, Op: op, Value: v} }
	return [][]Cmp{
		{c("k", "==", "a")},
		{c("k", "==", "10.0.0.1")},
		{c("k", "==", "absent")},
		{c("k", "==", "")},
		{c("k", "prefix", "")},
		{c("k", "prefix", "a")},
		{c("k", "prefix", "ab")},
		{c("k", "prefix", "abc")},
		{c("k", "prefix", "10.0.0.1")},
		{c("k", "prefix", "10.")},
		{c("k", "prefix", "zz")},
		{c("k", "prefix", "10.0.0.1x")},
		{c("kn", "prefix", "a")},
		{c("kn", "prefix", "zz")},
		{c("kn", "==", "a")},
		{c("k", "prefix", "a"), c("w", "<", "m")},
		{c("k", "==", "b"), c("w", "<", "m")},
		{c("k", "prefix", "10"), c("w", "<", "m")},
		{c("k", "==", "a"), c("ghost", "==", int64(1))},
		{c("k", "prefix", "a"), c("n", ">", int64(8))},
		{c("k", "==", int64(1))},
		{c("k", "prefix", int64(1))},
		{c("ghost", "==", "a")},
		{c("ghost", "prefix", "a")},
		{c("k", "!=", "a")},
		{c("n", "==", "a")},
		{c("n", "prefix", "a")},
	}
}

// seekPlans wraps a scan of table t from source with the pushed
// predicates in the plan shapes that read a scan: bare, projected (also
// onto an unknown column), aggregated, sorted and limited, and as a join's
// left input.
func seekPlans(source string, pushed []Cmp) []Node {
	scan := func(cols ...string) *Scan {
		s := &Scan{Source: source, Table: "t", Pushed: pushed}
		if cols != nil {
			s.Cols = cols
		}
		return s
	}
	return []Node{
		scan(),
		scan("n", "k"),
		scan("ghost"),
		&Aggregate{Input: scan(), GroupBy: []string{"k"}, Aggs: []AggSpec{{Fn: AggCount, As: "c"}, {Col: "n", Fn: AggSum, As: "s"}}},
		&Limit{N: 3, Input: &Sort{Cols: []string{"k"}, Ascending: false, Input: scan()}},
		&Join{Left: scan(), Right: &Scan{Source: source, Table: "u"}, LeftKey: "k", RightKey: "k"},
	}
}

// sameOutcome runs plan on both catalogs and requires the same columns,
// rows in the same order, error text and, when frames is set, profile
// frames.
func sameOutcome(t *testing.T, name string, seek, scan *Catalog, plan Node, frames bool) {
	t.Helper()
	c1, r1, e1, f1 := outcome(seek, plan)
	c2, r2, e2, f2 := outcome(scan, plan)
	if c1 != c2 || r1 != r2 || e1 != e2 || frames && f1 != f2 {
		t.Errorf("%s: %s\nseek: cols %q err %q\n%s\n%s\nscan: cols %q err %q\n%s\n%s",
			name, strings.TrimSpace(Explain(plan)), c1, e1, r1, f1, c2, e2, r2, f2)
	}
}

// TestSeekMatchesScan is the index-vs-scan differential: frame scans that
// may seek against the scans of an unfrozen copy, and joins that may look
// graph nodes up by ID against the hash join.
func TestSeekMatchesScan(t *testing.T) {
	t.Run("frames", seekFramesMatchScan)
	t.Run("node-joins", seekJoinMatchesHashJoin)
}

// seekFramesMatchScan runs every plan over a frozen master (or a clone of
// it), where the scan may seek its leading == or prefix predicate in the
// master's index, and over an unfrozen copy of the same cells, where it
// scans. Rows, their order, error text and profile frames must agree.
// Written clones drop the index and renamed or rebuilt columns do not read
// it, so those variants scan on both sides. Each table is scanned as a
// frame and, through a sqldb.DB holding it, as a SQL table.
func seekFramesMatchScan(t *testing.T) {
	other := dataframe.New("k", "m")
	for _, k := range []string{"a", "ab", "10.0.0.1", "a"} {
		other.AppendRow(k, "m"+k)
	}
	variants := []struct {
		name string
		edit func(f *dataframe.Frame) (*dataframe.Frame, error)
	}{
		{"master", nil},
		{"clone", func(f *dataframe.Frame) (*dataframe.Frame, error) { return f.Clone(), nil }},
		{"set-cell", func(f *dataframe.Frame) (*dataframe.Frame, error) {
			c := f.Clone()
			return c, c.SetCell(6, "k", "ab")
		}},
		{"append-row", func(f *dataframe.Frame) (*dataframe.Frame, error) {
			c := f.Clone()
			c.AppendRow("a", "a", "xa", int64(13))
			return c, nil
		}},
		{"renamed", func(f *dataframe.Frame) (*dataframe.Frame, error) {
			// k moves to k0 and kn takes the name k, so k no longer names
			// the column its master indexed.
			c, err := f.Rename("k", "k0")
			if err != nil {
				return nil, err
			}
			return c.Rename("kn", "k")
		}},
		{"rebuilt", func(f *dataframe.Frame) (*dataframe.Frame, error) {
			col, _ := f.Column("k")
			return f.MutateIdx("k", func(i int) (any, error) { return col[len(col)-1-i], nil })
		}},
	}
	for _, v := range variants {
		master := seekTestFrame()
		master.Freeze()
		seekF, scanF := master, seekTestFrame()
		if v.edit != nil {
			var err error
			if seekF, err = v.edit(master); err != nil {
				t.Fatal(err)
			}
			if scanF, err = v.edit(scanF); err != nil {
				t.Fatal(err)
			}
		}
		seekCat, scanCat := seekCatalog(seekF, other), seekCatalog(scanF, other)
		for _, source := range []string{SourceFrame, SourceSQL} {
			for i, pushed := range seekCases() {
				for j, plan := range seekPlans(source, pushed) {
					sameOutcome(t, fmt.Sprintf("%s %s case %d plan %d", v.name, source, i, j), seekCat, scanCat, plan, true)
				}
			}
		}
	}
}

// seekCatalog holds t and u both as frames and as the tables of a
// sqldb.DB.
func seekCatalog(t, u *dataframe.Frame) *Catalog {
	db := sqldb.NewDB()
	db.CreateTable("t", t)
	db.CreateTable("u", u)
	return &Catalog{Frames: map[string]*dataframe.Frame{"t": t, "u": u}, DB: db}
}

// seekGraph is the node-join differential's graph: nodes n0-n5 with an ip
// attribute, and edges whose tags attribute is a list on one edge.
func seekGraph() *graph.Graph {
	g := graph.NewDirected()
	for i := 0; i < 6; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), graph.Attrs{"ip": fmt.Sprintf("10.0.0.%d", i)})
	}
	g.AddEdge("n0", "n1", graph.Attrs{"tags": "core"})
	g.AddEdge("n1", "n2", graph.Attrs{"tags": []any{"edge", "lab"}})
	g.AddEdge("n2", "n3", nil)
	return g
}

// seekJoinMatchesHashJoin is the differential for joins on a graph node
// table: a join whose right input is an unnarrowed node scan keyed on id
// looks nodes up by ID, and the same join over the node table behind an
// opaque filter hashes. Left keys cover strings that name
// nodes, duplicates, unknown IDs, ints, floats, bools, nil and (through
// the edge table) a list, which fails to hash; the graph is a frozen
// master, a clone, and a clone that added and removed nodes. A right side
// under a where(), a sort or a limit narrows or reorders the nodes, so
// it hashes, and is checked against the node table held as a frame.
func seekJoinMatchesHashJoin(t *testing.T) {
	left := dataframe.New("dst", "w")
	for i, k := range []any{"n1", "n1", int64(1), nil, "ghost", "n3", 1.0, true, "n0", "n9", "n5"} {
		left.AppendRow(k, int64(i))
	}
	master := seekGraph()
	master.Freeze()
	changed := master.Clone()
	changed.AddNode("n9", graph.Attrs{"ip": "10.0.0.9"})
	if err := changed.RemoveNode("n1"); err != nil {
		t.Fatal(err)
	}
	nodes := func(cols ...string) Node {
		return &Scan{Source: SourceGraph, Table: GraphTableNodes, Cols: cols}
	}
	hashed := func(cols ...string) Node {
		var n Node = &Filter{Pred: keepAll, Input: &Scan{Source: SourceGraph, Table: GraphTableNodes}}
		if cols != nil {
			n = &Project{Cols: cols, Input: n}
		}
		return n
	}
	// The node table as a frame is the oracle for right sides that
	// narrow or reorder the nodes, which must keep the join off the node
	// index: hashing the unnarrowed graph table would find the same rows
	// the index finds.
	frameNodes := func() Node { return &Scan{Source: SourceFrame, Table: "nodes"} }
	ipAbove := FuncPred{Fn: func(row *nql.Map) (bool, error) {
		ip, _ := row.Get("ip")
		return ip.(string) > "10.0.0.2", nil
	}}
	frameLeft := func() Node { return &Scan{Source: SourceFrame, Table: "l"} }
	edgeLeft := func() Node { return &Scan{Source: SourceGraph, Table: GraphTableEdges} }
	pairs := []struct {
		name       string
		seek, hash Node
	}{
		{"frame left", &Join{Left: frameLeft(), Right: nodes(), LeftKey: "dst", RightKey: "id"},
			&Join{Left: frameLeft(), Right: hashed(), LeftKey: "dst", RightKey: "id"}},
		{"projected right", &Join{Left: frameLeft(), Right: nodes("ip", "id"), LeftKey: "dst", RightKey: "id"},
			&Join{Left: frameLeft(), Right: hashed("ip", "id"), LeftKey: "dst", RightKey: "id"}},
		{"filtered left", &Join{Left: &Filter{Input: frameLeft(), Pred: Cmp{Col: "w", Op: "<", Value: int64(6)}}, Right: nodes(), LeftKey: "dst", RightKey: "id"},
			&Join{Left: &Filter{Input: frameLeft(), Pred: Cmp{Col: "w", Op: "<", Value: int64(6)}}, Right: hashed(), LeftKey: "dst", RightKey: "id"}},
		{"edge list keys", &Join{Left: edgeLeft(), Right: nodes(), LeftKey: "tags", RightKey: "id"},
			&Join{Left: edgeLeft(), Right: hashed(), LeftKey: "tags", RightKey: "id"}},
		{"edge src keys", &Sort{Cols: []string{"dst"}, Ascending: true, Input: &Join{Left: edgeLeft(), Right: nodes(), LeftKey: "src", RightKey: "id"}},
			&Sort{Cols: []string{"dst"}, Ascending: true, Input: &Join{Left: edgeLeft(), Right: hashed(), LeftKey: "src", RightKey: "id"}}},
		{"unknown left key", &Join{Left: frameLeft(), Right: nodes(), LeftKey: "ghost", RightKey: "id"},
			&Join{Left: frameLeft(), Right: hashed(), LeftKey: "ghost", RightKey: "id"}},
		{"filtered right", &Join{Left: frameLeft(), Right: &Filter{Input: nodes(), Pred: Cmp{Col: "ip", Op: ">", Value: "10.0.0.2"}}, LeftKey: "dst", RightKey: "id"},
			&Join{Left: frameLeft(), Right: &Filter{Input: hashed(), Pred: Cmp{Col: "ip", Op: ">", Value: "10.0.0.2"}}, LeftKey: "dst", RightKey: "id"}},
		{"right key ip", &Join{Left: frameLeft(), Right: nodes(), LeftKey: "dst", RightKey: "ip"},
			&Join{Left: frameLeft(), Right: hashed(), LeftKey: "dst", RightKey: "ip"}},
		{"projection without id", &Join{Left: frameLeft(), Right: nodes("ip"), LeftKey: "dst", RightKey: "id"},
			&Join{Left: frameLeft(), Right: hashed("ip"), LeftKey: "dst", RightKey: "id"}},
		{"right under a where()", &Join{Left: frameLeft(), Right: &Filter{Pred: ipAbove, Input: nodes()}, LeftKey: "dst", RightKey: "id"},
			&Join{Left: frameLeft(), Right: &Filter{Pred: ipAbove, Input: frameNodes()}, LeftKey: "dst", RightKey: "id"}},
		{"right under a sort", &Join{Left: frameLeft(), Right: &Sort{Cols: []string{"ip"}, Input: nodes()}, LeftKey: "dst", RightKey: "id"},
			&Join{Left: frameLeft(), Right: &Sort{Cols: []string{"ip"}, Input: frameNodes()}, LeftKey: "dst", RightKey: "id"}},
		{"right under a limit", &Join{Left: frameLeft(), Right: &Limit{N: 3, Input: nodes()}, LeftKey: "dst", RightKey: "id"},
			&Join{Left: frameLeft(), Right: &Limit{N: 3, Input: frameNodes()}, LeftKey: "dst", RightKey: "id"}},
	}
	for name, g := range map[string]*graph.Graph{"master": master, "clone": master.Clone(), "changed clone": changed} {
		nodeFrame := dataframe.New("id", "ip")
		for _, id := range g.Nodes() {
			nodeFrame.AppendRow(id, g.NodeAttrsView(id)["ip"])
		}
		cat := &Catalog{Graph: g, Frames: map[string]*dataframe.Frame{"l": left, "nodes": nodeFrame}}
		for _, p := range pairs {
			c1, r1, e1, _ := outcome(cat, p.seek)
			c2, r2, e2, _ := outcome(cat, p.hash)
			if c1 != c2 || r1 != r2 || e1 != e2 {
				t.Errorf("%s, %s:\nseek: cols %q err %q\n%s\nhash: cols %q err %q\n%s", name, p.name, c1, e1, r1, c2, e2, r2)
			}
		}
	}
}

// TestSeekConcurrentFirstLookups runs == and prefix frame scans through
// sibling clones of one frozen master at once, so the clones race to
// build the master's index on first lookup (run under -race by make
// race), and each must read the scan's answer.
func TestSeekConcurrentFirstLookups(t *testing.T) {
	build := func() *dataframe.Frame {
		f := dataframe.New("k", "n")
		for i := 0; i < 300; i++ {
			f.AppendRow("h"+strconv.Itoa(i%37), int64(i))
		}
		return f
	}
	plans := []Node{
		&Scan{Source: SourceFrame, Table: "t", Pushed: []Cmp{{Col: "k", Op: "==", Value: "h7"}}},
		&Scan{Source: SourceFrame, Table: "t", Pushed: []Cmp{{Col: "k", Op: "prefix", Value: "h1"}}},
	}
	want := make([]string, len(plans))
	for i, p := range plans {
		want[i] = renderRel(run(t, &Catalog{Frames: map[string]*dataframe.Frame{"t": build()}}, p))
	}
	master := build()
	master.Freeze()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cat := &Catalog{Frames: map[string]*dataframe.Frame{"t": master.Clone()}}
			for k := range plans {
				i := (w + k) % len(plans)
				rel, err := Run(cat, plans[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got := renderRel(rel); got != want[i] {
					t.Errorf("worker %d plan %d: %s, want %s", w, i, got, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
}

// endsAfter is a context whose Err reports err (context.Canceled when
// nil) from its (n+1)th call on, so a test can end a run at a chosen poll
// whatever the host's speed.
type endsAfter struct {
	context.Context
	n   int
	err error
}

func (c *endsAfter) Err() error {
	if c.n > 0 {
		c.n--
		return nil
	}
	if c.err != nil {
		return c.err
	}
	return context.Canceled
}

// TestSeekPollsContext pins that a seeking frame scan polls the context
// once, as the scan polls at its first row: a run whose context ends
// after ExecuteContext's own poll fails in the scan, on both paths, even
// when the index finds no row.
func TestSeekPollsContext(t *testing.T) {
	master := seekTestFrame()
	master.Freeze()
	for _, lit := range []string{"a", "absent"} {
		for _, op := range []string{"==", "prefix"} {
			plan := &Scan{Source: SourceFrame, Table: "t", Pushed: []Cmp{{Col: "k", Op: op, Value: lit}}}
			for name, f := range map[string]*dataframe.Frame{"seek": master.Clone(), "scan": seekTestFrame()} {
				ctx := &endsAfter{Context: context.Background(), n: 1}
				_, err := RunContext(ctx, &Catalog{Frames: map[string]*dataframe.Frame{"t": f}}, plan)
				if !errors.Is(err, context.Canceled) {
					t.Errorf("%s k %s %q: err = %v, want context.Canceled", name, op, lit, err)
				}
			}
		}
	}
}

// FuzzFrameSeek runs random frame scans through both paths of
// TestSeekMatchesScan. cells is a comma-separated column of strings, where
// "~" stands for nil and "#n" for the int n; lit is the literal of the
// leading == (op even) or prefix (op odd) predicate, and second picks a
// residual predicate: none, one that fails on int rows, a numeric one, or
// one on an unknown column.
func FuzzFrameSeek(f *testing.F) {
	f.Add("a,ab,,abc,b,a", "a", uint8(1), uint8(0))
	f.Add("10.0.0.1,10.0.0.10,10.1,~,#3", "10.0.0.1", uint8(1), uint8(1))
	f.Add("x,y,x,#2,x", "x", uint8(0), uint8(1))
	f.Add("", "", uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, cells, lit string, op, second uint8) {
		parts := strings.Split(cells, ",")
		if len(parts) > 64 {
			parts = parts[:64]
		}
		build := func() *dataframe.Frame {
			fr := dataframe.New("k", "w", "n")
			for i, p := range parts {
				var k any = p
				if p == "~" {
					k = nil
				} else if n, err := strconv.ParseInt(strings.TrimPrefix(p, "#"), 10, 64); err == nil && strings.HasPrefix(p, "#") {
					k = n
				}
				var w any = "w"
				if i%3 == 1 {
					w = int64(i)
				}
				fr.AppendRow(k, w, int64(i))
			}
			return fr
		}
		pushed := []Cmp{{Col: "k", Op: [2]string{"==", "prefix"}[op%2], Value: lit}}
		switch second % 4 {
		case 1:
			pushed = append(pushed, Cmp{Col: "w", Op: "<", Value: "m"})
		case 2:
			pushed = append(pushed, Cmp{Col: "n", Op: ">", Value: int64(len(parts) / 2)})
		case 3:
			pushed = append(pushed, Cmp{Col: "ghost", Op: "==", Value: "a"})
		}
		master := build()
		master.Freeze()
		plan := &Scan{Source: SourceFrame, Table: "t", Pushed: pushed}
		scanCat := &Catalog{Frames: map[string]*dataframe.Frame{"t": build()}}
		for _, fr := range []*dataframe.Frame{master, master.Clone()} {
			sameOutcome(t, "fuzz", &Catalog{Frames: map[string]*dataframe.Frame{"t": fr}}, scanCat, plan, true)
		}
	})
}
