package nemoeval

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/dataframe"
	"repro/internal/diagnosis"
	"repro/internal/graph"
	"repro/internal/nql"
	"repro/internal/prompt"
	"repro/internal/traffic"
)

var isoConfig = traffic.Config{Nodes: 40, Edges: 160, Seed: 9}

// assertPristine checks that inst holds the dataset exactly as generated:
// its graph, its frames and its tables all equal a derivation from a
// freshly generated graph, independent of any builder's masters.
func assertPristine(t *testing.T, who string, inst *Instance) {
	t.Helper()
	g := traffic.Generate(isoConfig)
	nodes, edges := traffic.Frames(g)
	if d := graph.Diff(inst.G(), g); d != "" {
		t.Fatalf("%s: graph changed: %s", who, d)
	}
	gotNodes, gotEdges := inst.Frames()
	if !dataframe.Equal(gotNodes, nodes) || !dataframe.Equal(gotEdges, edges) {
		t.Fatalf("%s: frames changed", who)
	}
	db := inst.Database()
	if names := db.TableNames(); len(names) != 2 {
		t.Fatalf("%s: tables %v, want nodes and edges", who, names)
	}
	for name, want := range map[string]*dataframe.Frame{"nodes": nodes, "edges": edges} {
		tbl, err := db.Table(name)
		if err != nil || !dataframe.Equal(tbl, want) {
			t.Fatalf("%s: table %s changed (err %v)", who, name, err)
		}
	}
}

// TestTrafficInstanceWritesStayIsolated writes to one traffic instance
// through every substrate — SQL, the edge frame and the graph — and checks
// that a sibling instance, a fresh build (and so the shared masters) see
// none of it. The instance's own frame and table start from the same
// master columns, so they must not see each other's writes either.
func TestTrafficInstanceWritesStayIsolated(t *testing.T) {
	build := TrafficDataset(isoConfig)
	a, b := build(), build()
	b.Frames() // B holds its clones before A writes
	b.Database()

	aNodes, aEdges := a.Frames()
	db := a.Database()
	rows := aEdges.NumRows()

	res, err := db.Exec("DELETE FROM edges WHERE bytes > 500000")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected == 0 || int(res.Affected) == rows {
		t.Fatalf("DELETE removed %d of %d rows; want a proper subset", res.Affected, rows)
	}
	if _, err := db.Exec("UPDATE nodes SET ip = 'changed'"); err != nil {
		t.Fatal(err)
	}
	if err := aEdges.SetCell(0, "bytes", int64(-1)); err != nil {
		t.Fatal(err)
	}
	aEdges.AppendRow("h000", "h001", int64(-2), int64(1), int64(1))
	e := a.G().EdgesView()[0]
	if err := a.G().SetEdgeAttr(e.U, e.V, "bytes", int64(-3)); err != nil {
		t.Fatal(err)
	}

	tbl, err := db.Table("edges")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != rows-int(res.Affected) || aEdges.NumRows() != rows+1 {
		t.Fatalf("table has %d rows and edges_df %d; want %d and %d",
			tbl.NumRows(), aEdges.NumRows(), rows-int(res.Affected), rows+1)
	}
	bytes, _ := tbl.Column("bytes")
	for _, v := range bytes {
		if v == int64(-1) || v == int64(-2) {
			t.Fatal("edges_df write visible in the db table")
		}
	}
	if ip, _ := aNodes.Cell(0, "ip"); ip == "changed" {
		t.Fatal("db UPDATE visible in nodes_df")
	}
	if got, _ := aEdges.Cell(0, "bytes"); got != int64(-1) {
		t.Fatalf("edges_df lost its own write: bytes = %v", got)
	}

	assertPristine(t, "sibling instance", b)
	assertPristine(t, "fresh build", build())
}

// TestTrafficRelationalMastersConcurrent forces the one-time derivation of
// the relational masters from concurrent builders (run under -race): half
// the instances write to their clones while the others only read, and
// every reader, like a later fresh build, must see the pristine dataset.
func TestTrafficRelationalMastersConcurrent(t *testing.T) {
	build := TrafficDataset(isoConfig)
	insts := make([]*Instance, 8)
	var wg sync.WaitGroup
	for i := range insts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inst := build()
			if i%2 == 0 { // race both entry points into the derivation
				inst.Database()
			}
			inst.Bindings(prompt.BackendFederated)
			if i%2 == 1 {
				_, edges := inst.Frames()
				if err := edges.SetCell(0, "bytes", int64(-i)); err != nil {
					t.Error(err)
				}
				if _, err := inst.Database().Exec("UPDATE edges SET bytes = 0"); err != nil {
					t.Error(err)
				}
			}
			insts[i] = inst
		}(i)
	}
	wg.Wait()
	for i := 0; i < len(insts); i += 2 {
		assertPristine(t, fmt.Sprintf("reader %d", i), insts[i])
	}
	assertPristine(t, "fresh build", build())
}

// writeEverything writes through every representation of inst: the graph,
// the node, edge and probe frames, the database and the probes list.
func writeEverything(t *testing.T, inst *Instance, v string) {
	t.Helper()
	inst.Bindings(prompt.BackendFederated) // takes every representation
	g := inst.G()
	if err := g.SetNodeAttr(g.Nodes()[0], "ip", v); err != nil {
		t.Fatal(err)
	}
	nodes, edges := inst.Frames()
	for _, err := range []error{
		nodes.SetCell(0, "ip", v),
		edges.SetCell(0, "status", v),
		inst.probesFrame.SetCell(0, "ok", v),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := inst.Database().Exec(fmt.Sprintf("UPDATE probes SET ok = '%s'", v)); err != nil {
		t.Fatal(err)
	}
	probes := inst.probesList().(*nql.List)
	if err := probes.Items[0].(*nql.Map).Set("ok", v); err != nil {
		t.Fatal(err)
	}
	probes.Items[1] = nil
}

// digest is stateDigest over every representation.
func digest(t *testing.T, inst *Instance) string {
	t.Helper()
	d, err := stateDigest(prompt.BackendFederated, inst)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestGenerationInstancesStayIsolated writes to every representation of
// one diagnosis instance, probes list included, and checks that a sibling
// instance and a later one see none of it. A generation frozen from the
// written instance hands out instances that see its writes, and neither a
// later write through the frozen instance nor one through a sibling
// reaches them.
func TestGenerationInstancesStayIsolated(t *testing.T) {
	gen := DiagnosisGeneration(diagnosis.Generate(diagnosis.DefaultConfig))
	pristine := digest(t, gen.Instance())
	a, b := gen.Instance(), gen.Instance()
	b.Bindings(prompt.BackendFederated) // B holds its clones before A writes

	writeEverything(t, a, "a")
	written := digest(t, a)
	if written == pristine {
		t.Fatal("the writes did not change the instance")
	}
	if digest(t, b) != pristine || digest(t, gen.Instance()) != pristine {
		t.Fatal("a write reached a sibling instance")
	}
	writeEverything(t, b, "b")
	if digest(t, a) != written {
		t.Fatal("a sibling's write reached the instance")
	}

	next := a.Freeze()
	if digest(t, next.Instance()) != written {
		t.Fatal("the next generation lost the frozen instance's writes")
	}
	writeEverything(t, a, "late")
	c := next.Instance()
	writeEverything(t, c, "c")
	if digest(t, next.Instance()) != written {
		t.Fatal("a write reached the next generation")
	}
	if digest(t, gen.Instance()) != pristine {
		t.Fatal("a write reached the first generation")
	}
}

// TestFreezeKeepsUntakenRepresentations freezes an instance that took only
// its graph: the next generation has the written graph and the previous
// generation's frames and tables.
func TestFreezeKeepsUntakenRepresentations(t *testing.T) {
	gen := TrafficGeneration(traffic.Generate(isoConfig))
	inst := gen.Instance()
	g := inst.G()
	if err := g.SetNodeAttr(g.Nodes()[0], "ip", "written"); err != nil {
		t.Fatal(err)
	}
	next := inst.Freeze().Instance()
	if got := next.G().NodeAttrsView(g.Nodes()[0])["ip"]; got != "written" {
		t.Fatalf("next generation's graph has ip %v", got)
	}
	if !StateEqual(prompt.BackendPandas, next, gen.Instance()) || !StateEqual(prompt.BackendSQL, next, gen.Instance()) {
		t.Fatal("next generation's frames or tables differ from the previous generation's")
	}
}
