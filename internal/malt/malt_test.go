package malt

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestExampleScaleMatchesPaper(t *testing.T) {
	g := Generate(Config{}).Graph()
	if g.NumNodes() != 5493 {
		t.Fatalf("nodes = %d, want 5493 (paper's example MALT dataset)", g.NumNodes())
	}
	if g.NumEdges() != 6424 {
		t.Fatalf("edges = %d, want 6424", g.NumEdges())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{}).Graph()
	b := Generate(Config{}).Graph()
	if !graph.Equal(a, b) {
		t.Fatal("generation must be deterministic")
	}
}

func TestEntityKindCounts(t *testing.T) {
	top := Generate(Config{})
	counts := map[string]int{}
	for _, e := range top.Entities {
		counts[e.Kind]++
	}
	want := map[string]int{
		KindNetwork:      1,
		KindDatacenter:   4,
		KindChassis:      64,
		KindPacketSwitch: 448,
		KindPort:         4928,
		KindControlPoint: 48,
	}
	for k, w := range want {
		if counts[k] != w {
			t.Errorf("%s count = %d, want %d", k, counts[k], w)
		}
	}
}

func TestContainmentHierarchy(t *testing.T) {
	top := Generate(Config{})
	g := top.Graph()
	// Every port has exactly one containing switch.
	for _, e := range top.Entities {
		if e.Kind != KindPort {
			continue
		}
		preds := g.Predecessors(e.ID)
		if len(preds) != 1 {
			t.Fatalf("port %s has %d parents", e.ID, len(preds))
		}
		if g.NodeAttrs(preds[0])["kind"] != KindPacketSwitch {
			t.Fatalf("port %s parent is %v", e.ID, g.NodeAttrs(preds[0])["kind"])
		}
	}
	// Chassis attributes present.
	for _, e := range top.Entities {
		if e.Kind == KindChassis {
			if _, ok := e.Attrs["capacity"].(int64); !ok {
				t.Fatalf("chassis %s missing capacity", e.ID)
			}
		}
	}
}

func TestControlEdges(t *testing.T) {
	top := Generate(Config{})
	controls := 0
	for _, r := range top.Relationships {
		if r.Kind == RelControls {
			controls++
			if !strings.HasPrefix(r.From, "cp.") || !strings.HasPrefix(r.To, "ps.") {
				t.Fatalf("controls edge %s -> %s", r.From, r.To)
			}
		}
	}
	if controls != ExampleConfig.ExtraControlLinks {
		t.Fatalf("controls edges = %d, want %d", controls, ExampleConfig.ExtraControlLinks)
	}
}

func TestFramesSchema(t *testing.T) {
	top := Generate(Config{Datacenters: 1, ChassisPerDC: 2, SwitchesPerCh: 2, PortsPerSwitch: 2, ControlPoints: 2, Seed: 3, ExtraControlLinks: 2})
	nodes, edges := top.Frames()
	if nodes.NumRows() != len(top.Entities) || edges.NumRows() != len(top.Relationships) {
		t.Fatalf("frames %d/%d vs topology %d/%d", nodes.NumRows(), edges.NumRows(), len(top.Entities), len(top.Relationships))
	}
	for _, col := range []string{"id", "kind", "name", "capacity"} {
		if !nodes.HasColumn(col) {
			t.Errorf("nodes frame missing %s", col)
		}
	}
}

func TestDatabaseQueries(t *testing.T) {
	top := Generate(Config{})
	db := DatabaseOf(top.Frames())
	f, err := db.Query("SELECT COUNT(*) AS n FROM entities WHERE kind = 'EK_PACKET_SWITCH'")
	if err != nil || f.Row(0)["n"] != int64(448) {
		t.Fatalf("switch count = %v err=%v", f, err)
	}
	f, err = db.Query("SELECT COUNT(*) AS n FROM relationships WHERE relation = 'RK_CONTROLS'")
	if err != nil || f.Row(0)["n"] != int64(980) {
		t.Fatalf("controls count = %v err=%v", f, err)
	}
}

func TestWrapperDescriptions(t *testing.T) {
	w := Wrapper{}
	for _, backend := range []string{"networkx", "pandas", "sql"} {
		d := w.Describe(backend)
		if !strings.Contains(d, "RK_CONTAINS") {
			t.Errorf("%s description missing relation kinds", backend)
		}
	}
}

func TestCustomConfig(t *testing.T) {
	top := Generate(Config{Datacenters: 2, ChassisPerDC: 3, SwitchesPerCh: 2, PortsPerSwitch: 4, ControlPoints: 3, Seed: 11, ExtraControlLinks: 5})
	g := top.Graph()
	// 1 net + 2 dc + 6 ch + 12 sw + 48 ports + 3 cp = 72
	if g.NumNodes() != 72 {
		t.Fatalf("nodes = %d, want 72", g.NumNodes())
	}
	// contains: 2 + 6 + 12 + 48 = 68, controls 5 → 73
	if g.NumEdges() != 73 {
		t.Fatalf("edges = %d, want 73", g.NumEdges())
	}
}
