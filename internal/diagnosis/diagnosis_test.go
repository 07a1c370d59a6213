package diagnosis

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig)
	b := Generate(DefaultConfig)
	if !graph.Equal(a.G, b.G) {
		t.Fatal("graphs differ across runs")
	}
	if len(a.Probes) != len(b.Probes) {
		t.Fatal("probe counts differ")
	}
	for i := range a.Probes {
		if a.Probes[i].ID != b.Probes[i].ID || a.Probes[i].OK != b.Probes[i].OK {
			t.Fatalf("probe %d differs", i)
		}
	}
}

func TestFailedLinkCount(t *testing.T) {
	w := Generate(DefaultConfig)
	down := 0
	for _, e := range w.G.Edges() {
		switch e.Attrs["status"] {
		case "down":
			down++
		case "up":
		default:
			t.Fatalf("edge %s->%s has status %v", e.U, e.V, e.Attrs["status"])
		}
	}
	if down != DefaultConfig.FailedLinks {
		t.Fatalf("down links = %d, want %d", down, DefaultConfig.FailedLinks)
	}
}

// TestProbeObservationsConsistent: generated outcomes must match the
// injected failures exactly — a probe fails iff it crosses a down link.
func TestProbeObservationsConsistent(t *testing.T) {
	w := Generate(DefaultConfig)
	for _, p := range w.Probes {
		shouldFail := false
		for i := 0; i+1 < len(p.Path); i++ {
			a := w.G.EdgeAttrs(p.Path[i], p.Path[i+1])
			if a == nil {
				t.Fatalf("probe %s traverses nonexistent link %s->%s", p.ID, p.Path[i], p.Path[i+1])
			}
			if a["status"] == "down" {
				shouldFail = true
			}
		}
		if p.OK == shouldFail {
			t.Fatalf("probe %s observation inconsistent (ok=%v shouldFail=%v)", p.ID, p.OK, shouldFail)
		}
	}
}

func TestSomeProbesFail(t *testing.T) {
	w := Generate(DefaultConfig)
	failed := 0
	for _, p := range w.Probes {
		if !p.OK {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("scenario has no failed probes — diagnosis queries would be vacuous")
	}
	if failed == len(w.Probes) {
		t.Fatal("every probe failed — no discriminating evidence")
	}
}

func TestFramesShape(t *testing.T) {
	w := Generate(DefaultConfig)
	nodes, edges, probes := w.Frames()
	if nodes.NumRows() != w.G.NumNodes() || edges.NumRows() != w.G.NumEdges() {
		t.Fatal("frame shape mismatch")
	}
	if !edges.HasColumn("status") {
		t.Fatal("edges frame missing status")
	}
	if probes.NumRows() != len(w.Probes) {
		t.Fatal("probes frame shape mismatch")
	}
	p0 := probes.Row(0)
	if !strings.Contains(p0["path"].(string), ">") {
		t.Fatalf("path encoding = %v", p0["path"])
	}
}

func TestDatabaseTables(t *testing.T) {
	w := Generate(DefaultConfig)
	db := w.Database()
	f, err := db.Query("SELECT COUNT(*) AS n FROM probes WHERE ok = FALSE")
	if err != nil {
		t.Fatal(err)
	}
	if f.Row(0)["n"].(int64) == 0 {
		t.Fatal("no failed probes in DB")
	}
	f, err = db.Query("SELECT COUNT(*) AS n FROM edges WHERE status = 'down'")
	if err != nil || f.Row(0)["n"] != int64(DefaultConfig.FailedLinks) {
		t.Fatalf("down count = %v err=%v", f, err)
	}
}

func TestWrapperDescriptions(t *testing.T) {
	w := Wrapper{}
	for _, backend := range []string{"networkx", "pandas", "sql"} {
		d := w.Describe(backend)
		if !strings.Contains(d, "status") || !strings.Contains(d, "probe") {
			t.Errorf("%s description incomplete", backend)
		}
	}
}

func TestPropProbePathsAreWalks(t *testing.T) {
	f := func(seed int64) bool {
		w := Generate(Config{Nodes: 20, Edges: 50, Seed: seed, FailedLinks: 2, Probes: 10})
		for _, p := range w.Probes {
			if len(p.Path) < 2 {
				return false
			}
			for i := 0; i+1 < len(p.Path); i++ {
				if !w.G.HasEdge(p.Path[i], p.Path[i+1]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
