package nemoeval

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/traffic"
)

// sweepCfg is the scale the shard pipeline exists for: a graph no single
// evaluation instance would want to clone per worker.
var sweepCfg = traffic.Config{Nodes: 10000, Edges: 50000, Seed: 42}

// TestStreamSweepShardedMatchesUnsharded is the pipeline's core guarantee:
// the merged aggregates of an 8-shard sweep are byte-identical to the
// unsharded (single-shard) run on the same seed, for serial and parallel
// worker pools alike.
func TestStreamSweepShardedMatchesUnsharded(t *testing.T) {
	r := NewRunner()
	unsharded, err := r.StreamSweep(sweepCfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := r.StreamSweep(sweepCfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if unsharded != sharded {
		t.Fatalf("8-shard sweep diverged from unsharded run:\n--- unsharded ---\n%s--- sharded ---\n%s", unsharded, sharded)
	}
	serial := NewRunner()
	serial.Workers = 1
	serialOut, err := serial.StreamSweep(sweepCfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if serialOut != sharded {
		t.Fatalf("worker count changed the sweep report:\n--- serial ---\n%s--- parallel ---\n%s", serialOut, sharded)
	}
	// Sanity on the content: all streamed edges must have arrived.
	if want := "10000 nodes, 50000 edges"; !strings.Contains(sharded, want) {
		t.Fatalf("report missing %q:\n%s", want, sharded)
	}
}

// TestShardedBuildResumesFromCursor stops a sharded build mid-stream,
// round-trips the cursor through its serialized form, resumes, and checks
// every shard master is byte-identical to a straight-through build.
func TestShardedBuildResumesFromCursor(t *testing.T) {
	cfg := traffic.Config{Nodes: 2000, Edges: 12000, Seed: 7}
	straight, err := BuildShardedTraffic(cfg, 4, 1024)
	if err != nil {
		t.Fatal(err)
	}

	resumedBuild, err := NewShardedTraffic(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	st, err := traffic.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for consumed := 0; consumed < 5000; {
		b := st.Next(700)
		resumedBuild.Apply(b)
		consumed += len(b)
	}
	cur, err := traffic.ParseCursor(st.Cursor().Encode())
	if err != nil {
		t.Fatal(err)
	}
	st2, err := traffic.ResumeStream(cur)
	if err != nil {
		t.Fatal(err)
	}
	for {
		b := st2.Next(901)
		if len(b) == 0 {
			break
		}
		resumedBuild.Apply(b)
	}
	resumedBuild.Freeze()

	for i := range straight.Shards {
		if !graph.Equal(straight.Shards[i].Master, resumedBuild.Shards[i].Master) {
			t.Fatalf("shard %d differs after stop/resume", i)
		}
	}
	r := NewRunner()
	a, err := r.SweepDataset(straight)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.SweepDataset(resumedBuild)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report() != b.Report() {
		t.Fatal("resumed dataset swept differently from straight-through build")
	}
}

// TestApplyAfterFreezeIsolatesLiveClones resumes a frozen sharded build
// while clones of its masters are live: the first Apply after Freeze must
// copy each master's shared containers, so the live clones keep the
// pre-resume graph, and writes to a live clone never reach its master.
func TestApplyAfterFreezeIsolatesLiveClones(t *testing.T) {
	cfg := traffic.Config{Nodes: 300, Edges: 1800, Seed: 5}
	build := func(edges int) *ShardedTraffic {
		d, err := NewShardedTraffic(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		st, err := traffic.NewStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.Apply(st.Next(edges))
		d.Freeze()
		return d
	}
	half := build(900)
	d := build(900)
	live := make([]*graph.Graph, len(d.Shards))
	for i, sh := range d.Shards {
		live[i] = sh.Master.Clone()
	}

	st, err := traffic.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.Next(900)
	d.Apply(st.Next(900))
	d.Freeze()

	full := build(1800)
	for i := range d.Shards {
		if !graph.Equal(live[i], half.Shards[i].Master) {
			t.Errorf("shard %d: live clone observed the resumed batch: %s", i, graph.Diff(live[i], half.Shards[i].Master))
		}
		if !graph.Equal(d.Shards[i].Master, full.Shards[i].Master) {
			t.Errorf("shard %d: resumed master differs from a straight build: %s", i, graph.Diff(d.Shards[i].Master, full.Shards[i].Master))
		}
		id := live[i].Nodes()[0]
		if err := live[i].SetNodeAttr(id, "ip", "written"); err != nil {
			t.Fatal(err)
		}
		if d.Shards[i].Master.NodeAttrsView(id)["ip"] == "written" {
			t.Errorf("shard %d: a live clone's write reached its master", i)
		}
	}
}

// TestShardPartitionInvariants checks the dataset layer's structural
// contract: shards tile the node range, own every edge they hold by
// destination, and the shard-count choice never loses an edge.
func TestShardPartitionInvariants(t *testing.T) {
	cfg := traffic.Config{Nodes: 1003, Edges: 8000, Seed: 11}
	for _, shards := range []int{1, 3, 8} {
		d, err := BuildShardedTraffic(cfg, shards, 512)
		if err != nil {
			t.Fatal(err)
		}
		covered := 0
		totalEdges := 0
		for _, sh := range d.Shards {
			if sh.Lo != covered {
				t.Fatalf("shards=%d: shard %d starts at %d, want %d", shards, sh.Index, sh.Lo, covered)
			}
			covered = sh.Hi
			totalEdges += sh.Master.NumEdges()
			for _, e := range sh.Master.EdgesView() {
				v := traffic.NodeIndex(e.V)
				if v < sh.Lo || v >= sh.Hi {
					t.Fatalf("shards=%d: shard %d holds foreign dst %s", shards, sh.Index, e.V)
				}
			}
		}
		if covered != cfg.Nodes {
			t.Fatalf("shards=%d: shards cover [0,%d), want [0,%d)", shards, covered, cfg.Nodes)
		}
		if totalEdges != cfg.Edges {
			t.Fatalf("shards=%d: %d edges across shards, want %d", shards, totalEdges, cfg.Edges)
		}
	}
	// Union of shard masters must reassemble the exact single-shard graph.
	one, err := BuildShardedTraffic(cfg, 1, 512)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := BuildShardedTraffic(cfg, 8, 512)
	if err != nil {
		t.Fatal(err)
	}
	union := graph.NewDirected()
	union.GraphAttrs()["app"] = "traffic-analysis"
	st, _ := traffic.NewStream(cfg)
	for i := 0; i < cfg.Nodes; i++ {
		union.AddNode(st.NodeID(i), nil)
	}
	for _, sh := range eight.Shards {
		union.Merge(sh.Master)
	}
	full := one.Shards[0].Master
	if union.NumNodes() != full.NumNodes() || union.NumEdges() != full.NumEdges() {
		t.Fatalf("union %v vs full %v", union, full)
	}
	for _, e := range full.EdgesView() {
		got := union.EdgeAttrsView(e.U, e.V)
		if got == nil || got["bytes"] != e.Attrs["bytes"] {
			t.Fatalf("edge %s->%s lost or mutated in shard union", e.U, e.V)
		}
	}
}

// TestShardDatasetClonesAreIsolated exercises the evaluator-facing shard
// instances: a worker's clone must not leak writes into the frozen shard
// master or sibling clones.
func TestShardDatasetClonesAreIsolated(t *testing.T) {
	d, err := BuildShardedTraffic(traffic.Config{Nodes: 100, Edges: 300, Seed: 5}, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	build := d.ShardDataset(2)
	a, b := build(), build()
	edges := a.G().EdgesView()
	if len(edges) == 0 {
		t.Fatal("shard 2 has no edges to test with")
	}
	e := edges[0]
	if err := a.G().SetEdgeAttr(e.U, e.V, "bytes", int64(1)); err != nil {
		t.Fatal(err)
	}
	if b.G().EdgeAttrsView(e.U, e.V)["bytes"] == int64(1) && e.Attrs["bytes"] != int64(1) {
		t.Fatal("write leaked between shard instance clones")
	}
	if d.Shards[2].Master.EdgeAttrsView(e.U, e.V)["bytes"] != e.Attrs["bytes"] {
		t.Fatal("write leaked into the frozen shard master")
	}
	nodes, _ := a.Frames()
	if nodes.NumRows() != a.G().NumNodes() {
		t.Fatalf("lazy frames rows %d vs nodes %d", nodes.NumRows(), a.G().NumNodes())
	}
}
