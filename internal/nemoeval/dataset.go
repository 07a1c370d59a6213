// Package nemoeval implements the NeMoEval benchmark (Figure 3 of the
// paper): golden-answer execution, sandboxed evaluation of LLM-generated
// code, result comparison, error classification and logging, plus the
// accuracy/cost analyses behind every table and figure in the evaluation.
package nemoeval

import (
	"sync"

	"repro/internal/dataframe"
	"repro/internal/diagnosis"
	"repro/internal/federate"
	"repro/internal/graph"
	"repro/internal/malt"
	"repro/internal/nql"
	"repro/internal/nqlbind"
	"repro/internal/prompt"
	"repro/internal/queries"
	"repro/internal/sqldb"
	"repro/internal/traffic"
)

// Instance is one fresh copy of an application's state in all three
// representations. Every sandboxed run gets its own instance so buggy
// generated code cannot contaminate the comparison. Probes fields are set
// only for the diagnosis extension application.
//
// The traffic and MALT builders derive each representation once per
// dataset — a frozen master graph, frozen node/edge frames and a frozen
// database (for traffic, the frames double as its tables) — and give every
// instance copy-on-write clones of those masters: a graph clone shares
// attribute maps, and a frame or table clone shares column storage, each
// copying only what the instance writes. The clones are made lazily:
// builders install lazyGraph/lazyFrames/lazyDB thunks that the
// G/Frames/Database accessors force on first use, so a NetworkX-backend
// evaluation never pays for dataframes and SQL tables it will not touch.
// Constructing an Instance with all fields set eagerly (as package core
// does) keeps working — the thunks are only consulted while a field is
// nil.
type Instance struct {
	App     string
	Wrapper prompt.AppWrapper
	Graph   *graph.Graph
	Nodes   *dataframe.Frame
	Edges   *dataframe.Frame
	DB      *sqldb.DB

	Probes     *dataframe.Frame // probes table (pandas backend)
	ProbesList nql.Value        // probes list-of-maps (networkx backend)

	// FedEpoch identifies the dataset generation every clone of one frozen
	// master belongs to. Federation stamps it on the catalog so the
	// federated planner's shared caches (statistics, prepared decisions)
	// are reused across instances of the same master and invalidated the
	// moment a new master is built. Zero means "uncacheable" and the
	// planner recomputes from scratch.
	FedEpoch uint64

	lazyGraph  func() *graph.Graph
	lazyFrames func() (nodes, edges *dataframe.Frame)
	lazyDB     func() *sqldb.DB
}

// G returns the graph, building (cloning) it on first use when the
// instance was created with a lazy graph — a pandas- or SQL-backend
// evaluation then never pays for cloning a large topology it cannot touch.
// Like Frames/Database, the accessor is safe on shared golden instances
// because a golden instance is only consulted for the backend it executed
// on, which already forced the field during the run.
func (inst *Instance) G() *graph.Graph {
	if inst.Graph == nil && inst.lazyGraph != nil {
		inst.Graph = inst.lazyGraph()
	}
	return inst.Graph
}

// Frames returns the node/edge dataframes, building them on first use when
// the instance was created with lazy representations.
func (inst *Instance) Frames() (nodes, edges *dataframe.Frame) {
	if inst.Nodes == nil && inst.lazyFrames != nil {
		inst.Nodes, inst.Edges = inst.lazyFrames()
	}
	return inst.Nodes, inst.Edges
}

// Database returns the SQL database, building it on first use when the
// instance was created with lazy representations.
func (inst *Instance) Database() *sqldb.DB {
	if inst.DB == nil && inst.lazyDB != nil {
		inst.DB = inst.lazyDB()
	}
	return inst.DB
}

// Federation assembles the federated-planner catalog over this instance's
// substrates, forcing the lazy relational representations (the federated
// backend binds every substrate at once).
func (inst *Instance) Federation() *federate.Catalog {
	nodes, edges := inst.Frames()
	frames := map[string]*dataframe.Frame{"nodes": nodes, "edges": edges}
	if inst.Probes != nil {
		frames["probes"] = inst.Probes
	}
	return &federate.Catalog{Graph: inst.G(), Frames: frames, DB: inst.Database(), Epoch: inst.FedEpoch}
}

// Bindings returns the host globals for one backend, wrapping this
// instance's state.
func (inst *Instance) Bindings(backend string) map[string]nql.Value {
	switch backend {
	case prompt.BackendFederated:
		// The federated backend is the union of the three per-substrate
		// environments plus the cross-substrate planner.
		nodes, edges := inst.Frames()
		extra := map[string]nql.Value{
			"nodes_df": nqlbind.NewFrameObject(nodes),
			"edges_df": nqlbind.NewFrameObject(edges),
			"db":       nqlbind.NewDBObject(inst.Database()),
			"fed":      nqlbind.NewFedObject(inst.Federation()),
		}
		if inst.Probes != nil {
			extra["probes_df"] = nqlbind.NewFrameObject(inst.Probes)
		}
		if inst.ProbesList != nil {
			extra["probes"] = inst.ProbesList
		}
		return nqlbind.Globals(inst.G(), extra)
	case prompt.BackendNetworkX:
		extra := map[string]nql.Value{}
		if inst.ProbesList != nil {
			extra["probes"] = inst.ProbesList
		}
		return nqlbind.Globals(inst.G(), extra)
	case prompt.BackendPandas:
		nodes, edges := inst.Frames()
		extra := map[string]nql.Value{
			"nodes_df": nqlbind.NewFrameObject(nodes),
			"edges_df": nqlbind.NewFrameObject(edges),
		}
		if inst.Probes != nil {
			extra["probes_df"] = nqlbind.NewFrameObject(inst.Probes)
		}
		return nqlbind.Globals(nil, extra)
	case prompt.BackendSQL:
		return nqlbind.Globals(nil, map[string]nql.Value{
			"db": nqlbind.NewDBObject(inst.Database()),
		})
	default:
		return nqlbind.Globals(nil, nil)
	}
}

// StateEqual compares the post-run state of two instances for one backend.
func StateEqual(backend string, a, b *Instance) bool {
	switch backend {
	case prompt.BackendFederated:
		// The federated backend binds every substrate, so all of them must
		// match.
		return StateEqual(prompt.BackendNetworkX, a, b) &&
			StateEqual(prompt.BackendPandas, a, b) &&
			StateEqual(prompt.BackendSQL, a, b)
	case prompt.BackendNetworkX:
		return graph.Equal(a.G(), b.G())
	case prompt.BackendPandas:
		aNodes, aEdges := a.Frames()
		bNodes, bEdges := b.Frames()
		return dataframe.Equal(aNodes, bNodes) && dataframe.Equal(aEdges, bEdges)
	case prompt.BackendSQL:
		return sqldb.Equal(a.Database(), b.Database())
	default:
		return true
	}
}

// InstanceBuilder produces fresh, identical instances on demand.
type InstanceBuilder func() *Instance

// TrafficDataset returns a builder for the traffic-analysis application at
// the given scale. The default benchmark scale follows the paper's small
// graph: 80 nodes and 80 edges ("80 nodes and edges").
func TrafficDataset(cfg traffic.Config) InstanceBuilder {
	master := traffic.Generate(cfg)
	master.Freeze()
	return trafficBuilder(master)
}

// trafficBuilder returns the instance builder over one frozen traffic
// master graph. Each instance clones the graph: cloning a frozen master
// shares attribute maps copy-on-write, is safe from concurrent workers,
// and keeps every instance bit-identical. The relational masters — the
// node and edge frames, frozen, and a database whose nodes/edges tables
// are those same frames — are derived from the master once, when the
// first instance binds a frame or a table, so NetworkX-only traffic never
// builds them; every instance then gets O(columns) clones of them.
//
// The master must not change once the builder exists: a master extended
// and re-frozen needs a new builder, which also gives the new generation a
// fresh federated epoch.
func trafficBuilder(master *graph.Graph) InstanceBuilder {
	epoch := federate.NewEpoch()
	var (
		once           sync.Once
		nodes0, edges0 *dataframe.Frame
		db0            *sqldb.DB
	)
	relational := func() {
		once.Do(func() {
			nodes0, edges0 = traffic.Frames(master)
			nodes0.Freeze()
			edges0.Freeze()
			db0 = traffic.DatabaseOf(nodes0, edges0)
		})
	}
	return func() *Instance {
		g := master.Clone()
		return &Instance{
			App:      queries.AppTraffic,
			Wrapper:  traffic.NewWrapper(g),
			Graph:    g,
			FedEpoch: epoch,
			lazyFrames: func() (*dataframe.Frame, *dataframe.Frame) {
				relational()
				return nodes0.Clone(), edges0.Clone()
			},
			lazyDB: func() *sqldb.DB {
				relational()
				return db0.Clone()
			},
		}
	}
}

// DefaultTrafficConfig is the benchmark's standard traffic workload.
var DefaultTrafficConfig = traffic.Config{Nodes: 80, Edges: 80, Seed: 42}

// TrafficShard is one partition of a streamed traffic dataset: a frozen
// master holding every edge whose destination falls in the shard's node
// range [Lo, Hi), plus all owned nodes (with their "ip" attributes) and any
// ghost source endpoints edges pulled in. Partitioning by destination makes
// each shard the complete owner of its nodes' in-edges, which is what lets
// shard-level aggregates (in-degree, PageRank gather terms) merge exactly.
type TrafficShard struct {
	Index  int
	Lo, Hi int // owned global node-index range, [Lo, Hi)
	Master *graph.Graph
}

// ShardedTraffic partitions one streamed traffic config into per-shard
// frozen masters, so evaluator workers clone only their shard instead of
// the full graph. Build with BuildShardedTraffic, or incrementally with
// NewShardedTraffic + Apply + Freeze (Apply-ing batches from a resumed
// stream cursor reproduces a straight-through build byte-identically).
type ShardedTraffic struct {
	Cfg    traffic.Config
	Shards []*TrafficShard
}

// NewShardedTraffic materializes the node sets of an empty sharded dataset:
// shard s owns the contiguous index range [s*n/shards, (s+1)*n/shards) and
// starts with those nodes (and their deterministic stream IPs) but no
// edges. It errors when the config cannot stream (unsatisfiable edge
// count), so a sharded build can never silently fall short.
func NewShardedTraffic(cfg traffic.Config, shards int) (*ShardedTraffic, error) {
	st, err := traffic.NewStream(cfg)
	if err != nil {
		return nil, err
	}
	return newShardedTraffic(st, shards), nil
}

// newShardedTraffic materializes the shard node sets from an existing
// stream (whose position is irrelevant: node IDs and IPs are pure
// functions of the config).
func newShardedTraffic(st *traffic.Stream, shards int) *ShardedTraffic {
	cfg := st.Config()
	if shards <= 0 {
		shards = 1
	}
	if shards > cfg.Nodes && cfg.Nodes > 0 {
		shards = cfg.Nodes
	}
	d := &ShardedTraffic{Cfg: cfg, Shards: make([]*TrafficShard, shards)}
	for s := 0; s < shards; s++ {
		lo, hi := cfg.Nodes*s/shards, cfg.Nodes*(s+1)/shards
		g := graph.NewDirected()
		g.GraphAttrs()["app"] = "traffic-analysis"
		for i := lo; i < hi; i++ {
			g.AddNode(st.NodeID(i), graph.Attrs{"ip": st.NodeIP(i)})
		}
		d.Shards[s] = &TrafficShard{Index: s, Lo: lo, Hi: hi, Master: g}
	}
	return d
}

// shardOf returns the shard owning global node index idx.
func (d *ShardedTraffic) shardOf(idx int) *TrafficShard {
	s := idx * len(d.Shards) / d.Cfg.Nodes
	// Integer partition boundaries: correct for off-by-one at the seams.
	for s+1 < len(d.Shards) && idx >= d.Shards[s].Hi {
		s++
	}
	for s > 0 && idx < d.Shards[s].Lo {
		s--
	}
	return d.Shards[s]
}

// Apply routes one streamed edge batch into the shard masters (each edge to
// the shard owning its destination). Apply is not concurrency-safe; drive
// it from the single goroutine that owns the stream.
func (d *ShardedTraffic) Apply(batch []traffic.StreamEdge) {
	for _, e := range batch {
		d.shardOf(e.VIdx).Master.AddEdge(e.U, e.V, e.Attrs())
	}
}

// Freeze freezes every shard master, turning them into cloneable immutable
// masters. Freeze is incremental (see graph.Freeze): a resumed sweep may
// Apply further batches and Freeze again.
func (d *ShardedTraffic) Freeze() {
	for _, sh := range d.Shards {
		sh.Master.Freeze()
	}
}

// BuildShardedTraffic streams cfg's edge set straight through into shards
// (batchSize edges at a time) and freezes the masters.
func BuildShardedTraffic(cfg traffic.Config, shards, batchSize int) (*ShardedTraffic, error) {
	if batchSize <= 0 {
		batchSize = 4096
	}
	st, err := traffic.NewStream(cfg)
	if err != nil {
		return nil, err
	}
	d := newShardedTraffic(st, shards)
	for {
		batch := st.Next(batchSize)
		if len(batch) == 0 {
			break
		}
		d.Apply(batch)
	}
	d.Freeze()
	return d, nil
}

// ShardDataset returns an instance builder over one shard's frozen master:
// workers clone only that shard instead of the full graph, with the
// relational representations derived once and cloned exactly like
// TrafficDataset. Make the builder after the shard's last Apply and Freeze.
func (d *ShardedTraffic) ShardDataset(shard int) InstanceBuilder {
	return trafficBuilder(d.Shards[shard].Master)
}

// MALTDataset returns a builder for the lifecycle-management application
// using the example-scale synthetic MALT topology.
func MALTDataset() InstanceBuilder {
	master := malt.Generate(malt.Config{})
	// Materialize each representation once from the (immutable) topology,
	// then hand out clones: cloning a frozen graph or a frame is far
	// cheaper than rebuilding them row by row, and the relational forms
	// are only cloned if the backend actually binds them.
	g0 := master.Graph()
	g0.Freeze()
	nodes0, edges0 := master.Frames()
	nodes0.Freeze()
	edges0.Freeze()
	db0 := master.Database()
	db0.Freeze()
	epoch := federate.NewEpoch()
	return func() *Instance {
		return &Instance{
			App:       queries.AppMALT,
			Wrapper:   malt.NewWrapper(master),
			FedEpoch:  epoch,
			lazyGraph: func() *graph.Graph { return g0.Clone() },
			lazyFrames: func() (*dataframe.Frame, *dataframe.Frame) {
				return nodes0.Clone(), edges0.Clone()
			},
			lazyDB: func() *sqldb.DB { return db0.Clone() },
		}
	}
}

// ProbesListValue converts a workload's probes into the list-of-maps value
// bound as `probes` for the NetworkX backend.
func ProbesListValue(w *diagnosis.Workload) nql.Value {
	plist := nql.NewList()
	for _, p := range w.Probes {
		m := nql.NewMap()
		path := nql.NewList()
		for _, n := range p.Path {
			path.Items = append(path.Items, n)
		}
		_ = m.Set("id", p.ID)
		_ = m.Set("path", path)
		_ = m.Set("ok", p.OK)
		plist.Items = append(plist.Items, m)
	}
	return plist
}

// DiagnosisDataset returns a builder for the failure-diagnosis extension
// application at the given scenario scale.
func DiagnosisDataset(cfg diagnosis.Config) InstanceBuilder {
	return DiagnosisDatasetFromWorkload(diagnosis.Generate(cfg))
}

// DiagnosisDatasetFromWorkload builds instances by cloning a caller-owned
// workload.
func DiagnosisDatasetFromWorkload(master *diagnosis.Workload) InstanceBuilder {
	epoch := federate.NewEpoch()
	return func() *Instance {
		w := master.Clone()
		nodes, edges, probes := w.Frames()
		return &Instance{
			App:        queries.AppDiagnosis,
			Wrapper:    diagnosis.NewWrapper(w),
			Graph:      w.G,
			Nodes:      nodes,
			Edges:      edges,
			DB:         w.Database(),
			Probes:     probes,
			ProbesList: ProbesListValue(w),
			FedEpoch:   epoch,
		}
	}
}

// DatasetFor returns the standard builder for an app name.
func DatasetFor(app string) InstanceBuilder {
	switch app {
	case queries.AppMALT:
		return MALTDataset()
	case queries.AppDiagnosis:
		return DiagnosisDataset(diagnosis.DefaultConfig)
	default:
		return TrafficDataset(DefaultTrafficConfig)
	}
}
