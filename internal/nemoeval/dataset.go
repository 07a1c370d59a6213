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

// Generation is one frozen version of an application's state, the only
// source of instances. Its graph is a frozen master. Its node and edge
// frames, its probes frame (diagnosis only) and its database are derived
// once, on first use, and then frozen: a NetworkX-only evaluation never
// builds dataframes or SQL tables. For traffic and diagnosis the tables
// are the frames themselves. A diagnosis generation also holds the probes
// list bound as `probes`.
//
// Nothing in a generation changes once it is built, so its Instance method
// is safe from concurrent workers. A changed state is a new generation
// (Instance.Freeze), and each generation carries its own federated epoch.
type Generation struct {
	app     string
	wrapper prompt.AppWrapper
	epoch   uint64
	graph   *graph.Graph
	probes  nql.Value // the probes list, nil outside diagnosis
	rel     func() relational
}

// relational is a generation's frozen frames and database.
type relational struct {
	nodes, edges *dataframe.Frame
	probes       *dataframe.Frame // nil outside diagnosis
	db           *sqldb.DB
}

// newGeneration returns a generation over a frozen graph whose relational
// masters derive builds, on first use, for freezing.
func newGeneration(app string, wrapper prompt.AppWrapper, g *graph.Graph, probes nql.Value, derive func() relational) *Generation {
	return &Generation{
		app: app, wrapper: wrapper, epoch: federate.NewEpoch(), graph: g, probes: probes,
		rel: sync.OnceValue(func() relational {
			r := derive()
			r.nodes.Freeze()
			r.edges.Freeze()
			if r.probes != nil {
				r.probes.Freeze()
			}
			r.db.Freeze()
			return r
		}),
	}
}

// snapshot freezes g and returns a master that shares its storage: a
// later write to g copies what it writes, so the master never sees it.
func snapshot(g *graph.Graph) *graph.Graph {
	g.Freeze()
	return g.Clone()
}

// Instance is one copy of an application's state for one run, taken from a
// generation. Every sandboxed run gets its own instance, so generated code
// cannot change the generation, a sibling instance or the golden state it
// is compared with.
//
// An instance holds copy-on-write clones of its generation's
// representations: a graph clone shares attribute maps, and a frame or
// table clone shares column storage, each copying only what the instance
// writes. Each clone is taken the first time G, Frames, Database or
// Bindings asks for it, and the probes list is the instance's own copy,
// made when a backend binds it. Taking a clone writes the instance, so an
// instance shared between goroutines, such as a cached golden instance,
// may only be read for the backend its run bound.
type Instance struct {
	App     string
	Wrapper prompt.AppWrapper

	gen          *Generation
	graph        *graph.Graph
	nodes, edges *dataframe.Frame
	probesFrame  *dataframe.Frame
	db           *sqldb.DB
	probes       nql.Value
}

// InstanceBuilder produces fresh, identical instances on demand. A
// generation's Instance method is one.
type InstanceBuilder func() *Instance

// Instance returns a fresh instance of the generation.
func (gen *Generation) Instance() *Instance {
	return &Instance{App: gen.app, Wrapper: gen.wrapper, gen: gen}
}

// G returns the instance's graph.
func (inst *Instance) G() *graph.Graph {
	if inst.graph == nil {
		inst.graph = inst.gen.graph.Clone()
	}
	return inst.graph
}

// Frames returns the instance's node and edge frames.
func (inst *Instance) Frames() (nodes, edges *dataframe.Frame) {
	if inst.nodes == nil {
		r := inst.gen.rel()
		inst.nodes, inst.edges = r.nodes.Clone(), r.edges.Clone()
		if r.probes != nil {
			inst.probesFrame = r.probes.Clone()
		}
	}
	return inst.nodes, inst.edges
}

// Database returns the instance's SQL database.
func (inst *Instance) Database() *sqldb.DB {
	if inst.db == nil {
		inst.db = inst.gen.rel().db.Clone()
	}
	return inst.db
}

// probesList returns the instance's probes list, nil outside diagnosis.
func (inst *Instance) probesList() nql.Value {
	if inst.probes == nil && inst.gen.probes != nil {
		inst.probes = copyValue(inst.gen.probes, map[any]nql.Value{})
	}
	return inst.probes
}

// Freeze makes the instance's state the next generation, which gets a new
// federated epoch. The representations the instance took are frozen as
// they stand (frames and tables together: taking either takes both); the
// others are its generation's. Freeze copies what it keeps, so a later
// write through the instance cannot reach the new generation.
func (inst *Instance) Freeze() *Generation {
	next := *inst.gen
	next.epoch = federate.NewEpoch()
	if inst.graph != nil {
		next.graph = snapshot(inst.graph)
	}
	if inst.probes != nil {
		next.probes = copyValue(inst.probes, map[any]nql.Value{})
	}
	if inst.nodes != nil || inst.db != nil {
		nodes, edges := inst.Frames()
		r := relational{nodes: frozenCopy(nodes), edges: frozenCopy(edges), db: inst.Database().Clone()}
		if inst.probesFrame != nil {
			r.probes = frozenCopy(inst.probesFrame)
		}
		r.db.Freeze()
		next.rel = func() relational { return r }
	}
	return &next
}

// frozenCopy returns a frozen copy of f.
func frozenCopy(f *dataframe.Frame) *dataframe.Frame {
	c := f.Clone()
	c.Freeze()
	return c
}

// copyValue copies the lists and maps of v, keeping any aliasing among them
// (cycles included); every other value is immutable or a host object and
// is shared. seen maps each list or map copied so far to its copy.
func copyValue(v nql.Value, seen map[any]nql.Value) nql.Value {
	switch x := v.(type) {
	case *nql.List:
		if c, ok := seen[x]; ok {
			return c
		}
		c := &nql.List{Items: make([]nql.Value, len(x.Items))}
		seen[x] = c
		for i, it := range x.Items {
			c.Items[i] = copyValue(it, seen)
		}
		return c
	case *nql.Map:
		if c, ok := seen[x]; ok {
			return c
		}
		c := nql.NewMapCap(x.Len())
		seen[x] = c
		vals := x.Values()
		for i, k := range x.Keys() {
			_ = c.Set(k, copyValue(vals[i], seen)) // k is a key of x, so valid
		}
		return c
	default:
		return v
	}
}

// Federation assembles the federated-planner catalog over this instance's
// substrates, taking every representation (the federated backend binds
// them all at once).
func (inst *Instance) Federation() *federate.Catalog {
	nodes, edges := inst.Frames()
	frames := map[string]*dataframe.Frame{"nodes": nodes, "edges": edges}
	if inst.probesFrame != nil {
		frames["probes"] = inst.probesFrame
	}
	return &federate.Catalog{Graph: inst.G(), Frames: frames, DB: inst.Database(), Epoch: inst.gen.epoch}
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
		if inst.probesFrame != nil {
			extra["probes_df"] = nqlbind.NewFrameObject(inst.probesFrame)
		}
		if probes := inst.probesList(); probes != nil {
			extra["probes"] = probes
		}
		return nqlbind.Globals(inst.G(), extra)
	case prompt.BackendNetworkX:
		extra := map[string]nql.Value{}
		if probes := inst.probesList(); probes != nil {
			extra["probes"] = probes
		}
		return nqlbind.Globals(inst.G(), extra)
	case prompt.BackendPandas:
		nodes, edges := inst.Frames()
		extra := map[string]nql.Value{
			"nodes_df": nqlbind.NewFrameObject(nodes),
			"edges_df": nqlbind.NewFrameObject(edges),
		}
		if inst.probesFrame != nil {
			extra["probes_df"] = nqlbind.NewFrameObject(inst.probesFrame)
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

// TrafficDataset returns a builder for the traffic-analysis application at
// the given scale. The default benchmark scale follows the paper's small
// graph: 80 nodes and 80 edges ("80 nodes and edges").
func TrafficDataset(cfg traffic.Config) InstanceBuilder {
	return TrafficGeneration(traffic.Generate(cfg)).Instance
}

// TrafficGeneration returns the traffic-analysis generation over g. It
// freezes g, and the generation keeps g's state as it is now: later writes
// to g do not reach it.
func TrafficGeneration(g *graph.Graph) *Generation {
	master := snapshot(g)
	return newGeneration(queries.AppTraffic, traffic.Wrapper{}, master, nil, func() relational {
		nodes, edges := traffic.Frames(master)
		return relational{nodes: nodes, edges: edges, db: traffic.DatabaseOf(nodes, edges)}
	})
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

// ShardDataset returns an instance builder over one shard's master:
// workers clone only that shard instead of the full graph, from a traffic
// generation exactly like TrafficDataset's. The generation keeps the shard
// as it is now, so make the builder after the shard's last Apply and
// Freeze. It only reads the master, so builders of one shard can be made
// concurrently.
func (d *ShardedTraffic) ShardDataset(shard int) InstanceBuilder {
	return TrafficGeneration(d.Shards[shard].Master.Clone()).Instance
}

// MALTDataset returns a builder for the lifecycle-management application
// using the example-scale synthetic MALT topology.
func MALTDataset() InstanceBuilder {
	return MALTGeneration(malt.Generate(malt.Config{})).Instance
}

// MALTGeneration returns the lifecycle-management generation over t. Its
// graph is built from t now; its frames and tables are built from t on
// first use, so t must not change afterwards.
func MALTGeneration(t *malt.Topology) *Generation {
	return newGeneration(queries.AppMALT, malt.Wrapper{}, snapshot(t.Graph()), nil, func() relational {
		nodes, edges := t.Frames()
		return relational{nodes: nodes, edges: edges, db: malt.DatabaseOf(nodes, edges)}
	})
}

// DiagnosisDataset returns a builder for the failure-diagnosis extension
// application at the given scenario scale.
func DiagnosisDataset(cfg diagnosis.Config) InstanceBuilder {
	return DiagnosisGeneration(diagnosis.Generate(cfg)).Instance
}

// DiagnosisGeneration returns the failure-diagnosis generation over w. It
// freezes w's graph and keeps its state as it is now, and it builds the
// probes list from w's probes now; its probes frame is built from them on
// first use, so w's probes must not change afterwards.
func DiagnosisGeneration(w *diagnosis.Workload) *Generation {
	master := &diagnosis.Workload{G: snapshot(w.G), Probes: w.Probes}
	return newGeneration(queries.AppDiagnosis, diagnosis.Wrapper{}, master.G, probesList(w.Probes), func() relational {
		nodes, edges, probes := master.Frames()
		return relational{nodes: nodes, edges: edges, probes: probes, db: diagnosis.DatabaseOf(nodes, edges, probes)}
	})
}

// probesList converts probes into the list-of-maps value bound as
// `probes` for the NetworkX and federated backends.
func probesList(probes []diagnosis.Probe) nql.Value {
	plist := nql.NewList()
	for _, p := range probes {
		m := nql.NewMap()
		path := nql.NewList()
		for _, n := range p.Path {
			path.Items = append(path.Items, n)
		}
		// String keys are always valid.
		_ = m.Set("id", p.ID)
		_ = m.Set("path", path)
		_ = m.Set("ok", p.OK)
		plist.Items = append(plist.Items, m)
	}
	return plist
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
