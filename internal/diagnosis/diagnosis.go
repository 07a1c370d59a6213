// Package diagnosis implements the paper's §5 "expanding benchmarks"
// direction as a working extension: a network failure diagnosis
// application in the spirit of Shrink (Kandula et al., MineNet 2005).
//
// The workload is a communication graph whose links carry an up/down
// status, plus a set of end-to-end probes (paths) with observed outcomes —
// a probe succeeds iff every link it traverses is up. Operators ask
// fault-localization questions in natural language; generated code reasons
// over the probe evidence. The application plugs into the same framework
// boxes as the two paper applications: a wrapper (box 1) describing the
// data model per backend, and the shared prompt/LLM/sandbox pipeline.
package diagnosis

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/dataframe"
	"repro/internal/graph"
	"repro/internal/prompt"
	"repro/internal/sqldb"
	"repro/internal/traffic"
)

// Probe is one end-to-end measurement over a path of node ids.
type Probe struct {
	ID   string
	Path []string
	OK   bool
}

// Workload is a diagnosis scenario: a status-annotated communication graph
// and probe observations.
type Workload struct {
	G      *graph.Graph
	Probes []Probe
}

// Config controls scenario generation.
type Config struct {
	Nodes, Edges int
	Seed         int64
	FailedLinks  int // links marked down
	Probes       int // probe paths generated
	MaxPathLen   int // random-walk probe length cap (default 5)
}

// Generate builds a deterministic diagnosis scenario. Every edge gets a
// "status" attribute ("up"/"down"); probes are random directed walks whose
// observed outcome is consistent with the injected failures.
func Generate(cfg Config) *Workload {
	if cfg.MaxPathLen <= 0 {
		cfg.MaxPathLen = 5
	}
	g := traffic.Generate(traffic.Config{Nodes: cfg.Nodes, Edges: cfg.Edges, Seed: cfg.Seed})
	r := rand.New(rand.NewSource(cfg.Seed + 7919))
	edges := g.Edges()
	for _, e := range edges {
		g.SetEdgeAttr(e.U, e.V, "status", "up")
	}
	down := map[graph.EdgeKey]bool{}
	for len(down) < cfg.FailedLinks && len(down) < len(edges) {
		e := edges[r.Intn(len(edges))]
		k := graph.EdgeKey{U: e.U, V: e.V}
		if !down[k] {
			down[k] = true
			g.SetEdgeAttr(e.U, e.V, "status", "down")
		}
	}
	w := &Workload{G: g}
	nodes := g.Nodes()
	for i := 0; i < cfg.Probes; i++ {
		// Random walk along out-edges.
		start := nodes[r.Intn(len(nodes))]
		path := []string{start}
		ok := true
		cur := start
		for hop := 0; hop < 1+r.Intn(cfg.MaxPathLen); hop++ {
			nbrs := g.Neighbors(cur)
			if len(nbrs) == 0 {
				break
			}
			next := nbrs[r.Intn(len(nbrs))]
			if down[graph.EdgeKey{U: cur, V: next}] {
				ok = false
			}
			path = append(path, next)
			cur = next
		}
		if len(path) < 2 {
			continue
		}
		w.Probes = append(w.Probes, Probe{
			ID:   fmt.Sprintf("p%03d", len(w.Probes)),
			Path: path,
			OK:   ok,
		})
	}
	return w
}

// Frames converts the workload into tabular form: the traffic node/edge
// frames (edges gain a status column) plus a probes frame (pid, path, ok)
// where path joins node ids with ">".
func (w *Workload) Frames() (nodes, edges, probes *dataframe.Frame) {
	nodes, edges = traffic.Frames(w.G)
	var err error
	edges, err = edges.Mutate("status", func(row map[string]any) (any, error) {
		return w.G.EdgeAttrsView(row["src"].(string), row["dst"].(string))["status"], nil
	})
	if err != nil {
		panic(err) // columns are guaranteed present
	}
	probes = dataframe.New("pid", "path", "ok")
	for _, p := range w.Probes {
		probes.AppendRow(p.ID, strings.Join(p.Path, ">"), p.OK)
	}
	return nodes, edges, probes
}

// Database converts the workload into relational form with tables nodes,
// edges (incl. status) and probes(pid, path, ok).
func (w *Workload) Database() *sqldb.DB { return DatabaseOf(w.Frames()) }

// DatabaseOf registers node, edge and probe frames (as Frames builds them)
// as the "nodes", "edges" and "probes" tables of a new database. The
// tables are the frames themselves, not copies.
func DatabaseOf(nodes, edges, probes *dataframe.Frame) *sqldb.DB {
	db := sqldb.NewDB()
	db.CreateTable("nodes", nodes)
	db.CreateTable("edges", edges)
	db.CreateTable("probes", probes)
	return db
}

// Wrapper is the diagnosis application wrapper (framework box 1). It holds
// no data.
type Wrapper struct{}

// Name identifies the application.
func (Wrapper) Name() string { return "network failure diagnosis" }

// Describe returns the per-backend data-model description.
func (Wrapper) Describe(backend string) string {
	common := "The data is a directed communication graph under fault " +
		"diagnosis. Each edge has integer attributes \"bytes\", " +
		"\"connections\", \"packets\" and a string attribute \"status\" " +
		"(\"up\" or \"down\"). End-to-end probes were measured: each probe " +
		"has an id, a path (sequence of node ids following edge directions), " +
		"and an observed boolean outcome ok — a probe succeeds if and only " +
		"if every link on its path is up."
	networkx := " A variable `graph` is bound to the graph (methods " +
		"as in the traffic application; edge attrs include status). A " +
		"variable `probes` is bound to a list of maps, each with keys " +
		"\"id\" (string), \"path\" (list of node ids) and \"ok\" (bool)."
	pandas := " Dataframes are bound: `nodes_df` (id, ip), " +
		"`edges_df` (src, dst, bytes, connections, packets, status) and " +
		"`probes_df` (pid, path, ok) where path joins node ids with \">\"."
	sql := " A variable `db` is bound to a SQL database with " +
		"tables nodes(id, ip), edges(src, dst, bytes, connections, " +
		"packets, status) and probes(pid, path, ok) where path joins " +
		"node ids with '>'."
	switch backend {
	case "networkx":
		return common + networkx
	case "pandas":
		return common + pandas
	case "sql":
		return common + sql
	case "federated":
		return common + networkx + pandas + sql + prompt.FederatedPlannerDoc
	default:
		return common
	}
}

// DefaultConfig is the benchmark scenario for the extension suite.
var DefaultConfig = Config{Nodes: 60, Edges: 120, Seed: 11, FailedLinks: 4, Probes: 40}
