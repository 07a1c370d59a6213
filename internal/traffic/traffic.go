// Package traffic implements the network traffic analysis application: a
// deterministic generator for synthetic communication graphs (the paper's
// first benchmark workload) plus the application wrapper that exposes those
// graphs to the three code-generation backends. Nodes are network endpoints
// carrying IP addresses; directed edges carry communication weights in
// bytes, connections and packets, exactly as the paper's evaluation setup
// describes.
package traffic

import (
	"fmt"
	"math/rand"

	"repro/internal/dataframe"
	"repro/internal/graph"
	"repro/internal/prompt"
	"repro/internal/sqldb"
)

// Config controls synthetic communication-graph generation.
type Config struct {
	Nodes int
	Edges int
	Seed  int64
	// Prefixes is the number of distinct /16 prefixes to spread nodes
	// across (default 4).
	Prefixes int
	// SkewAlpha, when > 1, draws both edge endpoints from a
	// Zipf(s=SkewAlpha) distribution over the node index space instead of
	// uniformly, producing the degree-skewed (power-law) communication
	// graphs real networks exhibit — low-index nodes become hubs. 0 (the
	// default) keeps the historical uniform generator and its outputs
	// byte-identical; values in (0, 1] are rejected (the Zipf sampler
	// needs s > 1). Streamed generation (NewStream) honors skew too: each
	// source's quota is Zipf-apportioned and its destinations Zipf-drawn
	// without replacement, so the stream still emits exactly Edges
	// distinct edges.
	//
	// Skew is meaningful in the sparse regime. When the requested edge
	// count approaches what the hub pairs can hold (dense configs, or
	// extreme alphas on small node sets), the duplicate-rejection budget
	// exhausts and the deterministic completion scan fills the remainder
	// uniformly, diluting the skew — the edge count is always honored,
	// the distribution only as far as distinctness allows.
	SkewAlpha float64
}

// fixedPrefixes are the /16 prefixes benchmark queries can reference by
// name ("15.76" appears in the paper's example queries); generators only
// draw additional prefixes beyond these.
var fixedPrefixes = []string{"15.76", "10.0", "192.168", "172.16"}

// IDWidth returns the zero-padded digit width of node IDs for a graph of
// the given node count: 3 digits up to 1000 nodes (the historical "h000"
// layout, kept so small-config outputs stay byte-identical), widening once
// the largest index needs more digits so that node IDs always sort
// lexicographically in index order.
func IDWidth(nodes int) int {
	width := 3
	for max := nodes - 1; max >= 1000; max /= 10 {
		width++
	}
	return width
}

// NodeID renders the canonical node ID for index i at the given width.
func NodeID(i, width int) string { return fmt.Sprintf("h%0*d", width, i) }

// NodeIndex parses a canonical node ID back to its index, or -1 if id is
// not of the "h<digits>" form.
func NodeIndex(id string) int {
	if len(id) < 2 || id[0] != 'h' {
		return -1
	}
	n := 0
	for i := 1; i < len(id); i++ {
		c := id[i]
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// MaxEdges returns the number of distinct directed edges (no self-loops) a
// graph with n nodes can hold.
func MaxEdges(n int) int64 {
	if n < 2 {
		return 0
	}
	return int64(n) * int64(n-1)
}

// Generate builds a deterministic synthetic communication graph. Node IDs
// are "h000".."hNNN" (the width grows past 1000 nodes so IDs keep sorting
// lexicographically in index order); each node gets an "ip" attribute drawn
// from one of cfg.Prefixes /16 prefixes; each directed edge gets integer
// "bytes", "connections" and "packets" attributes.
//
// Generate always produces exactly min(cfg.Edges, MaxEdges(cfg.Nodes))
// edges: when rejection sampling runs out of budget on dense configs the
// remaining edges are filled in deterministically. Use GenerateChecked to
// treat an unsatisfiable cfg.Edges as an error instead of saturating.
func Generate(cfg Config) *graph.Graph {
	g, _ := GenerateChecked(cfg)
	return g
}

// GenerateChecked is Generate, but reports an error when cfg.Edges exceeds
// the number of distinct directed edges the node set can hold (the graph is
// still returned, saturated at that maximum).
func GenerateChecked(cfg Config) (*graph.Graph, error) {
	if cfg.Prefixes <= 0 {
		cfg.Prefixes = 4
	}
	if cfg.SkewAlpha != 0 && cfg.SkewAlpha <= 1 {
		return nil, fmt.Errorf("traffic: SkewAlpha must be > 1 (Zipf exponent), got %g", cfg.SkewAlpha)
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	g := graph.NewDirected()
	g.GraphAttrs()["app"] = "traffic-analysis"
	prefixes := drawPrefixes(r, cfg.Prefixes)
	width := IDWidth(cfg.Nodes)
	ids := make([]string, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		id := NodeID(i, width)
		ids[i] = id
		prefix := prefixes[r.Intn(len(prefixes))]
		ip := fmt.Sprintf("%s.%d.%d", prefix, r.Intn(256), 1+r.Intn(254))
		g.AddNode(id, graph.Attrs{"ip": ip})
	}
	if cfg.Nodes < 2 {
		if cfg.Edges > 0 {
			return g, fmt.Errorf("traffic: %d nodes cannot hold %d edges", cfg.Nodes, cfg.Edges)
		}
		return g, nil
	}
	// Endpoint sampler: uniform by default; Zipf over node indices when
	// the degree-skew knob is set. The skewed draw replaces only the index
	// selection — attribute draws and the completion scan are shared — so
	// cfg.SkewAlpha == 0 consumes the exact historical RNG sequence and
	// keeps every default output byte-identical.
	pick := func() int { return r.Intn(len(ids)) }
	if cfg.SkewAlpha > 1 {
		zipf := rand.NewZipf(r, cfg.SkewAlpha, 1, uint64(cfg.Nodes-1))
		pick = func() int { return int(zipf.Uint64()) }
	}
	added := 0
	for attempts := 0; added < cfg.Edges && attempts < cfg.Edges*20; attempts++ {
		u := ids[pick()]
		v := ids[pick()]
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.AddEdge(u, v, edgeAttrs(r))
		added++
	}
	// Dense configs can exhaust the rejection budget above. Complete the
	// edge set deterministically by scanning the ordered pair space, so the
	// generator never silently falls short of a satisfiable cfg.Edges. The
	// scan only runs in the regime where the old generator under-delivered,
	// so sparse small-config outputs are untouched.
	for u := 0; u < cfg.Nodes && added < cfg.Edges; u++ {
		for v := 0; v < cfg.Nodes && added < cfg.Edges; v++ {
			if u == v || g.HasEdge(ids[u], ids[v]) {
				continue
			}
			g.AddEdge(ids[u], ids[v], edgeAttrs(r))
			added++
		}
	}
	if added < cfg.Edges {
		return g, fmt.Errorf("traffic: %d nodes can hold at most %d edges, %d requested (generated %d)",
			cfg.Nodes, MaxEdges(cfg.Nodes), cfg.Edges, added)
	}
	return g, nil
}

// edgeAttrs draws one edge's attribute set from r (three draws, in the
// byte/connection/packet order the original generator used).
func edgeAttrs(r *rand.Rand) graph.Attrs {
	return graph.Attrs{
		"bytes":       int64(1 + r.Intn(1_000_000)),
		"connections": int64(1 + r.Intn(100)),
		"packets":     int64(1 + r.Intn(10_000)),
	}
}

// drawPrefixes returns the fixed prefixes followed by count-4 distinct
// random ones. A random draw that collides with a fixed prefix or an
// earlier draw is redrawn, so prefix-distribution queries see exactly
// `count` distinct prefixes; redraws consume extra RNG state only on
// collision, which preserves the draw sequence (and so the generated
// graphs) of every collision-free config.
func drawPrefixes(r *rand.Rand, count int) []string {
	prefixes := make([]string, count)
	seen := make(map[string]bool, count)
	for i := range prefixes {
		if i < len(fixedPrefixes) {
			prefixes[i] = fixedPrefixes[i]
			seen[prefixes[i]] = true
			continue
		}
		p := fmt.Sprintf("%d.%d", 10+r.Intn(200), r.Intn(256))
		for retries := 0; seen[p] && retries < 64; retries++ {
			p = fmt.Sprintf("%d.%d", 10+r.Intn(200), r.Intn(256))
		}
		if seen[p] {
			// Random redraws keep colliding (the pool is nearly full):
			// sweep the 200*256-prefix draw space deterministically for the
			// first unseen prefix, so a duplicate is emitted only when a
			// caller asks for more prefixes than the space can supply.
			for a := 10; a < 210 && seen[p]; a++ {
				for b := 0; b < 256; b++ {
					if q := fmt.Sprintf("%d.%d", a, b); !seen[q] {
						p = q
						break
					}
				}
			}
		}
		prefixes[i] = p
		seen[p] = true
	}
	return prefixes
}

// Frames converts a communication graph into the node/edge dataframes the
// pandas backend operates on. The node frame has columns (id, ip); the edge
// frame has (src, dst, bytes, connections, packets).
func Frames(g *graph.Graph) (nodes, edges *dataframe.Frame) {
	nodes = dataframe.New("id", "ip")
	// Each node ID is boxed once: the src/dst cells of its edges reuse that
	// interface value instead of each allocating its own.
	ids := make(map[string]any, g.NumNodes())
	for _, n := range g.Nodes() {
		// Read-only views: frame building copies the values out, so it
		// must not force copy-on-write copies of the attribute maps.
		attrs := g.NodeAttrsView(n)
		ip, _ := attrs["ip"].(string)
		id := any(n)
		ids[n] = id
		nodes.AppendRow(id, ip)
	}
	edges = dataframe.New("src", "dst", "bytes", "connections", "packets")
	for _, e := range g.EdgesView() {
		edges.AppendRow(ids[e.U], ids[e.V], e.Attrs["bytes"], e.Attrs["connections"], e.Attrs["packets"])
	}
	return nodes, edges
}

// Database converts a communication graph into the relational form the SQL
// backend queries: tables "nodes" and "edges" with the same schemas as
// Frames.
func Database(g *graph.Graph) *sqldb.DB { return DatabaseOf(Frames(g)) }

// DatabaseOf registers node and edge frames (as Frames builds them) as the
// "nodes" and "edges" tables of a new database. The tables are the frames
// themselves, not copies, so one pair of frozen frames can back both the
// frames and the tables of every clone.
func DatabaseOf(nodes, edges *dataframe.Frame) *sqldb.DB {
	db := sqldb.NewDB()
	db.CreateTable("nodes", nodes)
	db.CreateTable("edges", edges)
	return db
}

// Wrapper is the traffic-analysis application wrapper (framework box 1):
// it describes the data model to the prompt generator. It holds no data.
type Wrapper struct{}

// Name identifies the application.
func (Wrapper) Name() string { return "network traffic analysis" }

// Describe returns the natural-language data-model description injected
// into prompts, specialized per backend.
func (Wrapper) Describe(backend string) string {
	common := "The data is a directed communication graph. Nodes are network " +
		"endpoints; each node has attribute \"ip\" (dotted IPv4 string). Each " +
		"directed edge represents observed traffic and has integer attributes " +
		"\"bytes\", \"connections\" and \"packets\"."
	networkx := " A variable `graph` is bound to the graph object. " +
		"Available methods include nodes(), edges(), node(id), edge(u, v), " +
		"degree(id), in_degree(id), out_degree(id), neighbors(id), " +
		"add_node(id, attrs), add_edge(u, v, attrs), remove_node(id), " +
		"remove_edge(u, v), set_node_attr(id, key, value), " +
		"shortest_path(u, v), hop_count(u, v), connected_components(), " +
		"subgraph(ids), weighted_degree(id, attr), top_n_by_degree(n), " +
		"degree_centrality(), pagerank() and clustering(). " +
		"edges() yields edge objects with .src, .dst and .attrs."
	pandas := " Two dataframes are bound: `nodes_df` with columns " +
		"(id, ip) and `edges_df` with columns (src, dst, bytes, " +
		"connections, packets). Frames support filter(fn), filter_eq(col, " +
		"v), sort_values(cols..., ascending), select(cols...), head(n), " +
		"groupby(cols...).agg([col, fn, name]...), merge(other, lk, rk), " +
		"mutate(col, fn), sum/mean/min/max(col), unique(col), " +
		"value_counts(col), records(), cell(i, col) and set_cell(i, col, v)."
	sql := " A variable `db` is bound to a SQL database with " +
		"tables nodes(id, ip) and edges(src, dst, bytes, connections, " +
		"packets). Use db.query(\"SELECT ...\") for reads and " +
		"db.exec(\"UPDATE/INSERT/DELETE ...\") for writes; query() returns " +
		"a frame with num_rows(), cell(i, col) and records()."
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
