// Package malt implements the network lifecycle management application: a
// Multi-Abstraction-Layer Topology (MALT) entity-relationship model after
// Mogul et al. (NSDI 2020), plus a deterministic synthetic generator that
// reproduces the scale and schema of Google's example MALT dataset the
// paper evaluates on (5493 nodes, 6424 edges). Since the original dataset
// is external, the generator synthesizes an equivalent hierarchy: WAN →
// datacenters → chassis → packet switches → ports, with "contains" edges
// down the hierarchy and "controls" edges from control points, matching the
// entity kinds and relationship kinds the paper's queries exercise.
package malt

import (
	"fmt"
	"math/rand"

	"repro/internal/dataframe"
	"repro/internal/graph"
	"repro/internal/prompt"
	"repro/internal/sqldb"
)

// Entity kinds in the MALT model.
const (
	KindNetwork      = "EK_NETWORK"
	KindDatacenter   = "EK_DATACENTER"
	KindChassis      = "EK_CHASSIS"
	KindPacketSwitch = "EK_PACKET_SWITCH"
	KindPort         = "EK_PORT"
	KindControlPoint = "EK_CONTROL_POINT"
)

// Relationship kinds.
const (
	RelContains = "RK_CONTAINS"
	RelControls = "RK_CONTROLS"
)

// Entity is one MALT entity.
type Entity struct {
	ID    string
	Kind  string
	Attrs graph.Attrs
}

// Relationship is a directed typed edge between entities.
type Relationship struct {
	From, To string
	Kind     string
}

// Topology is a parsed MALT model.
type Topology struct {
	Entities      []Entity
	Relationships []Relationship
}

// Config controls synthetic MALT generation. The zero value is replaced by
// ExampleConfig.
type Config struct {
	Datacenters       int
	ChassisPerDC      int
	SwitchesPerCh     int
	PortsPerSwitch    int
	ControlPoints     int
	Seed              int64
	ExtraControlLinks int
}

// ExampleConfig reproduces the scale of the example MALT dataset the paper
// uses: 5493 nodes and 6424 edges.
//
// Node count: 1 network + 4 DCs + 64 chassis (16/DC) + 448 switches (7/ch)
// + 4928 ports (11/sw) + 48 control points = 5493.
// Edge count: contains edges 4+64+448+4928 = 5444 plus 48 control points
// controlling ~20 switches each ≈ 980 controls edges = 6424.
var ExampleConfig = Config{
	Datacenters:       4,
	ChassisPerDC:      16,
	SwitchesPerCh:     7,
	PortsPerSwitch:    11,
	ControlPoints:     48,
	Seed:              1039,
	ExtraControlLinks: 980,
}

// Generate synthesizes a MALT topology.
func Generate(cfg Config) *Topology {
	if cfg.Datacenters == 0 {
		cfg = ExampleConfig
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	t := &Topology{}
	addEntity := func(id, kind string, attrs graph.Attrs) {
		if attrs == nil {
			attrs = graph.Attrs{}
		}
		attrs["kind"] = kind
		t.Entities = append(t.Entities, Entity{ID: id, Kind: kind, Attrs: attrs})
	}
	rel := func(from, to, kind string) {
		t.Relationships = append(t.Relationships, Relationship{From: from, To: to, Kind: kind})
	}

	net := "net.wan1"
	addEntity(net, KindNetwork, graph.Attrs{"name": "wan1"})

	var switches []string
	for d := 0; d < cfg.Datacenters; d++ {
		dc := fmt.Sprintf("dc.ju%d", d+1)
		addEntity(dc, KindDatacenter, graph.Attrs{
			"name":   fmt.Sprintf("ju%d", d+1),
			"region": []string{"us-east", "us-west", "eu-west", "ap-south"}[d%4],
		})
		rel(net, dc, RelContains)
		for c := 0; c < cfg.ChassisPerDC; c++ {
			ch := fmt.Sprintf("ch.ju%d.a%d", d+1, c+1)
			addEntity(ch, KindChassis, graph.Attrs{
				"name":     fmt.Sprintf("ju%d.a%d", d+1, c+1),
				"capacity": int64(40 + 10*r.Intn(28)), // 40..310 Gbps
				"vendor":   []string{"acme", "borg", "cisco-like"}[r.Intn(3)],
			})
			rel(dc, ch, RelContains)
			for s := 0; s < cfg.SwitchesPerCh; s++ {
				sw := fmt.Sprintf("ps.ju%d.a%d.m1.s%dc1", d+1, c+1, s+1)
				addEntity(sw, KindPacketSwitch, graph.Attrs{
					"name":  fmt.Sprintf("ju%d.a%d.m1.s%dc1", d+1, c+1, s+1),
					"role":  []string{"spine", "leaf", "border"}[r.Intn(3)],
					"ports": int64(cfg.PortsPerSwitch),
				})
				rel(ch, sw, RelContains)
				switches = append(switches, sw)
				for p := 0; p < cfg.PortsPerSwitch; p++ {
					port := fmt.Sprintf("%s.p%d", sw, p+1)
					addEntity(port, KindPort, graph.Attrs{
						"name":        fmt.Sprintf("p%d", p+1),
						"speed_gbps":  int64([]int{10, 25, 40, 100}[r.Intn(4)]),
						"admin_state": []string{"up", "up", "up", "down"}[r.Intn(4)],
					})
					rel(sw, port, RelContains)
				}
			}
		}
	}
	// Control points and their controls edges.
	var cps []string
	for i := 0; i < cfg.ControlPoints; i++ {
		cp := fmt.Sprintf("cp.ctl%02d", i+1)
		addEntity(cp, KindControlPoint, graph.Attrs{"name": fmt.Sprintf("ctl%02d", i+1)})
		cps = append(cps, cp)
	}
	// Spread ExtraControlLinks controls edges round-robin over control
	// points, targeting distinct switches.
	if len(cps) > 0 && len(switches) > 0 {
		seen := map[[2]string]bool{}
		for added := 0; added < cfg.ExtraControlLinks; {
			cp := cps[added%len(cps)]
			sw := switches[r.Intn(len(switches))]
			key := [2]string{cp, sw}
			if seen[key] {
				continue
			}
			seen[key] = true
			rel(cp, sw, RelControls)
			added++
		}
	}
	return t
}

// Graph converts a topology into a directed attributed graph: one node per
// entity (attributes include "kind"), one edge per relationship with
// attribute "relation".
func (t *Topology) Graph() *graph.Graph {
	g := graph.NewDirected()
	g.GraphAttrs()["app"] = "malt"
	for _, e := range t.Entities {
		g.AddNode(e.ID, e.Attrs)
	}
	for _, r := range t.Relationships {
		g.AddEdge(r.From, r.To, graph.Attrs{"relation": r.Kind})
	}
	return g
}

// Frames converts a topology into node/edge dataframes. The node frame has
// (id, kind, name, capacity, role, speed_gbps, admin_state, region, vendor,
// ports) with nil for inapplicable columns; the edge frame has (src, dst,
// relation).
func (t *Topology) Frames() (nodes, edges *dataframe.Frame) {
	cols := []string{"id", "kind", "name", "capacity", "role", "speed_gbps", "admin_state", "region", "vendor", "ports"}
	nodes = dataframe.New(cols...)
	for _, e := range t.Entities {
		row := make([]any, len(cols))
		row[0] = e.ID
		for i, c := range cols[1:] {
			row[i+1] = e.Attrs[c]
		}
		nodes.AppendRow(row...)
	}
	edges = dataframe.New("src", "dst", "relation")
	for _, r := range t.Relationships {
		edges.AppendRow(r.From, r.To, r.Kind)
	}
	return nodes, edges
}

// DatabaseOf registers node and edge frames (as Frames builds them) as the
// "entities" and "relationships" tables the SQL backend queries. The tables
// are the frames themselves, not copies.
func DatabaseOf(nodes, edges *dataframe.Frame) *sqldb.DB {
	db := sqldb.NewDB()
	db.CreateTable("entities", nodes)
	db.CreateTable("relationships", edges)
	return db
}

// Wrapper is the MALT application wrapper (framework box 1).
type Wrapper struct {
	T *Topology
}

// NewWrapper wraps t.
func NewWrapper(t *Topology) *Wrapper { return &Wrapper{T: t} }

// Name identifies the application.
func (w *Wrapper) Name() string { return "network lifecycle management (MALT)" }

// Graph returns the topology as a directed graph.
func (w *Wrapper) Graph() *graph.Graph { return w.T.Graph() }

// Describe returns the data-model description injected into prompts,
// specialized per backend.
func (w *Wrapper) Describe(backend string) string {
	common := "The data is a MALT (Multi-Abstraction-Layer Topology) model: a " +
		"directed graph of network entities. Every node has attribute \"kind\" " +
		"(one of EK_NETWORK, EK_DATACENTER, EK_CHASSIS, EK_PACKET_SWITCH, " +
		"EK_PORT, EK_CONTROL_POINT) and \"name\". Chassis nodes also have " +
		"integer \"capacity\" and string \"vendor\"; packet switches have " +
		"\"role\" and integer \"ports\"; ports have integer \"speed_gbps\" and " +
		"\"admin_state\". Edges have attribute \"relation\": RK_CONTAINS points " +
		"from container to contained entity, RK_CONTROLS from control point to " +
		"controlled switch. Entity ids are prefixed by kind: dc.*, ch.*, ps.*, " +
		"ps.<switch>.p<N> for ports, cp.*."
	networkx := " A variable `graph` is bound to the directed graph " +
		"with the methods nodes(), edges(), node(id), edge(u, v), " +
		"neighbors(id), predecessors(id), degree(id), subgraph(ids), " +
		"add/remove_node, add/remove_edge, set_node_attr and " +
		"topological_sort(). edges() yields objects with .src, .dst, .attrs."
	pandas := " Two dataframes are bound: `nodes_df` with columns " +
		"(id, kind, name, capacity, role, speed_gbps, admin_state, region, " +
		"vendor, ports) — inapplicable cells are nil — and `edges_df` with " +
		"columns (src, dst, relation)."
	sql := " A variable `db` is bound to a SQL database with " +
		"tables entities(id, kind, name, capacity, role, speed_gbps, " +
		"admin_state, region, vendor, ports) and relationships(src, dst, " +
		"relation)."
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
