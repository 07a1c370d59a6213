// Package nqlbind exposes the execution substrates (graph, dataframe, SQL
// database) to NQL scripts as host objects. These bindings are the
// "NetworkX / pandas / SQL libraries" that LLM-generated code calls: method
// names deliberately mirror the Python APIs the paper's generated programs
// use, and missing attributes/methods surface as categorized NQL attribute
// errors so the benchmark reproduces the paper's failure taxonomy.
package nqlbind

import (
	"fmt"
	"sort"

	"repro/internal/federate"
	"repro/internal/graph"
	"repro/internal/nql"
)

// GraphObject wraps graph.Graph for NQL scripts.
type GraphObject struct {
	G *graph.Graph
	// methods memoizes bound-method values per name: generated programs
	// call the same few members in loops, and building a fresh closure per
	// access dominated the binding's allocation profile. A GraphObject is
	// only ever used by the single interpreter that owns its sandbox run,
	// so the cache needs no locking.
	methods map[string]nql.Value
	// boxedNodes memoizes node IDs pre-converted to nql values, valid
	// while the graph's structural version is unchanged; nodes() then
	// copies the slice instead of re-boxing every ID.
	boxedNodes   []nql.Value
	boxedVersion uint64
}

// nodeList returns a fresh list of node IDs, reusing boxed ID values
// across calls while the node/edge set is unchanged.
func (o *GraphObject) nodeList() *nql.List {
	if o.boxedNodes == nil || o.boxedVersion != o.G.Version() {
		ids := o.G.Nodes()
		boxed := make([]nql.Value, len(ids))
		for i, id := range ids {
			boxed[i] = id
		}
		o.boxedNodes = boxed
		o.boxedVersion = o.G.Version()
	}
	items := make([]nql.Value, len(o.boxedNodes))
	copy(items, o.boxedNodes)
	return nql.NewList(items...)
}

// NewGraphObject wraps g.
func NewGraphObject(g *graph.Graph) *GraphObject { return &GraphObject{G: g} }

// TypeName implements nql.Object.
func (o *GraphObject) TypeName() string { return "graph" }

// String renders a short summary.
func (o *GraphObject) String() string { return o.G.String() }

// Size implements nql.Sizer: len(graph) is the node count, like NetworkX.
func (o *GraphObject) Size() int { return o.G.NumNodes() }

func method(name string, fn func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error)) *nql.Builtin {
	return &nql.Builtin{Name: name, Fn: fn}
}

func argCount(line int, name string, want string, got int) error {
	return &nql.RuntimeError{Class: nql.ErrArg, Line: line, Msg: fmt.Sprintf("%s() takes %s argument(s), got %d", name, want, got)}
}

func wantString(line int, name, param string, v nql.Value) (string, error) {
	s, ok := v.(string)
	if !ok {
		return "", &nql.RuntimeError{Class: nql.ErrArg, Line: line,
			Msg: fmt.Sprintf("%s() %s must be a string, got %s", name, param, nql.TypeName(v))}
	}
	return s, nil
}

func wantInt(line int, name, param string, v nql.Value) (int64, error) {
	n, ok := v.(int64)
	if !ok {
		return 0, &nql.RuntimeError{Class: nql.ErrArg, Line: line,
			Msg: fmt.Sprintf("%s() %s must be an int, got %s", name, param, nql.TypeName(v))}
	}
	return n, nil
}

func runtimeErr(class nql.ErrClass, line int, err error) error {
	return &nql.RuntimeError{Class: class, Line: line, Msg: err.Error()}
}

func stringsToList(ss []string) *nql.List {
	items := make([]nql.Value, len(ss))
	for i, s := range ss {
		items[i] = s
	}
	return nql.NewList(items...)
}

func floatMapToNQL(m map[string]float64) *nql.Map {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := nql.NewMap()
	for _, k := range keys {
		_ = out.Set(k, m[k])
	}
	return out
}

// Member implements nql.Object, dispatching graph methods.
func (o *GraphObject) Member(name string) (nql.Value, bool) {
	if v, ok := o.methods[name]; ok {
		return v, true
	}
	v, ok := o.member(name)
	if ok {
		if o.methods == nil {
			o.methods = make(map[string]nql.Value, 8)
		}
		o.methods[name] = v
	}
	return v, ok
}

func (o *GraphObject) member(name string) (nql.Value, bool) {
	g := o.G
	switch name {
	case "directed":
		return g.Directed(), true
	case "nodes":
		return method("nodes", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 0 {
				return nil, argCount(line, "nodes", "0", len(args))
			}
			return o.nodeList(), nil
		}), true
	case "edges":
		return method("edges", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 0 {
				return nil, argCount(line, "edges", "0", len(args))
			}
			// Only the endpoints are needed here; EdgesView avoids
			// forcing a copy-on-write copy of every edge attr map.
			edges := g.EdgesView()
			items := make([]nql.Value, len(edges))
			for i, e := range edges {
				items[i] = &EdgeObject{G: g, U: e.U, V: e.V}
			}
			return nql.NewList(items...), nil
		}), true
	case "number_of_nodes":
		return method("number_of_nodes", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			return int64(g.NumNodes()), nil
		}), true
	case "number_of_edges":
		return method("number_of_edges", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			return int64(g.NumEdges()), nil
		}), true
	case "has_node":
		return method("has_node", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 1 {
				return nil, argCount(line, "has_node", "1", len(args))
			}
			id, err := wantString(line, "has_node", "node", args[0])
			if err != nil {
				return nil, err
			}
			return g.HasNode(id), nil
		}), true
	case "has_edge":
		return method("has_edge", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 2 {
				return nil, argCount(line, "has_edge", "2", len(args))
			}
			u, err := wantString(line, "has_edge", "u", args[0])
			if err != nil {
				return nil, err
			}
			v, err := wantString(line, "has_edge", "v", args[1])
			if err != nil {
				return nil, err
			}
			return g.HasEdge(u, v), nil
		}), true
	case "add_node":
		return method("add_node", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 1 && len(args) != 2 {
				return nil, argCount(line, "add_node", "1 or 2", len(args))
			}
			id, err := wantString(line, "add_node", "node", args[0])
			if err != nil {
				return nil, err
			}
			attrs := graph.Attrs{}
			if len(args) == 2 {
				attrs, err = mapToAttrs(line, "add_node", args[1])
				if err != nil {
					return nil, err
				}
			}
			g.AddNode(id, attrs)
			return nil, nil
		}), true
	case "add_edge":
		return method("add_edge", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 2 && len(args) != 3 {
				return nil, argCount(line, "add_edge", "2 or 3", len(args))
			}
			u, err := wantString(line, "add_edge", "u", args[0])
			if err != nil {
				return nil, err
			}
			v, err := wantString(line, "add_edge", "v", args[1])
			if err != nil {
				return nil, err
			}
			attrs := graph.Attrs{}
			if len(args) == 3 {
				attrs, err = mapToAttrs(line, "add_edge", args[2])
				if err != nil {
					return nil, err
				}
			}
			g.AddEdge(u, v, attrs)
			return nil, nil
		}), true
	case "add_edge_batch":
		// Incremental update entry point for streamed datasets: applies a
		// whole edge batch (list of {src, dst, <attrs>...} maps, the shape
		// edge_stream.next() yields) in one call and returns the number of
		// edges applied.
		return method("add_edge_batch", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 1 {
				return nil, argCount(line, "add_edge_batch", "1", len(args))
			}
			batch, ok := args[0].(*nql.List)
			if !ok {
				return nil, &nql.RuntimeError{Class: nql.ErrArg, Line: line,
					Msg: fmt.Sprintf("add_edge_batch() batch must be a list of edge maps, got %s", nql.TypeName(args[0]))}
			}
			for _, item := range batch.Items {
				attrs, err := mapToAttrs(line, "add_edge_batch", item)
				if err != nil {
					return nil, err
				}
				u, uok := attrs["src"].(string)
				v, vok := attrs["dst"].(string)
				if !uok || !vok {
					return nil, &nql.RuntimeError{Class: nql.ErrValue, Line: line,
						Msg: "add_edge_batch() edge maps need string \"src\" and \"dst\" keys"}
				}
				delete(attrs, "src")
				delete(attrs, "dst")
				g.AddEdge(u, v, attrs)
			}
			return int64(len(batch.Items)), nil
		}), true
	case "remove_node":
		return method("remove_node", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 1 {
				return nil, argCount(line, "remove_node", "1", len(args))
			}
			id, err := wantString(line, "remove_node", "node", args[0])
			if err != nil {
				return nil, err
			}
			if err := g.RemoveNode(id); err != nil {
				return nil, runtimeErr(nql.ErrValue, line, err)
			}
			return nil, nil
		}), true
	case "remove_edge":
		return method("remove_edge", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 2 {
				return nil, argCount(line, "remove_edge", "2", len(args))
			}
			u, err := wantString(line, "remove_edge", "u", args[0])
			if err != nil {
				return nil, err
			}
			v, err := wantString(line, "remove_edge", "v", args[1])
			if err != nil {
				return nil, err
			}
			if err := g.RemoveEdge(u, v); err != nil {
				return nil, runtimeErr(nql.ErrValue, line, err)
			}
			return nil, nil
		}), true
	case "node":
		return method("node", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 1 {
				return nil, argCount(line, "node", "1", len(args))
			}
			id, err := wantString(line, "node", "node", args[0])
			if err != nil {
				return nil, err
			}
			if !g.HasNode(id) {
				return nil, &nql.RuntimeError{Class: nql.ErrValue, Line: line, Msg: fmt.Sprintf("node %q does not exist", id)}
			}
			return &AttrMapObject{g: g, u: id, kind: attrNode, m: g.NodeAttrsView(id)}, nil
		}), true
	case "edge":
		return method("edge", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 2 {
				return nil, argCount(line, "edge", "2", len(args))
			}
			u, err := wantString(line, "edge", "u", args[0])
			if err != nil {
				return nil, err
			}
			v, err := wantString(line, "edge", "v", args[1])
			if err != nil {
				return nil, err
			}
			if !g.HasEdge(u, v) {
				return nil, &nql.RuntimeError{Class: nql.ErrValue, Line: line, Msg: fmt.Sprintf("edge (%q,%q) does not exist", u, v)}
			}
			return &AttrMapObject{g: g, u: u, v: v, kind: attrEdge, m: g.EdgeAttrsView(u, v)}, nil
		}), true
	case "set_node_attr":
		return method("set_node_attr", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 3 {
				return nil, argCount(line, "set_node_attr", "3", len(args))
			}
			id, err := wantString(line, "set_node_attr", "node", args[0])
			if err != nil {
				return nil, err
			}
			key, err := wantString(line, "set_node_attr", "key", args[1])
			if err != nil {
				return nil, err
			}
			val, err := toGoValue(args[2], line)
			if err != nil {
				return nil, err
			}
			if err := g.SetNodeAttr(id, key, val); err != nil {
				return nil, runtimeErr(nql.ErrValue, line, err)
			}
			return nil, nil
		}), true
	case "set_edge_attr":
		return method("set_edge_attr", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 4 {
				return nil, argCount(line, "set_edge_attr", "4", len(args))
			}
			u, err := wantString(line, "set_edge_attr", "u", args[0])
			if err != nil {
				return nil, err
			}
			v, err := wantString(line, "set_edge_attr", "v", args[1])
			if err != nil {
				return nil, err
			}
			key, err := wantString(line, "set_edge_attr", "key", args[2])
			if err != nil {
				return nil, err
			}
			val, err := toGoValue(args[3], line)
			if err != nil {
				return nil, err
			}
			if err := g.SetEdgeAttr(u, v, key, val); err != nil {
				return nil, runtimeErr(nql.ErrValue, line, err)
			}
			return nil, nil
		}), true
	case "degree":
		return o.degreeMethod("degree", func(id string) int { return g.Degree(id) }), true
	case "in_degree":
		return o.degreeMethod("in_degree", func(id string) int { return g.InDegree(id) }), true
	case "out_degree":
		return o.degreeMethod("out_degree", func(id string) int { return g.OutDegree(id) }), true
	case "neighbors":
		return method("neighbors", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 1 {
				return nil, argCount(line, "neighbors", "1", len(args))
			}
			id, err := wantString(line, "neighbors", "node", args[0])
			if err != nil {
				return nil, err
			}
			if !g.HasNode(id) {
				return nil, &nql.RuntimeError{Class: nql.ErrValue, Line: line, Msg: fmt.Sprintf("node %q does not exist", id)}
			}
			return stringsToList(g.Neighbors(id)), nil
		}), true
	case "predecessors":
		return method("predecessors", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 1 {
				return nil, argCount(line, "predecessors", "1", len(args))
			}
			id, err := wantString(line, "predecessors", "node", args[0])
			if err != nil {
				return nil, err
			}
			if !g.HasNode(id) {
				return nil, &nql.RuntimeError{Class: nql.ErrValue, Line: line, Msg: fmt.Sprintf("node %q does not exist", id)}
			}
			return stringsToList(g.Predecessors(id)), nil
		}), true
	case "has_path":
		return method("has_path", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 2 {
				return nil, argCount(line, "has_path", "2", len(args))
			}
			u, err := wantString(line, "has_path", "source", args[0])
			if err != nil {
				return nil, err
			}
			v, err := wantString(line, "has_path", "target", args[1])
			if err != nil {
				return nil, err
			}
			if !g.HasNode(u) || !g.HasNode(v) {
				return false, nil
			}
			_, err = g.ShortestPath(u, v)
			return err == nil, nil
		}), true
	case "shortest_path":
		return method("shortest_path", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 2 {
				return nil, argCount(line, "shortest_path", "2", len(args))
			}
			u, err := wantString(line, "shortest_path", "source", args[0])
			if err != nil {
				return nil, err
			}
			v, err := wantString(line, "shortest_path", "target", args[1])
			if err != nil {
				return nil, err
			}
			p, err := g.ShortestPath(u, v)
			if err != nil {
				return nil, runtimeErr(nql.ErrValue, line, err)
			}
			return stringsToList(p), nil
		}), true
	case "hop_count", "shortest_path_length":
		return method(name, func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 2 {
				return nil, argCount(line, name, "2", len(args))
			}
			u, err := wantString(line, name, "source", args[0])
			if err != nil {
				return nil, err
			}
			v, err := wantString(line, name, "target", args[1])
			if err != nil {
				return nil, err
			}
			h, err := g.HopCount(u, v)
			if err != nil {
				return nil, runtimeErr(nql.ErrValue, line, err)
			}
			return int64(h), nil
		}), true
	case "dijkstra_path":
		return method("dijkstra_path", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 3 {
				return nil, argCount(line, "dijkstra_path", "3", len(args))
			}
			u, err := wantString(line, "dijkstra_path", "source", args[0])
			if err != nil {
				return nil, err
			}
			v, err := wantString(line, "dijkstra_path", "target", args[1])
			if err != nil {
				return nil, err
			}
			w, err := wantString(line, "dijkstra_path", "weight", args[2])
			if err != nil {
				return nil, err
			}
			p, cost, err := g.DijkstraPath(u, v, w)
			if err != nil {
				return nil, runtimeErr(nql.ErrValue, line, err)
			}
			out := nql.NewMap()
			_ = out.Set("path", stringsToList(p))
			_ = out.Set("cost", cost)
			return out, nil
		}), true
	case "connected_components":
		return method("connected_components", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			comps := g.ConnectedComponents()
			items := make([]nql.Value, len(comps))
			for i, c := range comps {
				items[i] = stringsToList(c)
			}
			return nql.NewList(items...), nil
		}), true
	case "strongly_connected_components":
		return method("strongly_connected_components", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			comps := g.StronglyConnectedComponents()
			items := make([]nql.Value, len(comps))
			for i, c := range comps {
				items[i] = stringsToList(c)
			}
			return nql.NewList(items...), nil
		}), true
	case "subgraph":
		return method("subgraph", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 1 {
				return nil, argCount(line, "subgraph", "1", len(args))
			}
			l, ok := args[0].(*nql.List)
			if !ok {
				return nil, &nql.RuntimeError{Class: nql.ErrArg, Line: line, Msg: "subgraph() requires a list of node ids"}
			}
			keep := make([]string, 0, len(l.Items))
			for _, it := range l.Items {
				s, err := wantString(line, "subgraph", "node id", it)
				if err != nil {
					return nil, err
				}
				keep = append(keep, s)
			}
			return NewGraphObject(g.Subgraph(keep)), nil
		}), true
	case "clone", "copy":
		return method(name, func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			return NewGraphObject(g.Clone()), nil
		}), true
	case "reverse":
		return method("reverse", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			return NewGraphObject(g.Reverse()), nil
		}), true
	case "to_undirected":
		return method("to_undirected", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			return NewGraphObject(g.AsUndirected()), nil
		}), true
	case "density":
		return method("density", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			return g.Density(), nil
		}), true
	case "isolated_nodes", "isolates":
		return method(name, func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			return stringsToList(g.IsolatedNodes()), nil
		}), true
	case "self_loops":
		return method("self_loops", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			loops := g.SelfLoops()
			items := make([]nql.Value, len(loops))
			for i, e := range loops {
				items[i] = &EdgeObject{G: g, U: e.U, V: e.V}
			}
			return nql.NewList(items...), nil
		}), true
	case "has_cycle":
		return method("has_cycle", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			return g.HasCycle(), nil
		}), true
	case "topological_sort":
		return method("topological_sort", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			order, err := g.TopologicalSort()
			if err != nil {
				return nil, runtimeErr(nql.ErrValue, line, err)
			}
			return stringsToList(order), nil
		}), true
	case "diameter":
		return method("diameter", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			return int64(g.Diameter()), nil
		}), true
	case "average_shortest_path_length":
		return method("average_shortest_path_length", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			return g.AverageShortestPathLength(), nil
		}), true
	case "degree_centrality":
		return method("degree_centrality", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			return floatMapToNQL(g.DegreeCentrality()), nil
		}), true
	case "closeness_centrality":
		return method("closeness_centrality", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			return floatMapToNQL(g.ClosenessCentrality()), nil
		}), true
	case "betweenness_centrality":
		return method("betweenness_centrality", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			return floatMapToNQL(g.BetweennessCentrality(true)), nil
		}), true
	case "pagerank":
		return method("pagerank", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			return floatMapToNQL(g.PageRank(0.85, 100, 1e-9)), nil
		}), true
	case "clustering":
		return method("clustering", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			return floatMapToNQL(g.ClusteringCoefficient()), nil
		}), true
	case "average_clustering":
		return method("average_clustering", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			return g.AverageClustering(), nil
		}), true
	case "weighted_degree":
		return method("weighted_degree", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 2 {
				return nil, argCount(line, "weighted_degree", "2", len(args))
			}
			id, err := wantString(line, "weighted_degree", "node", args[0])
			if err != nil {
				return nil, err
			}
			attr, err := wantString(line, "weighted_degree", "attr", args[1])
			if err != nil {
				return nil, err
			}
			w, err := g.WeightedDegree(id, attr)
			if err != nil {
				return nil, runtimeErr(nql.ErrValue, line, err)
			}
			return w, nil
		}), true
	case "top_n_by_degree":
		return method("top_n_by_degree", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 1 {
				return nil, argCount(line, "top_n_by_degree", "1", len(args))
			}
			n, err := wantInt(line, "top_n_by_degree", "n", args[0])
			if err != nil {
				return nil, err
			}
			top := g.TopNByDegree(int(n))
			items := make([]nql.Value, len(top))
			for i, t := range top {
				items[i] = nql.NewList(t.Node, int64(t.Degree))
			}
			return nql.NewList(items...), nil
		}), true
	default:
		return nil, false
	}
}

func (o *GraphObject) degreeMethod(name string, fn func(id string) int) *nql.Builtin {
	g := o.G
	return method(name, func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
		if len(args) != 1 {
			return nil, argCount(line, name, "1", len(args))
		}
		id, err := wantString(line, name, "node", args[0])
		if err != nil {
			return nil, err
		}
		if !g.HasNode(id) {
			return nil, &nql.RuntimeError{Class: nql.ErrValue, Line: line, Msg: fmt.Sprintf("node %q does not exist", id)}
		}
		return int64(fn(id)), nil
	})
}

// mapToAttrs converts an NQL map into graph attributes.
func mapToAttrs(line int, fname string, v nql.Value) (graph.Attrs, error) {
	m, ok := v.(*nql.Map)
	if !ok {
		return nil, &nql.RuntimeError{Class: nql.ErrArg, Line: line,
			Msg: fmt.Sprintf("%s() attributes must be a map, got %s", fname, nql.TypeName(v))}
	}
	attrs := graph.Attrs{}
	keys, vals := m.Keys(), m.Values()
	for i, k := range keys {
		ks, ok := k.(string)
		if !ok {
			return nil, &nql.RuntimeError{Class: nql.ErrArg, Line: line,
				Msg: fmt.Sprintf("%s() attribute keys must be strings", fname)}
		}
		gv, err := toGoValue(vals[i], line)
		if err != nil {
			return nil, err
		}
		attrs[ks] = gv
	}
	return attrs, nil
}

// toGoValue converts an NQL value to the attribute domain (lists/maps
// convert recursively). A list or map nested past nql.MaxNesting (a
// cyclic one) fails the run at line.
func toGoValue(v nql.Value, line int) (any, error) {
	out, err := goValue(v, 0)
	if err != nil {
		return nil, runtimeErr(nql.ErrOp, line, err)
	}
	return out, nil
}

func goValue(v nql.Value, depth int) (any, error) {
	switch v.(type) {
	case *nql.List, *nql.Map:
		if depth == nql.MaxNesting {
			return nil, nql.ErrNesting
		}
	}
	var err error
	switch x := v.(type) {
	case *nql.List:
		out := make([]any, len(x.Items))
		for i, it := range x.Items {
			if out[i], err = goValue(it, depth+1); err != nil {
				return nil, err
			}
		}
		return out, nil
	case *nql.Map:
		out := map[string]any{}
		keys, vals := x.Keys(), x.Values()
		for i, k := range keys {
			if ks, ok := k.(string); ok {
				if out[ks], err = goValue(vals[i], depth+1); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	default:
		return v, nil
	}
}

// EdgeObject is a live view of one edge.
type EdgeObject struct {
	G    *graph.Graph
	U, V string
}

// TypeName implements nql.Object.
func (e *EdgeObject) TypeName() string { return "edge" }

// String renders "u->v".
func (e *EdgeObject) String() string { return fmt.Sprintf("edge(%s->%s)", e.U, e.V) }

// Member exposes src/dst/attrs (and u/v aliases).
func (e *EdgeObject) Member(name string) (nql.Value, bool) {
	switch name {
	case "src", "u", "source":
		return e.U, true
	case "dst", "v", "target":
		return e.V, true
	case "attrs":
		if !e.G.HasEdge(e.U, e.V) {
			return &AttrMapObject{m: graph.Attrs{}, kind: attrDetached}, true
		}
		return &AttrMapObject{g: e.G, u: e.U, v: e.V, kind: attrEdge, m: e.G.EdgeAttrsView(e.U, e.V)}, true
	default:
		return nil, false
	}
}

// AttrMapObject is a live, mutable view over a graph attribute map. Reading
// a missing key raises an attribute error — the "imaginary graph attribute"
// failure class.
//
// The view addresses its attribute map through the owning graph (node or
// edge key) rather than holding the map directly: reads then never force a
// copy-on-write copy, writes take ownership through the graph first, and
// two views of the same node always observe each other's mutations — the
// same aliasing behavior a live map reference had before COW sharing.
type AttrMapObject struct {
	g    *graph.Graph
	u, v string // node id (kind attrNode) or edge endpoints (attrEdge)
	kind uint8
	m    graph.Attrs // detached map (kind attrDetached only)
}

const (
	attrDetached uint8 = iota
	attrNode
	attrEdge
)

// view returns the current attribute map for reading only. While the
// owning node/edge exists it tracks the graph's live map; after a removal
// it keeps answering from the last observed (orphaned) map, matching the
// pre-COW behavior of holding a live map reference.
func (a *AttrMapObject) view() graph.Attrs {
	switch a.kind {
	case attrNode:
		if m := a.g.NodeAttrsView(a.u); m != nil {
			a.m = m
			return m
		}
	case attrEdge:
		if m := a.g.EdgeAttrsView(a.u, a.v); m != nil {
			a.m = m
			return m
		}
	default:
		return a.m
	}
	return a.m
}

// mutable returns the attribute map with ownership taken, for writing.
func (a *AttrMapObject) mutable() graph.Attrs {
	switch a.kind {
	case attrNode:
		if m := a.g.NodeAttrs(a.u); m != nil {
			return m
		}
	case attrEdge:
		if m := a.g.EdgeAttrs(a.u, a.v); m != nil {
			return m
		}
	default:
		return a.m
	}
	// The owner was removed after this view was taken. Detach onto a
	// private copy of the last observed map so the write still succeeds
	// (as it did when views held live map references) without touching
	// storage that may be shared copy-on-write with other graphs.
	a.m = a.m.Clone()
	if a.m == nil {
		a.m = graph.Attrs{}
	}
	a.kind = attrDetached
	return a.m
}

// describe names the map's owner in error messages; built lazily because
// the happy path never needs it.
func (a *AttrMapObject) describe() string {
	switch a.kind {
	case attrNode:
		return fmt.Sprintf("node %q", a.u)
	case attrEdge:
		return fmt.Sprintf("edge (%q,%q)", a.u, a.v)
	default:
		return "attrs"
	}
}

// TypeName implements nql.Object.
func (a *AttrMapObject) TypeName() string { return "attrs" }

// String renders the attribute map canonically.
func (a *AttrMapObject) String() string { return graph.CanonValue(a.view()) }

// Size implements nql.Sizer.
func (a *AttrMapObject) Size() int { return len(a.view()) }

// MapKeys implements nql.KeysValuer (sorted for determinism).
func (a *AttrMapObject) MapKeys() []nql.Value {
	attrs := a.view()
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]nql.Value, len(keys))
	for i, k := range keys {
		out[i] = k
	}
	return out
}

// MapValues implements nql.KeysValuer.
func (a *AttrMapObject) MapValues() []nql.Value {
	attrs := a.view()
	keys := a.MapKeys()
	out := make([]nql.Value, len(keys))
	for i, k := range keys {
		out[i] = federate.LiftValue(attrs[k.(string)])
	}
	return out
}

// Member supports `attrs.get(key, default)` and `attrs.has(key)`.
func (a *AttrMapObject) Member(name string) (nql.Value, bool) {
	switch name {
	case "get":
		return method("get", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 1 && len(args) != 2 {
				return nil, argCount(line, "get", "1 or 2", len(args))
			}
			k, err := wantString(line, "get", "key", args[0])
			if err != nil {
				return nil, err
			}
			if v, ok := a.view()[k]; ok {
				return federate.LiftValue(v), nil
			}
			if len(args) == 2 {
				return args[1], nil
			}
			return nil, nil
		}), true
	case "has":
		return method("has", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 1 {
				return nil, argCount(line, "has", "1", len(args))
			}
			k, err := wantString(line, "has", "key", args[0])
			if err != nil {
				return nil, err
			}
			_, ok := a.view()[k]
			return ok, nil
		}), true
	default:
		return nil, false
	}
}

// Index implements obj[key] reads; missing keys are attribute errors.
func (a *AttrMapObject) Index(idx nql.Value, line int) (nql.Value, error) {
	k, ok := idx.(string)
	if !ok {
		return nil, &nql.RuntimeError{Class: nql.ErrIndex, Line: line,
			Msg: fmt.Sprintf("attribute key must be a string, got %s", nql.TypeName(idx))}
	}
	v, ok := a.view()[k]
	if !ok {
		return nil, &nql.RuntimeError{Class: nql.ErrAttr, Line: line,
			Msg: fmt.Sprintf("%s has no attribute %q", a.describe(), k)}
	}
	return federate.LiftValue(v), nil
}

// SetIndex implements obj[key] = v writes.
func (a *AttrMapObject) SetIndex(idx, v nql.Value, line int) error {
	k, ok := idx.(string)
	if !ok {
		return &nql.RuntimeError{Class: nql.ErrIndex, Line: line,
			Msg: fmt.Sprintf("attribute key must be a string, got %s", nql.TypeName(idx))}
	}
	gv, err := toGoValue(v, line)
	if err != nil {
		return err
	}
	a.mutable()[k] = gv
	return nil
}
