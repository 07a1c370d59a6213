package nqlbind

import (
	"repro/internal/graph"
	"repro/internal/nql"
	"repro/internal/scalar"
)

// Globals assembles the standard host environment for a generated program:
// whichever of g, nodes/edges frames and db are non-nil get bound under the
// conventional names the prompt generator documents ("graph", "nodes_df",
// "edges_df", "db"), plus shared analytics helpers (kmeans).
func Globals(g *graph.Graph, bindings map[string]nql.Value) map[string]nql.Value {
	out := map[string]nql.Value{}
	if g != nil {
		out["graph"] = NewGraphObject(g)
	}
	for k, v := range bindings {
		out[k] = v
	}
	out["kmeans"] = kmeansShared
	return out
}

// kmeansShared is the one kmeans builtin instance: it is stateless, so
// every sandbox run shares it instead of rebuilding the closure.
var kmeansShared = kmeansBuiltin()

// kmeansBuiltin exposes deterministic 1-D k-means: kmeans(values, k) returns
// the cluster index per value (0..k-1, ordered by ascending centroid).
func kmeansBuiltin() *nql.Builtin {
	return method("kmeans", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
		if len(args) != 2 {
			return nil, argCount(line, "kmeans", "2", len(args))
		}
		l, ok := args[0].(*nql.List)
		if !ok {
			return nil, &nql.RuntimeError{Class: nql.ErrArg, Line: line, Msg: "kmeans() first argument must be a list of numbers"}
		}
		k, err := wantInt(line, "kmeans", "k", args[1])
		if err != nil {
			return nil, err
		}
		if k <= 0 {
			return nil, &nql.RuntimeError{Class: nql.ErrValue, Line: line, Msg: "kmeans() k must be positive"}
		}
		vals := make([]float64, len(l.Items))
		for i, it := range l.Items {
			if vals[i], ok = scalar.Float(it); !ok {
				return nil, &nql.RuntimeError{Class: nql.ErrArg, Line: line, Msg: "kmeans() values must be numbers"}
			}
		}
		assign := graph.KMeans1D(vals, int(k), 100)
		items := make([]nql.Value, len(assign))
		for i, a := range assign {
			items[i] = int64(a)
		}
		return nql.NewList(items...), nil
	})
}
