package nqlbind

import (
	"context"
	"errors"
	"strings"

	"repro/internal/federate"
	"repro/internal/nql"
	"repro/internal/obs"
)

// FedObject exposes the federated query planner to NQL scripts as the
// `fed` binding of the federated backend. Scripts build logical plans with
// fed.scan(source, table) and the chainable PlanObject methods; the plan
// executes (with pushdown optimization) only when collect/count/cell/
// to_frame force it, against the catalog's cloned substrates.
type FedObject struct {
	Cat     *federate.Catalog
	methods map[string]nql.Value
}

// NewFedObject wraps a catalog.
func NewFedObject(cat *federate.Catalog) *FedObject { return &FedObject{Cat: cat} }

// TypeName implements nql.Object.
func (o *FedObject) TypeName() string { return "federation" }

// String names the sources for display.
func (o *FedObject) String() string {
	return "federation(" + strings.Join(o.Cat.Sources(), ", ") + ")"
}

// Member implements nql.Object.
func (o *FedObject) Member(name string) (nql.Value, bool) {
	if v, ok := o.methods[name]; ok {
		return v, true
	}
	v, ok := o.member(name)
	if ok {
		if o.methods == nil {
			o.methods = make(map[string]nql.Value, 4)
		}
		o.methods[name] = v
	}
	return v, ok
}

func (o *FedObject) member(name string) (nql.Value, bool) {
	switch name {
	case "scan":
		return method("scan", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 2 {
				return nil, argCount(line, "scan", "2", len(args))
			}
			source, err := wantString(line, "scan", "source", args[0])
			if err != nil {
				return nil, err
			}
			table, err := wantString(line, "scan", "table", args[1])
			if err != nil {
				return nil, err
			}
			return &PlanObject{Cat: o.Cat, Plan: &federate.Scan{Source: source, Table: table}}, nil
		}), true
	case "sources":
		return method("sources", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 0 {
				return nil, argCount(line, "sources", "0", len(args))
			}
			return stringsToList(o.Cat.Sources()), nil
		}), true
	case "tables":
		return method("tables", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 1 {
				return nil, argCount(line, "tables", "1", len(args))
			}
			source, err := wantString(line, "tables", "source", args[0])
			if err != nil {
				return nil, err
			}
			names, err := o.Cat.Tables(source)
			if err != nil {
				return nil, runtimeErr(nql.ErrValue, line, err)
			}
			return stringsToList(names), nil
		}), true
	default:
		return nil, false
	}
}

// PlanObject is an immutable logical-plan handle. Every chaining method
// returns a new handle sharing the parent subtree, so plans compose like
// frames do.
type PlanObject struct {
	Cat  *federate.Catalog
	Plan federate.Node
}

// TypeName implements nql.Object.
func (p *PlanObject) TypeName() string { return "plan" }

// String renders the (unoptimized) operator tree.
func (p *PlanObject) String() string { return "plan:\n" + federate.Explain(p.Plan) }

func (p *PlanObject) derive(n federate.Node) *PlanObject {
	return &PlanObject{Cat: p.Cat, Plan: n}
}

func (p *PlanObject) execute(in *nql.Interp, line int) (*federate.Relation, error) {
	rel, err := federate.RunContext(in.Context(), p.Cat, p.Plan)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, nql.CancelError(line, err)
		}
		class := nql.ErrValue
		// Imaginary columns surface as attribute errors, matching the
		// failure taxonomy of the per-substrate bindings.
		if strings.Contains(err.Error(), "does not exist") || strings.Contains(err.Error(), "unknown column") {
			class = nql.ErrAttr
		}
		return nil, runtimeErr(class, line, err)
	}
	return rel, nil
}

// Member implements nql.Object. Plan handles are created per chain step,
// so methods are built on demand without memoization.
func (p *PlanObject) Member(name string) (nql.Value, bool) {
	switch name {
	case "filter":
		return method("filter", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 3 {
				return nil, argCount(line, "filter", "3 (col, op, value)", len(args))
			}
			col, err := wantString(line, "filter", "col", args[0])
			if err != nil {
				return nil, err
			}
			op, err := wantString(line, "filter", "op", args[1])
			if err != nil {
				return nil, err
			}
			if !federate.ValidOp(op) {
				return nil, &nql.RuntimeError{Class: nql.ErrArg, Line: line,
					Msg: "filter() op must be one of ==, !=, <, <=, >, >=, contains, prefix"}
			}
			switch args[2].(type) {
			case nil, bool, int64, float64, string:
			default:
				return nil, &nql.RuntimeError{Class: nql.ErrArg, Line: line,
					Msg: "filter() value must be a scalar, got " + nql.TypeName(args[2])}
			}
			return p.derive(&federate.Filter{Input: p.Plan, Pred: federate.Cmp{Col: col, Op: op, Value: args[2]}}), nil
		}), true
	case "where":
		return method("where", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 1 {
				return nil, argCount(line, "where", "1", len(args))
			}
			fn := args[0]
			pred := federate.FuncPred{Fn: func(row *nql.Map) (bool, error) {
				v, err := in.Call(fn, []nql.Value{row}, line)
				if err != nil {
					return false, err
				}
				return nql.Truthy(v), nil
			}}
			return p.derive(&federate.Filter{Input: p.Plan, Pred: pred}), nil
		}), true
	case "project", "select":
		return method(name, func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			cols, err := colsFromArgs(line, name, args)
			if err != nil {
				return nil, err
			}
			return p.derive(&federate.Project{Input: p.Plan, Cols: cols}), nil
		}), true
	case "join":
		return method("join", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 3 {
				return nil, argCount(line, "join", "3 (plan, left_key, right_key)", len(args))
			}
			other, ok := args[0].(*PlanObject)
			if !ok {
				return nil, &nql.RuntimeError{Class: nql.ErrArg, Line: line,
					Msg: "join() first argument must be a plan, got " + nql.TypeName(args[0])}
			}
			lk, err := wantString(line, "join", "left_key", args[1])
			if err != nil {
				return nil, err
			}
			rk, err := wantString(line, "join", "right_key", args[2])
			if err != nil {
				return nil, err
			}
			return p.derive(&federate.Join{Left: p.Plan, Right: other.Plan, LeftKey: lk, RightKey: rk}), nil
		}), true
	case "agg", "aggregate":
		return method(name, func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) < 2 {
				return nil, argCount(line, name, "2+ (group_cols, spec...)", len(args))
			}
			group, err := stringListArg(line, name, "group_cols", args[0])
			if err != nil {
				return nil, err
			}
			specs := make([]federate.AggSpec, 0, len(args)-1)
			for _, a := range args[1:] {
				l, ok := a.(*nql.List)
				if !ok || len(l.Items) != 3 {
					return nil, &nql.RuntimeError{Class: nql.ErrArg, Line: line,
						Msg: name + "() specs must be [col, fn, name] lists"}
				}
				col, err := wantString(line, name, "spec col", l.Items[0])
				if err != nil {
					return nil, err
				}
				fn, err := wantString(line, name, "spec fn", l.Items[1])
				if err != nil {
					return nil, err
				}
				as, err := wantString(line, name, "spec name", l.Items[2])
				if err != nil {
					return nil, err
				}
				specs = append(specs, federate.AggSpec{Col: col, Fn: fn, As: as})
			}
			return p.derive(&federate.Aggregate{Input: p.Plan, GroupBy: group, Aggs: specs}), nil
		}), true
	case "sort", "sort_values":
		return method(name, func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) < 1 {
				return nil, argCount(line, name, "1+", len(args))
			}
			ascending := true
			colArgs := args
			if b, ok := args[len(args)-1].(bool); ok {
				ascending = b
				colArgs = args[:len(args)-1]
			}
			cols, err := colsFromArgs(line, name, colArgs)
			if err != nil {
				return nil, err
			}
			return p.derive(&federate.Sort{Input: p.Plan, Cols: cols, Ascending: ascending}), nil
		}), true
	case "limit", "head":
		return method(name, func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 1 {
				return nil, argCount(line, name, "1", len(args))
			}
			n, err := wantInt(line, name, "n", args[0])
			if err != nil {
				return nil, err
			}
			return p.derive(&federate.Limit{Input: p.Plan, N: int(n)}), nil
		}), true
	case "collect", "records":
		return method(name, func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 0 {
				return nil, argCount(line, name, "0", len(args))
			}
			rel, err := p.execute(in, line)
			if err != nil {
				return nil, err
			}
			return rel.Value(), nil
		}), true
	case "count", "num_rows":
		return method(name, func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 0 {
				return nil, argCount(line, name, "0", len(args))
			}
			rel, err := p.execute(in, line)
			if err != nil {
				return nil, err
			}
			return int64(rel.NumRows()), nil
		}), true
	case "cell":
		return method("cell", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 2 {
				return nil, argCount(line, "cell", "2", len(args))
			}
			i, err := wantInt(line, "cell", "row", args[0])
			if err != nil {
				return nil, err
			}
			col, err := wantString(line, "cell", "col", args[1])
			if err != nil {
				return nil, err
			}
			rel, err := p.execute(in, line)
			if err != nil {
				return nil, err
			}
			f := rel.Frame()
			v, cerr := f.Cell(int(i), col)
			if cerr != nil {
				return nil, runtimeErr(nql.ErrIndex, line, cerr)
			}
			return v, nil
		}), true
	case "to_frame":
		return method("to_frame", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 0 {
				return nil, argCount(line, "to_frame", "0", len(args))
			}
			rel, err := p.execute(in, line)
			if err != nil {
				return nil, err
			}
			return NewFrameObject(rel.Frame()), nil
		}), true
	case "explain":
		return method("explain", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 0 {
				return nil, argCount(line, "explain", "0", len(args))
			}
			return federate.Prepare(p.Cat, p.Plan).Explain(), nil
		}), true
	case "explain_analyze":
		// EXPLAIN ANALYZE: execute the optimized plan under a fresh
		// operator profile (layered over the request context, so
		// cancellation and any request-level profile keep working) and
		// render the tree with per-operator rows and wall/own time.
		return method("explain_analyze", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 0 {
				return nil, argCount(line, "explain_analyze", "0", len(args))
			}
			prof := obs.NewProfile()
			ctx := obs.WithProfile(in.Context(), prof)
			if _, err := federate.RunContext(ctx, p.Cat, p.Plan); err != nil {
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					return nil, nql.CancelError(line, err)
				}
				return nil, runtimeErr(nql.ErrValue, line, err)
			}
			return strings.TrimRight(prof.String(), "\n"), nil
		}), true
	default:
		return nil, false
	}
}

// stringListArg accepts a list of strings (or a single string, lifted to a
// one-element list).
func stringListArg(line int, fname, param string, v nql.Value) ([]string, error) {
	if s, ok := v.(string); ok {
		return []string{s}, nil
	}
	l, ok := v.(*nql.List)
	if !ok {
		return nil, &nql.RuntimeError{Class: nql.ErrArg, Line: line,
			Msg: fname + "() " + param + " must be a string or list of strings, got " + nql.TypeName(v)}
	}
	out := make([]string, 0, len(l.Items))
	for _, it := range l.Items {
		s, err := wantString(line, fname, param, it)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
