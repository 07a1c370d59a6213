package nqlbind

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dataframe"
	"repro/internal/federate"
	"repro/internal/nql"
)

// FrameObject wraps a dataframe.Frame for NQL scripts. Method names follow
// pandas ergonomics (filter, sort_values, groupby/agg, merge, head, ...).
type FrameObject struct {
	F *dataframe.Frame

	// methods memoizes bound-method values per name (same single-run,
	// single-goroutine ownership argument as GraphObject.methods).
	methods map[string]nql.Value
}

// NewFrameObject wraps f.
func NewFrameObject(f *dataframe.Frame) *FrameObject { return &FrameObject{F: f} }

// TypeName implements nql.Object.
func (o *FrameObject) TypeName() string { return "frame" }

// String renders the frame as a table.
func (o *FrameObject) String() string { return o.F.String() }

// Size implements nql.Sizer: len(frame) is the row count.
func (o *FrameObject) Size() int { return o.F.NumRows() }

// rowView builds a frame's rows as NQL maps. It holds the frame's column
// slices and one nql.MapShape for its columns, so a row map is just the
// row's boxed cells wrapped in the shared key layout: no per-row key copies
// and no per-row hash index. Each row map owns its values, and the first key
// it adds or deletes copies the shared keys, so rows stay as isolated as
// separately built maps.
//
// records() builds every row before the caller sees any. filter() and
// mutate() build one row per predicate call, and must refresh() before
// each, since the predicate can append rows or set cells, and a
// copy-on-write column may have been replaced since the last row. A for
// loop in row form reads frameRows: the column slices as they were at loop
// start, with the frame marked copy-on-write (Frame.Share) so writes in the
// body go to fresh columns. It reads scalar cells in place and builds a row
// map, and its shape, only when the body reads a container cell or a
// missing key.
type rowView struct {
	f     *dataframe.Frame
	names []string
	shape *nql.MapShape
	data  [][]any
}

func newRowView(f *dataframe.Frame) rowView {
	rv := columnsOf(f)
	rv.shape = shapeOf(rv.names)
	return rv
}

// columnsOf is a rowView of f's columns without its shape.
func columnsOf(f *dataframe.Frame) rowView {
	names := f.Columns()
	data := make([][]any, len(names))
	for i, c := range names {
		data[i], _ = f.Column(c)
	}
	return rowView{f: f, names: names, data: data}
}

// shapeOf is the key layout of rows with the given columns.
func shapeOf(names []string) *nql.MapShape {
	boxed := make([]nql.Value, len(names))
	for i, c := range names {
		boxed[i] = c
	}
	return nql.NewMapShape(boxed)
}

// frameRows is the nql.Rows of a FrameObject: a rowView over the frame's
// columns at loop start, which keeps those cells even when the loop body
// appends rows or sets cells.
type frameRows struct {
	rowView
	n int
}

// Rows implements nql.RowSource.
func (o *FrameObject) Rows() nql.Rows {
	rv := columnsOf(o.F)
	o.F.Share()
	return &frameRows{rowView: rv, n: o.F.NumRows()}
}

// Len implements nql.Rows.
func (r *frameRows) Len() int { return r.n }

// Field implements nql.Rows: the cell of row i in the column named key,
// when it is a scalar. Any other cell lifts to a fresh container, which
// the row map built once per row holds instead.
func (r *frameRows) Field(i int, key string) (nql.Value, bool) {
	for j, c := range r.names {
		if c == key {
			switch v := r.data[j][i].(type) {
			case nil, bool, int64, float64, string:
				return v, true
			}
			return nil, false
		}
	}
	return nil, false
}

// Row implements nql.Rows.
func (r *frameRows) Row(i int) *nql.Map {
	if r.shape == nil {
		r.shape = shapeOf(r.names)
	}
	return r.mapAt(i)
}

// refresh re-reads the column slices (cheap: no allocation) so the next
// mapAt observes any mutation the previous callback performed.
func (rv *rowView) refresh() {
	for i, c := range rv.names {
		rv.data[i], _ = rv.f.Column(c)
	}
}

// mapAt returns row i as a map.
func (rv *rowView) mapAt(i int) *nql.Map {
	vals := make([]nql.Value, rv.shape.Len())
	rv.fill(i, vals)
	return rv.shape.Map(vals)
}

// fill stores row i's boxed cells into vals, slot for slot.
func (rv *rowView) fill(i int, vals []nql.Value) {
	for j, col := range rv.data {
		if slot := rv.shape.Slot(j); slot >= 0 {
			vals[slot] = federate.LiftValue(col[i])
		}
	}
}

func colsFromArgs(line int, name string, args []nql.Value) ([]string, error) {
	var cols []string
	for _, a := range args {
		switch x := a.(type) {
		case string:
			cols = append(cols, x)
		case *nql.List:
			for _, it := range x.Items {
				s, err := wantString(line, name, "column", it)
				if err != nil {
					return nil, err
				}
				cols = append(cols, s)
			}
		default:
			return nil, &nql.RuntimeError{Class: nql.ErrArg, Line: line,
				Msg: fmt.Sprintf("%s() expects column names, got %s", name, nql.TypeName(a))}
		}
	}
	return cols, nil
}

// Member implements nql.Object, memoizing bound methods per name.
func (o *FrameObject) Member(name string) (nql.Value, bool) {
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

func (o *FrameObject) member(name string) (nql.Value, bool) {
	f := o.F
	switch name {
	case "columns":
		return method("columns", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			return stringsToList(f.Columns()), nil
		}), true
	case "num_rows", "count":
		return method(name, func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			return int64(f.NumRows()), nil
		}), true
	case "records", "to_records":
		return method(name, func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			rv := newRowView(f)
			return nql.NewList(rv.shape.Rows(f.NumRows(), rv.fill)...), nil
		}), true
	case "row":
		return method("row", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 1 {
				return nil, argCount(line, "row", "1", len(args))
			}
			i, err := wantInt(line, "row", "index", args[0])
			if err != nil {
				return nil, err
			}
			if i < 0 || int(i) >= f.NumRows() {
				return nil, &nql.RuntimeError{Class: nql.ErrIndex, Line: line,
					Msg: fmt.Sprintf("row %d out of range (%d rows)", i, f.NumRows())}
			}
			rv := newRowView(f)
			return rv.mapAt(int(i)), nil
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
			col, err := wantString(line, "cell", "column", args[1])
			if err != nil {
				return nil, err
			}
			v, err := f.Cell(int(i), col)
			if err != nil {
				return nil, runtimeErr(nql.ErrAttr, line, err)
			}
			return federate.LiftValue(v), nil
		}), true
	case "column", "col":
		return method(name, func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 1 {
				return nil, argCount(line, name, "1", len(args))
			}
			col, err := wantString(line, name, "column", args[0])
			if err != nil {
				return nil, err
			}
			vals, err := f.Column(col)
			if err != nil {
				return nil, runtimeErr(nql.ErrAttr, line, err)
			}
			items := make([]nql.Value, len(vals))
			for i, v := range vals {
				items[i] = federate.LiftValue(v)
			}
			return nql.NewList(items...), nil
		}), true
	case "filter":
		return method("filter", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 1 {
				return nil, argCount(line, "filter", "1", len(args))
			}
			rv := newRowView(f)
			out, err := f.FilterIdx(func(i int) (bool, error) {
				rv.refresh()
				v, err := in.Call(args[0], []nql.Value{rv.mapAt(i)}, line)
				if err != nil {
					return false, err
				}
				return nql.Truthy(v), nil
			})
			if err != nil {
				if _, ok := err.(*nql.RuntimeError); ok {
					return nil, err
				}
				return nil, runtimeErr(nql.ErrOp, line, err)
			}
			return NewFrameObject(out), nil
		}), true
	case "filter_eq":
		return method("filter_eq", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 2 {
				return nil, argCount(line, "filter_eq", "2", len(args))
			}
			col, err := wantString(line, "filter_eq", "column", args[0])
			if err != nil {
				return nil, err
			}
			want, err := toGoValue(args[1], line)
			if err != nil {
				return nil, err
			}
			out, err := f.FilterEq(col, want)
			if err != nil {
				return nil, runtimeErr(nql.ErrAttr, line, err)
			}
			return NewFrameObject(out), nil
		}), true
	case "sort_values", "sort_by":
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
			out, err := f.SortBy(ascending, cols...)
			if err != nil {
				return nil, runtimeErr(nql.ErrAttr, line, err)
			}
			return NewFrameObject(out), nil
		}), true
	case "select":
		return method("select", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			cols, err := colsFromArgs(line, "select", args)
			if err != nil {
				return nil, err
			}
			out, err := f.Select(cols...)
			if err != nil {
				return nil, runtimeErr(nql.ErrAttr, line, err)
			}
			return NewFrameObject(out), nil
		}), true
	case "drop":
		return method("drop", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			cols, err := colsFromArgs(line, "drop", args)
			if err != nil {
				return nil, err
			}
			out, err := f.Drop(cols...)
			if err != nil {
				return nil, runtimeErr(nql.ErrAttr, line, err)
			}
			return NewFrameObject(out), nil
		}), true
	case "rename":
		return method("rename", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 2 {
				return nil, argCount(line, "rename", "2", len(args))
			}
			oldName, err := wantString(line, "rename", "old", args[0])
			if err != nil {
				return nil, err
			}
			newName, err := wantString(line, "rename", "new", args[1])
			if err != nil {
				return nil, err
			}
			out, err := f.Rename(oldName, newName)
			if err != nil {
				return nil, runtimeErr(nql.ErrAttr, line, err)
			}
			return NewFrameObject(out), nil
		}), true
	case "head":
		return method("head", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 1 {
				return nil, argCount(line, "head", "1", len(args))
			}
			n, err := wantInt(line, "head", "n", args[0])
			if err != nil {
				return nil, err
			}
			return NewFrameObject(f.Head(int(n))), nil
		}), true
	case "mutate", "assign":
		return method(name, func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 2 {
				return nil, argCount(line, name, "2", len(args))
			}
			col, err := wantString(line, name, "column", args[0])
			if err != nil {
				return nil, err
			}
			rv := newRowView(f)
			out, err := f.MutateIdx(col, func(i int) (any, error) {
				rv.refresh()
				v, err := in.Call(args[1], []nql.Value{rv.mapAt(i)}, line)
				if err != nil {
					return nil, err
				}
				if !isCell(v) {
					return nil, cellErr(line, name, col, v)
				}
				return v, nil
			})
			if err != nil {
				if _, ok := err.(*nql.RuntimeError); ok {
					return nil, err
				}
				return nil, runtimeErr(nql.ErrOp, line, err)
			}
			return NewFrameObject(out), nil
		}), true
	case "unique":
		return method("unique", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 1 {
				return nil, argCount(line, "unique", "1", len(args))
			}
			col, err := wantString(line, "unique", "column", args[0])
			if err != nil {
				return nil, err
			}
			vals, err := f.Unique(col)
			if err != nil {
				return nil, runtimeErr(nql.ErrAttr, line, err)
			}
			items := make([]nql.Value, len(vals))
			for i, v := range vals {
				items[i] = federate.LiftValue(v)
			}
			return nql.NewList(items...), nil
		}), true
	case "value_counts":
		return method("value_counts", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 1 {
				return nil, argCount(line, "value_counts", "1", len(args))
			}
			col, err := wantString(line, "value_counts", "column", args[0])
			if err != nil {
				return nil, err
			}
			out, err := f.ValueCounts(col)
			if err != nil {
				return nil, runtimeErr(nql.ErrAttr, line, err)
			}
			return NewFrameObject(out), nil
		}), true
	case "sum", "mean", "min", "max":
		return method(name, func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 1 {
				return nil, argCount(line, name, "1", len(args))
			}
			col, err := wantString(line, name, "column", args[0])
			if err != nil {
				return nil, err
			}
			var v any
			switch name {
			case "sum":
				v, err = f.Sum(col)
			case "mean":
				v, err = f.Mean(col)
			case "min":
				v, err = f.Min(col)
			case "max":
				v, err = f.Max(col)
			}
			if err != nil {
				return nil, runtimeErr(nql.ErrAttr, line, err)
			}
			return federate.LiftValue(v), nil
		}), true
	case "groupby":
		return method("groupby", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			cols, err := colsFromArgs(line, "groupby", args)
			if err != nil {
				return nil, err
			}
			g, err := f.GroupBy(cols...)
			if err != nil {
				return nil, runtimeErr(nql.ErrAttr, line, err)
			}
			return &GroupedObject{G: g}, nil
		}), true
	case "merge":
		return method("merge", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 3 && len(args) != 4 {
				return nil, argCount(line, "merge", "3 or 4", len(args))
			}
			other, ok := args[0].(*FrameObject)
			if !ok {
				return nil, &nql.RuntimeError{Class: nql.ErrArg, Line: line, Msg: "merge() first argument must be a frame"}
			}
			lk, err := wantString(line, "merge", "left key", args[1])
			if err != nil {
				return nil, err
			}
			rk, err := wantString(line, "merge", "right key", args[2])
			if err != nil {
				return nil, err
			}
			kind := dataframe.InnerJoin
			if len(args) == 4 {
				ks, err := wantString(line, "merge", "kind", args[3])
				if err != nil {
					return nil, err
				}
				kind = dataframe.JoinKind(ks)
			}
			out, err := dataframe.Merge(in.Context(), f, other.F, lk, rk, kind)
			if err != nil {
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					return nil, nql.CancelError(line, err)
				}
				return nil, runtimeErr(nql.ErrArg, line, err)
			}
			return NewFrameObject(out), nil
		}), true
	case "append_row":
		return method("append_row", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != int(f.NumCols()) {
				return nil, argCount(line, "append_row", fmt.Sprintf("%d", f.NumCols()), len(args))
			}
			for i, a := range args {
				if !isCell(a) {
					return nil, cellErr(line, "append_row", f.Columns()[i], a)
				}
			}
			f.AppendRow(args...)
			return nil, nil
		}), true
	case "set_cell":
		return method("set_cell", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) != 3 {
				return nil, argCount(line, "set_cell", "3", len(args))
			}
			i, err := wantInt(line, "set_cell", "row", args[0])
			if err != nil {
				return nil, err
			}
			col, err := wantString(line, "set_cell", "column", args[1])
			if err != nil {
				return nil, err
			}
			if !isCell(args[2]) {
				return nil, cellErr(line, "set_cell", col, args[2])
			}
			if err := f.SetCell(int(i), col, args[2]); err != nil {
				return nil, runtimeErr(nql.ErrAttr, line, err)
			}
			return nil, nil
		}), true
	case "clone":
		return method("clone", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			return NewFrameObject(f.Clone()), nil
		}), true
	default:
		return nil, false
	}
}

// isCell reports whether a frame can store v: a list, map or function
// would be stored as its Go text.
func isCell(v nql.Value) bool {
	switch v.(type) {
	case *nql.List, *nql.Map, *nql.Closure, *nql.Builtin:
		return false
	}
	return true
}

func cellErr(line int, name, col string, v nql.Value) error {
	return &nql.RuntimeError{Class: nql.ErrArg, Line: line,
		Msg: fmt.Sprintf("%s() value for column %q must not be a %s", name, col, nql.TypeName(v))}
}

// GroupedObject wraps a dataframe grouping; its agg() accepts [col, fn] or
// [col, fn, name] specs.
type GroupedObject struct {
	G *dataframe.Grouped
}

// TypeName implements nql.Object.
func (o *GroupedObject) TypeName() string { return "grouped" }

// Member implements nql.Object.
func (o *GroupedObject) Member(name string) (nql.Value, bool) {
	switch name {
	case "num_groups":
		return method("num_groups", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			return int64(o.G.NumGroups()), nil
		}), true
	case "agg":
		return method("agg", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			if len(args) == 0 {
				return nil, argCount(line, "agg", "1+", len(args))
			}
			var specs []dataframe.AggSpec
			for _, a := range args {
				spec, err := parseAggSpec(line, a)
				if err != nil {
					return nil, err
				}
				specs = append(specs, spec)
			}
			out, err := o.G.Agg(specs...)
			if err != nil {
				return nil, runtimeErr(nql.ErrAttr, line, err)
			}
			return NewFrameObject(out), nil
		}), true
	case "count":
		return method("count", func(in *nql.Interp, line int, args []nql.Value) (nql.Value, error) {
			out, err := o.G.Agg(dataframe.AggSpec{Func: dataframe.AggCount})
			if err != nil {
				return nil, runtimeErr(nql.ErrOp, line, err)
			}
			return NewFrameObject(out), nil
		}), true
	default:
		return nil, false
	}
}

func parseAggSpec(line int, v nql.Value) (dataframe.AggSpec, error) {
	l, ok := v.(*nql.List)
	if !ok || len(l.Items) < 2 || len(l.Items) > 3 {
		return dataframe.AggSpec{}, &nql.RuntimeError{Class: nql.ErrArg, Line: line,
			Msg: "agg() specs must be [column, func] or [column, func, name] lists"}
	}
	col, ok1 := l.Items[0].(string)
	fn, ok2 := l.Items[1].(string)
	if !ok1 || !ok2 {
		return dataframe.AggSpec{}, &nql.RuntimeError{Class: nql.ErrArg, Line: line,
			Msg: "agg() spec elements must be strings"}
	}
	spec := dataframe.AggSpec{Col: col, Func: dataframe.AggFunc(fn)}
	if len(l.Items) == 3 {
		name, ok := l.Items[2].(string)
		if !ok {
			return dataframe.AggSpec{}, &nql.RuntimeError{Class: nql.ErrArg, Line: line,
				Msg: "agg() output name must be a string"}
		}
		spec.Name = name
	}
	switch spec.Func {
	case dataframe.AggSum, dataframe.AggMean, dataframe.AggMin, dataframe.AggMax,
		dataframe.AggCount, dataframe.AggFirst, dataframe.AggLast:
	default:
		return dataframe.AggSpec{}, &nql.RuntimeError{Class: nql.ErrArg, Line: line,
			Msg: fmt.Sprintf("unknown aggregation %q (want sum/mean/min/max/count/first/last)", spec.Func)}
	}
	return spec, nil
}
