package federate

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/dataframe"
	"repro/internal/graph"
	"repro/internal/nql"
	"repro/internal/obs"
	"repro/internal/scalar"
)

// Run optimizes a logical plan, plans it against the catalog's statistics
// (recalling cached decisions when the catalog carries an epoch) and
// executes it. The catalog is only read: operators lift cells out of the
// substrates and never write back.
func Run(cat *Catalog, plan Node) (*Relation, error) {
	return Prepare(cat, plan).ExecuteContext(context.Background(), cat)
}

// RunContext is Run under a cancellable context: operator row loops poll
// ctx at periodic checkpoints and abandon the plan with an error wrapping
// ctx.Err() once it is cancelled or past its deadline. The caller's
// catalog is not mutated (the context rides a per-run shallow copy).
func RunContext(ctx context.Context, cat *Catalog, plan Node) (*Relation, error) {
	return Prepare(cat, plan).ExecuteContext(ctx, cat)
}

// ExecuteContext executes a prepared plan against a catalog sharing the
// Prepare-time catalog's epoch (any catalog works — decisions re-validate
// against live state at execution time). When ctx carries an obs.Profile,
// every operator contributes an Enter/Exit frame recording its label,
// output rows and wall/own time — the raw material for the EXPLAIN
// ANALYZE-style query profile; an unprofiled run takes the direct path
// with zero extra work.
func (p *Prepared) ExecuteContext(ctx context.Context, cat *Catalog) (*Relation, error) {
	if n := PlanNotesFrom(ctx); n != nil {
		n.add(p.Fingerprint())
	}
	prof := obs.ProfileFrom(ctx)
	if (ctx != nil && ctx != context.Background()) || prof != nil {
		run := *cat
		run.ctx = ctx
		run.prof = prof
		cat = &run
		// Refuse to start on a dead context — a plan whose operators all
		// finish under one checkpoint stride would otherwise never poll.
		if err := cat.cancelled(0); err != nil {
			return nil, err
		}
	}
	return execute(cat, p.plan)
}

// execute runs one plan node as a lifted relation, inside its profile
// frame when the catalog carries a profile.
func execute(cat *Catalog, plan Node) (*Relation, error) {
	frame := cat.enter(plan)
	rel, err := execNode(cat, plan)
	if frame != nil {
		rows := int64(-1)
		if err == nil && rel != nil {
			rows = int64(len(rel.Rows))
		}
		cat.prof.Exit(frame, rows)
	}
	return rel, err
}

// input runs an operator's child as a column source. A scan is read in
// place: its surviving cells are lifted only when the operator reads them,
// and its profile frame counts the surviving rows. Any other child is
// executed into a relation and read through relColumns.
func input(cat *Catalog, n Node) (columns, error) {
	s, ok := n.(*Scan)
	if !ok {
		rel, err := execute(cat, n)
		if err != nil {
			return columns{}, err
		}
		return relColumns(rel), nil
	}
	frame := cat.enter(s)
	src, err := execScan(cat, s)
	if frame != nil {
		rows := int64(-1)
		if err == nil {
			rows = int64(src.n)
		}
		cat.prof.Exit(frame, rows)
	}
	return src, err
}

// enter opens plan's operator frame, or returns nil when the catalog
// carries no profile.
func (c *Catalog) enter(plan Node) *obs.ProfNode {
	if c.prof == nil {
		return nil
	}
	name := opName(plan)
	return c.prof.Enter(name, strings.TrimPrefix(strings.TrimPrefix(plan.label(), name), " "))
}

// opName is the operator-kind half of a profile frame (the node label
// carries the operator-specific detail).
func opName(plan Node) string {
	switch plan.(type) {
	case *Scan:
		return "scan"
	case *Filter:
		return "filter"
	case *Project:
		return "project"
	case *Join:
		return "join"
	case *Aggregate:
		return "aggregate"
	case *Sort:
		return "sort"
	case *Limit:
		return "limit"
	default:
		return fmt.Sprintf("%T", plan)
	}
}

func execNode(cat *Catalog, plan Node) (*Relation, error) {
	switch x := plan.(type) {
	case *Scan:
		src, err := execScan(cat, x)
		if err != nil {
			return nil, err
		}
		return src.relation(), nil
	case *Filter:
		return execFilter(cat, x)
	case *Project:
		return execProject(cat, x)
	case *Join:
		return execJoin(cat, x)
	case *Aggregate:
		return execAggregate(cat, x)
	case *Sort:
		return execSort(cat, x)
	case *Limit:
		return execLimit(cat, x)
	default:
		return nil, fmt.Errorf("federate: unsupported plan node %T", plan)
	}
}

// --- scans -----------------------------------------------------------------

// execScan is the scan operator: it returns the table's filtered,
// projected cells without lifting them.
func execScan(cat *Catalog, s *Scan) (columns, error) {
	switch s.Source {
	case SourceGraph:
		return scanGraph(cat, s)
	case SourceFrame:
		return scanFrame(cat, s)
	case SourceSQL:
		return scanSQL(cat, s)
	default:
		return columns{}, fmt.Errorf("federate: unknown scan source %q (have graph, frame, sql)", s.Source)
	}
}

// columns is an operator input in column-major form: n rows of the named
// columns, lifted one cell at a time as an operator reads them. Column
// storage (a frame or a sqldb table) sits in data; graph tables and
// lifted relations read through cell. rows, when non-nil, maps each row to
// the source row that survived the scan's predicates (or an index seek).
// nodes is set on a graph node table no predicate narrowed: its row r is
// node r of that graph, so a join on id can look nodes up by ID.
type columns struct {
	names []string
	n     int
	data  [][]any
	cell  func(c, r int) nql.Value
	rows  []int32
	nodes *graph.Graph
}

// at reads the cell of column c in row r.
func (s *columns) at(c, r int) nql.Value {
	if s.rows != nil {
		r = int(s.rows[r])
	}
	if s.data != nil {
		return LiftValue(s.data[c][r])
	}
	return s.cell(c, r)
}

// colIndex resolves a column name with the relation's error text.
func (s *columns) colIndex(name string) (int, error) {
	return colIndex(s.names, name)
}

// relation lifts every row. One backing array holds all the cells; each
// row is capped so an append by a later operator reallocates instead of
// overrunning.
func (s *columns) relation() *Relation {
	out := &Relation{Cols: s.names}
	if s.n == 0 {
		return out
	}
	w := len(s.names)
	backing := make([]nql.Value, s.n*w)
	out.Rows = make([][]nql.Value, s.n)
	for r := range out.Rows {
		row := backing[r*w : (r+1)*w : (r+1)*w]
		for c := range row {
			row[c] = s.at(c, r)
		}
		out.Rows[r] = row
	}
	return out
}

// relColumns reads an already lifted relation as a column source.
func relColumns(rel *Relation) columns {
	return columns{names: rel.Cols, n: len(rel.Rows), cell: func(c, r int) nql.Value { return rel.Rows[r][c] }}
}

// selectRows is the scan filter over a table's rows (all of them, or the
// rows an index seek preset in src.rows): it evaluates the pushed
// predicates on the cells of their condition columns only, and narrows the
// survivors to cols when it is non-nil. Nothing else is lifted. Errors are
// those of filtering the fully lifted relation row by row: predicates run
// in order with short-circuit, a condition column is resolved the first
// time its predicate runs (so an empty table never fails on one), the
// context is polled at row checkpoints, and projection columns are
// resolved once filtering succeeded.
func selectRows(cat *Catalog, src columns, pushed []Cmp, cols []string) (columns, error) {
	if len(pushed) > 0 {
		at := make([]int, len(pushed))
		for i := range at {
			at[i] = -1
		}
		var keep []int32
	rows:
		for r := 0; r < src.n; r++ {
			if err := cat.cancelled(r); err != nil {
				return columns{}, err
			}
			for i, c := range pushed {
				if at[i] < 0 {
					j, err := src.colIndex(c.Col)
					if err != nil {
						return columns{}, err
					}
					at[i] = j
				}
				ok, err := evalCmp(c.Op, src.at(at[i], r), c.Value)
				if err != nil {
					return columns{}, err
				}
				if !ok {
					continue rows
				}
			}
			if src.rows != nil {
				keep = append(keep, src.rows[r])
			} else {
				keep = append(keep, int32(r))
			}
		}
		src.rows, src.n = keep, len(keep)
	}
	if cols == nil {
		return src, nil
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		j, err := src.colIndex(c)
		if err != nil {
			return columns{}, err
		}
		idx[i] = j
	}
	src.names = append([]string(nil), cols...)
	if src.data != nil {
		data := make([][]any, len(idx))
		for i, j := range idx {
			data[i] = src.data[j]
		}
		src.data = data
	} else {
		cell := src.cell
		src.cell = func(c, r int) nql.Value { return cell(idx[c], r) }
	}
	return src, nil
}

func scanGraph(cat *Catalog, s *Scan) (columns, error) {
	g := cat.Graph
	if g == nil {
		return columns{}, fmt.Errorf("federate: catalog has no graph source")
	}
	// The computed virtual tables (pagerank, components) run whole graph
	// algorithms; refuse to start one on an already-dead context.
	if err := cat.cancelled(0); err != nil {
		return columns{}, err
	}
	var rel *Relation
	switch s.Table {
	case GraphTableNodes:
		// A node's attribute map is looked up when an operator first reads
		// one of its attribute cells; operators read a row's cells
		// together, so the last row's map is kept.
		ids := g.Nodes()
		names := append([]string{"id"}, g.NodeAttrKeys()...)
		last, lastAttrs := -1, graph.Attrs(nil)
		src := columns{names: names, n: len(ids), cell: func(c, r int) nql.Value {
			if c == 0 {
				return ids[r]
			}
			if r != last {
				last, lastAttrs = r, g.NodeAttrsView(ids[r])
			}
			return LiftValue(lastAttrs[names[c]])
		}}
		if len(s.Pushed) == 0 {
			src.nodes = g
		}
		return selectRows(cat, src, s.Pushed, s.Cols)
	case GraphTableEdges:
		edges := g.EdgesView()
		names := append([]string{"src", "dst"}, g.EdgeAttrKeys()...)
		return selectRows(cat, columns{names: names, n: len(edges), cell: func(c, r int) nql.Value {
			switch c {
			case 0:
				return edges[r].U
			case 1:
				return edges[r].V
			}
			return LiftValue(edges[r].Attrs[names[c]])
		}}, s.Pushed, s.Cols)
	case GraphTableDegree:
		rel = &Relation{Cols: []string{"id", "degree", "in_degree", "out_degree"}}
		for _, id := range g.Nodes() {
			rel.Rows = append(rel.Rows, []nql.Value{
				id, int64(g.Degree(id)), int64(g.InDegree(id)), int64(g.OutDegree(id)),
			})
		}
	case GraphTablePageRank:
		// Same parameters as the networkx binding's pagerank() so federated
		// plans agree with per-backend goldens.
		pr := g.PageRank(0.85, 100, 1e-9)
		rel = &Relation{Cols: []string{"id", "pagerank"}}
		for _, id := range g.Nodes() {
			rel.Rows = append(rel.Rows, []nql.Value{id, pr[id]})
		}
	case GraphTableComponents:
		comp := map[string]int64{}
		for i, members := range g.ConnectedComponents() {
			for _, id := range members {
				comp[id] = int64(i)
			}
		}
		rel = &Relation{Cols: []string{"id", "component"}}
		for _, id := range g.Nodes() {
			rel.Rows = append(rel.Rows, []nql.Value{id, comp[id]})
		}
	default:
		return columns{}, fmt.Errorf("federate: unknown graph table %q (have nodes, edges, degree, pagerank, components)", s.Table)
	}
	return selectRows(cat, relColumns(rel), s.Pushed, s.Cols)
}

func scanFrame(cat *Catalog, s *Scan) (columns, error) {
	f := cat.Frames[s.Table]
	if f == nil {
		names := make([]string, 0, len(cat.Frames))
		for name := range cat.Frames {
			names = append(names, name)
		}
		sort.Strings(names)
		return columns{}, fmt.Errorf("federate: unknown frame table %q (have %v)", s.Table, names)
	}
	return scanTable(cat, f, s)
}

// scanSQL scans a sqldb table. Its tables are frames, so it is the frame
// scan: the same seek and the same evalCmp run every pushed predicate.
func scanSQL(cat *Catalog, s *Scan) (columns, error) {
	if cat.DB == nil {
		return columns{}, fmt.Errorf("federate: catalog has no sql source")
	}
	f, err := cat.DB.Table(s.Table)
	if err != nil {
		return columns{}, err
	}
	return scanTable(cat, f, s)
}

// scanTable reads a frame's columns in place, seeking the leading pushed
// predicate when the frame's index answers it.
func scanTable(cat *Catalog, f *dataframe.Frame, s *Scan) (columns, error) {
	src, pushed := frameColumns(f), s.Pushed
	if rows, ok := seekFrame(f, pushed); ok {
		// The seek answers the leading predicate; the rest run over the
		// rows it found. The context is polled once, as the scan's first
		// row would, so a cancelled run still fails when nothing matches.
		if src.n > 0 {
			if err := cat.cancelled(0); err != nil {
				return columns{}, err
			}
		}
		src.rows, src.n, pushed = rows, len(rows), pushed[1:]
	}
	return selectRows(cat, src, pushed, s.Cols)
}

// seekFrame answers a frame scan's leading pushed predicate from the
// frozen master's string index (dataframe.Frame.StringRows and
// PrefixRows) when it is == or prefix against a string literal. == holds
// only for a cell that is the identical string, and prefix only for a
// string cell, so the rows found are the rows the scan keeps, in table
// order. ok is false, and the scan runs, when the frame has no usable
// index for the column (it is not a frozen master or an unwritten clone
// of one, or the column is renamed, rebuilt or unknown), for any other
// operator or literal, and for prefix when some cell is not a string:
// the scan then raises "prefix requires strings" at that row.
func seekFrame(f *dataframe.Frame, pushed []Cmp) ([]int32, bool) {
	if len(pushed) == 0 {
		return nil, false
	}
	lit, ok := pushed[0].Value.(string)
	if !ok {
		return nil, false
	}
	switch pushed[0].Op {
	case "==":
		return f.StringRows(pushed[0].Col, lit)
	case "prefix":
		return f.PrefixRows(pushed[0].Col, lit)
	}
	return nil, false
}

// frameColumns reads a frame's live column storage as a scan source.
func frameColumns(f *dataframe.Frame) columns {
	names := f.Columns()
	data := make([][]any, len(names))
	for i, c := range names {
		data[i], _ = f.Column(c)
	}
	n := 0
	if len(data) > 0 {
		n = len(data[0])
	}
	return columns{names: names, n: n, data: data}
}

// --- relational operators --------------------------------------------------

func execFilter(cat *Catalog, f *Filter) (*Relation, error) {
	in, err := execute(cat, f.Input)
	if err != nil {
		return nil, err
	}
	switch p := f.Pred.(type) {
	case Cmp, FuncPred, And:
		out := &Relation{Cols: in.Cols}
		for i, row := range in.Rows {
			if err := cat.cancelled(i); err != nil {
				return nil, err
			}
			keep, err := evalPred(in, row, p)
			if err != nil {
				return nil, err
			}
			if keep {
				out.Rows = append(out.Rows, row)
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("federate: unsupported predicate %T", f.Pred)
	}
}

// evalPred evaluates one predicate against a row: Cmp resolves its column
// lazily (like selectRows), FuncPred lifts the row to a map, And
// short-circuits left to right.
func evalPred(rel *Relation, row []nql.Value, pred Pred) (bool, error) {
	switch p := pred.(type) {
	case Cmp:
		i, err := rel.colIndex(p.Col)
		if err != nil {
			return false, err
		}
		return evalCmp(p.Op, row[i], p.Value)
	case FuncPred:
		m := nql.NewMap()
		for j, c := range rel.Cols {
			_ = m.Set(c, row[j])
		}
		keep, err := p.Fn(m)
		if err != nil {
			return false, err
		}
		return keep, nil
	case And:
		for _, sub := range p.Preds {
			ok, err := evalPred(rel, row, sub)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	default:
		return false, fmt.Errorf("federate: unsupported predicate %T", pred)
	}
}

func execProject(cat *Catalog, p *Project) (*Relation, error) {
	in, err := execute(cat, p.Input)
	if err != nil {
		return nil, err
	}
	return projectRelation(in, p.Cols)
}

func projectRelation(in *Relation, cols []string) (*Relation, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		j, err := in.colIndex(c)
		if err != nil {
			return nil, err
		}
		idx[i] = j
	}
	out := &Relation{Cols: append([]string(nil), cols...)}
	for _, row := range in.Rows {
		nr := make([]nql.Value, len(idx))
		for i, j := range idx {
			nr[i] = row[j]
		}
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

func execJoin(cat *Catalog, j *Join) (*Relation, error) {
	left, err := input(cat, j.Left)
	if err != nil {
		return nil, err
	}
	right, err := input(cat, j.Right)
	if err != nil {
		return nil, err
	}
	return joinRelations(cat, j, &left, &right)
}

// joinRelations is the equi-join over two column sources. It hashes the
// side the planner chose (the right one for a plan that was not
// prepared), or, when the right input is a graph node table no predicate
// narrowed and the right key is id, looks each left key up in the graph's
// node index instead, reading only the matched nodes' cells. Output is
// identical every way: left-major, each left row's matches in right-row
// order; key errors keep one precedence (all right keys are computed
// before any left key, and node IDs never fail to hash).
func joinRelations(cat *Catalog, j *Join, left, right *columns) (*Relation, error) {
	li, err := left.colIndex(j.LeftKey)
	if err != nil {
		return nil, err
	}
	ri, err := right.colIndex(j.RightKey)
	if err != nil {
		return nil, err
	}
	// Output schema: left columns, then right columns minus the join key;
	// collisions with a left name get the "_r" suffix.
	cols := append([]string(nil), left.names...)
	taken := map[string]bool{}
	for _, c := range cols {
		taken[c] = true
	}
	var rightCols []int
	for i, c := range right.names {
		if i == ri {
			continue
		}
		rightCols = append(rightCols, i)
		if taken[c] {
			c += "_r"
		}
		taken[c] = true
		cols = append(cols, c)
	}
	// matches[i] lists, in right-row order, the right rows joining left row
	// i.
	matches := make([][]int, left.n)
	if right.nodes != nil && j.RightKey == "id" {
		// A left key joins the node it names; any other key matches
		// nothing, since scalar.Equal equates a string only with the same
		// string. Each key is still hashed, for the hash join's error.
		hits := make([]int, left.n)
		for i := range matches {
			if err := cat.cancelled(i); err != nil {
				return nil, err
			}
			v := left.at(li, i)
			if _, err := hashKey(v); err != nil {
				return nil, fmt.Errorf("federate: join key %s: %w", j.LeftKey, err)
			}
			if id, ok := v.(string); ok {
				if r, ok := right.nodes.NodeIndex(id); ok {
					hits[i] = r
					matches[i] = hits[i : i+1 : i+1]
				}
			}
		}
	} else {
		rkeys := make([]scalar.Key, right.n)
		for r := range rkeys {
			if err := cat.cancelled(r); err != nil {
				return nil, err
			}
			k, err := hashKey(right.at(ri, r))
			if err != nil {
				return nil, fmt.Errorf("federate: join key %s: %w", j.RightKey, err)
			}
			rkeys[r] = k
		}
		lkeys := make([]scalar.Key, left.n)
		for r := range lkeys {
			if err := cat.cancelled(r); err != nil {
				return nil, err
			}
			k, err := hashKey(left.at(li, r))
			if err != nil {
				return nil, fmt.Errorf("federate: join key %s: %w", j.LeftKey, err)
			}
			lkeys[r] = k
		}
		if j.buildLeft {
			index := make(map[scalar.Key][]int, left.n)
			for i, k := range lkeys {
				index[k] = append(index[k], i)
			}
			for ji, k := range rkeys {
				if err := cat.cancelled(ji); err != nil {
					return nil, err
				}
				for _, i := range index[k] {
					matches[i] = append(matches[i], ji)
				}
			}
		} else {
			index := make(map[scalar.Key][]int, right.n)
			for ji, k := range rkeys {
				index[k] = append(index[k], ji)
			}
			for i, k := range lkeys {
				matches[i] = index[k]
			}
		}
	}
	n := 0
	for _, m := range matches {
		n += len(m)
	}
	out := &Relation{Cols: cols}
	if n == 0 {
		return out, nil
	}
	// Output rows are carved from chunks of at most cancelCheckEvery rows,
	// each allocated only after the checkpoint that admits its first row,
	// so a cancelled join never allocates for rows it did not reach. Each
	// row is capped like the scan's. The row list is sized once when the
	// output has no more rows than the inputs the join already read, and
	// grows as rows are admitted when a key fans out past that.
	w, lw := len(cols), len(left.names)
	out.Rows = make([][]nql.Value, 0, min(n, max(left.n+right.n, cancelCheckEvery)))
	var chunk []nql.Value
	for i, m := range matches {
		for _, ji := range m {
			// Checkpoint on output rows too: a skewed key can fan one left
			// row out to millions of matches, and the per-left-row poll
			// alone would leave cancellation latency unbounded.
			if k := len(out.Rows); k%cancelCheckEvery == 0 {
				if err := cat.cancelled(k); err != nil {
					return nil, err
				}
				chunk = make([]nql.Value, min(n-k, cancelCheckEvery)*w)
			}
			row := chunk[:w:w]
			chunk = chunk[w:]
			for c := 0; c < lw; c++ {
				row[c] = left.at(c, i)
			}
			for c, rc := range rightCols {
				row[lw+c] = right.at(rc, ji)
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// hashKey is a join or group value's scalar key; a value outside the
// scalar domain (a list or map) cannot be hashed.
func hashKey(v nql.Value) (scalar.Key, error) {
	if k, ok := scalar.KeyOf(v); ok {
		return k, nil
	}
	return scalar.Key{}, fmt.Errorf("unhashable value of type %s", nql.TypeName(v))
}

func execAggregate(cat *Catalog, a *Aggregate) (*Relation, error) {
	in, err := input(cat, a.Input)
	if err != nil {
		return nil, err
	}
	st, err := newAggState(a, &in)
	if err != nil {
		return nil, err
	}
	for r := 0; r < in.n; r++ {
		if err := cat.cancelled(r); err != nil {
			return nil, err
		}
		if err := st.add(r); err != nil {
			return nil, err
		}
	}
	return st.finish(), nil
}

// aggGroup is one group's key values and its accumulators, held inline.
type aggGroup struct {
	key  []nql.Value
	accs []agg
}

// aggState is the core of Aggregate: column resolution happens at
// construction (so an unknown column errors even over empty input, in a
// fixed order — group keys first, then each spec's function before its
// column), rows fold in one at a time, and finish emits groups in
// first-appearance order.
type aggState struct {
	a    *Aggregate
	in   *columns
	gidx []int
	aidx []int
	// Single-column groups hash on the comparable struct key directly;
	// composite groups serialize the per-column keys into one buffer.
	single map[scalar.Key]*aggGroup
	groups map[string]*aggGroup
	order  []*aggGroup
	kbuf   []byte
}

func newAggState(a *Aggregate, in *columns) (*aggState, error) {
	gidx := make([]int, len(a.GroupBy))
	for i, c := range a.GroupBy {
		j, err := in.colIndex(c)
		if err != nil {
			return nil, err
		}
		gidx[i] = j
	}
	aidx := make([]int, len(a.Aggs))
	for i, sp := range a.Aggs {
		if !validAggFn(sp.Fn) {
			return nil, fmt.Errorf("federate: unknown aggregate %q (have count, sum, mean, min, max)", sp.Fn)
		}
		if sp.Fn == AggCount {
			aidx[i] = -1
			continue
		}
		j, err := in.colIndex(sp.Col)
		if err != nil {
			return nil, err
		}
		aidx[i] = j
	}
	return &aggState{
		a: a, in: in, gidx: gidx, aidx: aidx,
		single: map[scalar.Key]*aggGroup{}, groups: map[string]*aggGroup{},
	}, nil
}

// newGroup appends a group keyed by row r's group-by cells.
func (st *aggState) newGroup(r int) *aggGroup {
	g := &aggGroup{key: make([]nql.Value, len(st.gidx)), accs: make([]agg, len(st.a.Aggs))}
	for i, j := range st.gidx {
		g.key[i] = st.in.at(j, r)
	}
	st.order = append(st.order, g)
	return g
}

func (st *aggState) lookup(r int) (*aggGroup, error) {
	if len(st.gidx) == 1 {
		k, err := hashKey(st.in.at(st.gidx[0], r))
		if err != nil {
			return nil, fmt.Errorf("federate: group key %s: %w", st.in.names[st.gidx[0]], err)
		}
		g, ok := st.single[k]
		if !ok {
			g = st.newGroup(r)
			st.single[k] = g
		}
		return g, nil
	}
	st.kbuf = st.kbuf[:0]
	for _, j := range st.gidx {
		k, err := hashKey(st.in.at(j, r))
		if err != nil {
			return nil, fmt.Errorf("federate: group key %s: %w", st.in.names[j], err)
		}
		st.kbuf = k.Append(st.kbuf)
	}
	g, ok := st.groups[string(st.kbuf)]
	if !ok {
		g = st.newGroup(r)
		st.groups[string(st.kbuf)] = g
	}
	return g, nil
}

func (st *aggState) add(r int) error {
	g, err := st.lookup(r)
	if err != nil {
		return err
	}
	for i, sp := range st.a.Aggs {
		var v nql.Value
		if st.aidx[i] >= 0 {
			v = st.in.at(st.aidx[i], r)
		}
		if err := g.accs[i].add(sp.Fn, v); err != nil {
			return fmt.Errorf("federate: %s(%s): %w", sp.Fn, sp.Col, err)
		}
	}
	return nil
}

// finish emits one row per group, every row carved from one backing array.
func (st *aggState) finish() *Relation {
	order := st.order
	if len(st.gidx) == 0 && len(order) == 0 {
		// A global aggregate always emits one row, even over zero input
		// rows (count 0, other aggregates nil — SQL semantics).
		order = []*aggGroup{{accs: make([]agg, len(st.a.Aggs))}}
	}
	cols := append([]string(nil), st.a.GroupBy...)
	for _, sp := range st.a.Aggs {
		cols = append(cols, sp.As)
	}
	out := &Relation{Cols: cols}
	if len(order) == 0 {
		return out
	}
	w := len(cols)
	backing := make([]nql.Value, len(order)*w)
	out.Rows = make([][]nql.Value, len(order))
	for gi, g := range order {
		row := backing[gi*w : (gi+1)*w : (gi+1)*w]
		n := copy(row, g.key)
		for i, sp := range st.a.Aggs {
			row[n+i] = g.accs[i].result(sp.Fn)
		}
		out.Rows[gi] = row
	}
	return out
}

func validAggFn(fn string) bool {
	switch fn {
	case AggCount, AggSum, AggMean, AggMin, AggMax:
		return true
	}
	return false
}

// agg accumulates one aggregate over a group. Nil cells are skipped (SQL
// NULL semantics).
type agg struct {
	count    int64
	sum      scalar.Sum
	best     nql.Value // min/max candidate
	haveBest bool
}

func (g *agg) add(fn string, v nql.Value) error {
	if fn == AggCount {
		g.count++
		return nil
	}
	if v == nil {
		return nil
	}
	switch fn {
	case AggSum, AggMean:
		if !g.sum.Add(v) {
			return fmt.Errorf("value must be a number, got %s", nql.TypeName(v))
		}
	case AggMin, AggMax:
		if !g.haveBest {
			g.best, g.haveBest = v, true
			return nil
		}
		cmp := scalar.Compare(g.best, v)
		if (fn == AggMin && cmp > 0) || (fn == AggMax && cmp < 0) {
			g.best = v
		}
	}
	return nil
}

func (g *agg) result(fn string) nql.Value {
	switch fn {
	case AggCount:
		return g.count
	case AggSum:
		if g.sum.N() == 0 {
			return nil
		}
		return g.sum.Value()
	case AggMean:
		if g.sum.N() == 0 {
			return nil
		}
		return g.sum.Mean()
	case AggMin, AggMax:
		if !g.haveBest {
			return nil
		}
		return g.best
	}
	return nil
}

// execSort stably sorts a permutation of the input's row positions, then
// gathers the rows once. The comparator polls the context every
// cancelCheckEvery calls; once it has ended, every comparison ties, so
// the sort finishes in a few passes and the error is returned after it.
func execSort(cat *Catalog, s *Sort) (*Relation, error) {
	in, err := execute(cat, s.Input)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(s.Cols))
	for i, c := range s.Cols {
		j, err := in.colIndex(c)
		if err != nil {
			return nil, err
		}
		idx[i] = j
	}
	if err := cat.cancelled(0); err != nil {
		return nil, err
	}
	perm := make([]int32, len(in.Rows))
	for i := range perm {
		perm[i] = int32(i)
	}
	calls := 0
	var cerr error
	slices.SortStableFunc(perm, func(a, b int32) int {
		if cat.ctx != nil {
			if cerr != nil {
				return 0
			}
			calls++
			if cerr = cat.cancelled(calls); cerr != nil {
				return 0
			}
		}
		ra, rb := in.Rows[a], in.Rows[b]
		for _, j := range idx {
			if cmp := scalar.Compare(ra[j], rb[j]); cmp != 0 {
				if s.Ascending {
					return cmp
				}
				return -cmp
			}
		}
		return 0
	})
	if cerr != nil {
		return nil, cerr
	}
	rows := make([][]nql.Value, len(perm))
	for i, p := range perm {
		rows[i] = in.Rows[p]
	}
	return &Relation{Cols: in.Cols, Rows: rows}, nil
}

func execLimit(cat *Catalog, l *Limit) (*Relation, error) {
	in, err := execute(cat, l.Input)
	if err != nil {
		return nil, err
	}
	n := l.N
	if n < 0 {
		n = 0
	}
	if n > len(in.Rows) {
		n = len(in.Rows)
	}
	return &Relation{Cols: in.Cols, Rows: in.Rows[:n]}, nil
}

// evalCmp evaluates one structured comparison against a cell. == and !=
// follow scalar.Equal, so a value outside the scalar domain equals
// nothing. Ordering is scalar.Compare between two numbers, two strings or
// two bools (scalar.Orderable); ordering any other pair is an error, as it
// is in NQL.
func evalCmp(op string, cell, want nql.Value) (bool, error) {
	switch op {
	case "==":
		return scalar.Equal(cell, want), nil
	case "!=":
		return !scalar.Equal(cell, want), nil
	case "<", "<=", ">", ">=":
		if !scalar.Orderable(cell, want) {
			return false, fmt.Errorf("federate: cannot order %s against %s", nql.TypeName(cell), nql.TypeName(want))
		}
		cmp := scalar.Compare(cell, want)
		switch op {
		case "<":
			return cmp < 0, nil
		case "<=":
			return cmp <= 0, nil
		case ">":
			return cmp > 0, nil
		default:
			return cmp >= 0, nil
		}
	case "contains":
		s, ok1 := cell.(string)
		sub, ok2 := want.(string)
		if !ok1 || !ok2 {
			return false, fmt.Errorf("federate: contains requires strings, got %s and %s", nql.TypeName(cell), nql.TypeName(want))
		}
		return strings.Contains(s, sub), nil
	case "prefix":
		s, ok1 := cell.(string)
		p, ok2 := want.(string)
		if !ok1 || !ok2 {
			return false, fmt.Errorf("federate: prefix requires strings, got %s and %s", nql.TypeName(cell), nql.TypeName(want))
		}
		return strings.HasPrefix(s, p), nil
	default:
		return false, fmt.Errorf("federate: unknown comparison operator %q", op)
	}
}
