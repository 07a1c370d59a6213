package federate

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataframe"
	"repro/internal/graph"
	"repro/internal/nql"
	"repro/internal/obs"
	"repro/internal/scalar"
)

// Run optimizes a logical plan, plans it against the catalog's statistics
// and executes it. The catalog is only read: operators lift cells out of
// the substrates and never write back.
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

// ExecuteContext executes a prepared plan against any catalog, lifting the
// rows the plan returns. When ctx carries an obs.Profile, every operator
// contributes an Enter/Exit frame recording its label, output rows and
// wall/own time — the raw material for the EXPLAIN ANALYZE-style query
// profile; an unprofiled run takes the direct path with zero extra work.
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
	src, err := execute(cat, p.plan)
	if err != nil {
		return nil, err
	}
	return src.relation(), nil
}

// execute runs one plan node as a column source, inside its profile frame
// when the catalog carries a profile. The frame counts the node's rows.
func execute(cat *Catalog, plan Node) (columns, error) {
	frame := cat.enter(plan)
	src, err := execNode(cat, plan)
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

// execNode runs one operator over its inputs' column sources. Filter and
// Project narrow their input in place, Sort and Limit reorder or cut its
// row positions, and Join and Aggregate build a new relation.
func execNode(cat *Catalog, plan Node) (columns, error) {
	switch x := plan.(type) {
	case *Scan:
		return execScan(cat, x)
	case *Join:
		return execJoin(cat, x)
	case *Aggregate:
		return execAggregate(cat, x)
	}
	// Every other operator has one input.
	src, err := execute(cat, plan.children()[0])
	if err != nil {
		return columns{}, err
	}
	switch x := plan.(type) {
	case *Filter:
		return selectRows(cat, src, []cond{bind(x.Pred)}, nil)
	case *Project:
		return selectRows(cat, src, nil, x.Cols)
	case *Sort:
		return sortRows(cat, src, x)
	case *Limit:
		return src.limit(x.N), nil
	}
	return columns{}, fmt.Errorf("federate: unsupported plan node %T", plan)
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

// columns is the one currency of the executor: n rows of the named
// columns, read in place and lifted one cell at a time as an operator
// reads them. Column storage (a frame or a sqldb table) sits in data;
// graph tables and lifted relations read through cell, and rel is set
// while the source is a lifted relation's rows unprojected, so lifting
// them again reuses its row slices. rows, when non-nil, maps each row to
// the source row it reads (the survivors of a filter or an index seek, or
// a sort's permutation). nodes is set on a graph node table in node order:
// its row r is node r of that graph, so a join on id can look nodes up by
// ID. Every operator that narrows or reorders rows clears it.
type columns struct {
	names []string
	n     int
	data  [][]any
	cell  func(c, r int) nql.Value
	rel   *Relation
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

// relation lifts every row. A lifted relation's rows are reused as they
// are; otherwise one backing array holds all the cells, and each row is
// capped so an append by a later operator reallocates instead of
// overrunning.
func (s *columns) relation() *Relation {
	out := &Relation{Cols: s.names}
	if s.rel != nil {
		if s.rows == nil {
			out.Rows = s.rel.Rows[:s.n]
			return out
		}
		out.Rows = make([][]nql.Value, s.n)
		for i, r := range s.rows {
			out.Rows[i] = s.rel.Rows[r]
		}
		return out
	}
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
	return columns{names: rel.Cols, n: len(rel.Rows), rel: rel, cell: func(c, r int) nql.Value { return rel.Rows[r][c] }}
}

// limit keeps the first n rows (none for a negative n).
func (s columns) limit(n int) columns {
	n = max(0, min(n, s.n))
	if s.rows != nil {
		s.rows = s.rows[:n]
	}
	s.n, s.nodes = n, nil
	return s
}

// cond is a predicate bound to one column source. A Cmp resolves its
// column the first time it runs, so an empty input never fails on one; a
// FuncPred reads the row as a map of freshly lifted cells; an And runs its
// conjuncts left to right with short-circuit.
type cond struct {
	cmp *Cmp
	col int
	fn  func(row *nql.Map) (bool, error)
	and []cond
}

func bind(p Pred) cond {
	switch x := p.(type) {
	case Cmp:
		return cond{cmp: &x, col: -1}
	case FuncPred:
		return cond{fn: x.Fn}
	}
	preds := p.(And).Preds
	c := cond{and: make([]cond, len(preds))}
	for i, sub := range preds {
		c.and[i] = bind(sub)
	}
	return c
}

// pushedConds binds a scan's pushed predicates, which run as a
// conjunction.
func pushedConds(pushed []Cmp) []cond {
	conds := make([]cond, len(pushed))
	for i := range pushed {
		conds[i] = cond{cmp: &pushed[i], col: -1}
	}
	return conds
}

func (c *cond) test(src *columns, r int) (bool, error) {
	switch {
	case c.cmp != nil:
		if c.col < 0 {
			j, err := src.colIndex(c.cmp.Col)
			if err != nil {
				return false, err
			}
			c.col = j
		}
		return evalCmp(c.cmp.Op, src.at(c.col, r), c.cmp.Value)
	case c.fn != nil:
		m := nql.NewMap()
		for j, name := range src.names {
			_ = m.Set(name, src.at(j, r))
		}
		return c.fn(m)
	}
	for i := range c.and {
		if ok, err := c.and[i].test(src, r); err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// selectRows is the one filter and projection of the executor, over any
// column source: it keeps the rows every cond accepts (all of the
// source's rows, or the rows an index seek preset in src.rows), reading
// only the cells the conds read, and narrows the survivors to cols when
// it is non-nil. Nothing else is lifted. The conds run in order with
// short-circuit, the context is polled at row checkpoints, and projection
// columns are resolved once filtering succeeded.
func selectRows(cat *Catalog, src columns, conds []cond, cols []string) (columns, error) {
	if len(conds) > 0 {
		var keep []int32
	rows:
		for r := 0; r < src.n; r++ {
			if err := cat.cancelled(r); err != nil {
				return columns{}, err
			}
			for i := range conds {
				ok, err := conds[i].test(&src, r)
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
		src.rows, src.n, src.nodes = keep, len(keep), nil
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
	src.names, src.rel = append([]string(nil), cols...), nil
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
		names := append([]string{"id"}, g.NodeAttrKeys()...)
		last, lastAttrs := -1, graph.Attrs(nil)
		src := columns{names: names, n: g.NumNodes(), nodes: g, cell: func(c, r int) nql.Value {
			if c == 0 {
				return g.NodeID(r)
			}
			if r != last {
				last, lastAttrs = r, g.NodeAttrsView(g.NodeID(r))
			}
			return LiftValue(lastAttrs[names[c]])
		}}
		return selectRows(cat, src, pushedConds(s.Pushed), s.Cols)
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
		}}, pushedConds(s.Pushed), s.Cols)
	case GraphTableDegree:
		rel = &Relation{Cols: []string{"id", "degree", "in_degree", "out_degree"}}
		for i := 0; i < g.NumNodes(); i++ {
			id := g.NodeID(i)
			rel.Rows = append(rel.Rows, []nql.Value{
				id, int64(g.Degree(id)), int64(g.InDegree(id)), int64(g.OutDegree(id)),
			})
		}
	case GraphTablePageRank:
		// Same parameters as the networkx binding's pagerank() so federated
		// plans agree with per-backend goldens.
		pr := g.PageRank(0.85, 100, 1e-9)
		rel = &Relation{Cols: []string{"id", "pagerank"}}
		for i := 0; i < g.NumNodes(); i++ {
			id := g.NodeID(i)
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
		for i := 0; i < g.NumNodes(); i++ {
			id := g.NodeID(i)
			rel.Rows = append(rel.Rows, []nql.Value{id, comp[id]})
		}
	default:
		return columns{}, fmt.Errorf("federate: unknown graph table %q (have nodes, edges, degree, pagerank, components)", s.Table)
	}
	return selectRows(cat, relColumns(rel), pushedConds(s.Pushed), s.Cols)
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
	return selectRows(cat, src, pushedConds(pushed), s.Cols)
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

func execJoin(cat *Catalog, j *Join) (columns, error) {
	left, err := execute(cat, j.Left)
	if err != nil {
		return columns{}, err
	}
	right, err := execute(cat, j.Right)
	if err != nil {
		return columns{}, err
	}
	rel, err := joinRelations(cat, j, &left, &right)
	if err != nil {
		return columns{}, err
	}
	return relColumns(rel), nil
}

// joinRelations is the equi-join over two column sources. It hashes the
// smaller input (the right one on a tie), or, when the right input is a
// graph node table in node order and the right key is id, looks each left
// key up in the graph's node index instead, reading only the matched
// nodes' cells. Output is
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
		if left.n < right.n {
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

// execAggregate groups the input by scalar.Groups and folds each spec
// with a scalar.Fold. Columns resolve before any row, in a fixed order:
// the group keys, then each spec's function before its column, so an
// unknown one fails even over empty input. Within a row the group keys
// hash before any spec folds. Groups appear in first-appearance order,
// each with its first row's key cells.
func execAggregate(cat *Catalog, a *Aggregate) (columns, error) {
	in, err := execute(cat, a.Input)
	if err != nil {
		return columns{}, err
	}
	gidx := make([]int, len(a.GroupBy))
	for i, c := range a.GroupBy {
		if gidx[i], err = in.colIndex(c); err != nil {
			return columns{}, err
		}
	}
	// ops[i] is spec i's fold and aidx[i] its column, -1 for count, which
	// folds one value per row.
	ops := make([]scalar.FoldOp, len(a.Aggs))
	aidx := make([]int, len(a.Aggs))
	for i, sp := range a.Aggs {
		op, ok := aggFolds[sp.Fn]
		if !ok {
			return columns{}, fmt.Errorf("federate: unknown aggregate %q (have count, sum, mean, min, max)", sp.Fn)
		}
		ops[i], aidx[i] = op, -1
		if sp.Fn != AggCount {
			if aidx[i], err = in.colIndex(sp.Col); err != nil {
				return columns{}, err
			}
		}
	}
	var (
		groups scalar.Groups
		first  []int           // each group's first row
		folds  [][]scalar.Fold // each group's folds, one allocation per group
		keys   = make([]scalar.Key, len(gidx))
	)
	addGroup := func(r int) {
		f := make([]scalar.Fold, len(ops))
		for i, op := range ops {
			f[i] = scalar.NewFold(op)
		}
		first, folds = append(first, r), append(folds, f)
	}
	for r := 0; r < in.n; r++ {
		if err := cat.cancelled(r); err != nil {
			return columns{}, err
		}
		for i, j := range gidx {
			k, err := hashKey(in.at(j, r))
			if err != nil {
				return columns{}, fmt.Errorf("federate: group key %s: %w", in.names[j], err)
			}
			keys[i] = k
		}
		g, fresh := groups.ID(keys)
		if fresh {
			addGroup(r)
		}
		for i, j := range aidx {
			var v nql.Value = true
			if j >= 0 {
				v = in.at(j, r)
			}
			if !folds[g][i].Add(v) {
				sp := a.Aggs[i]
				return columns{}, fmt.Errorf("federate: %s(%s): value must be a number, got %s", sp.Fn, sp.Col, nql.TypeName(v))
			}
		}
	}
	if len(gidx) == 0 && len(first) == 0 {
		// A global aggregate always emits one row, even over zero input
		// rows (count 0, other aggregates nil — SQL semantics).
		addGroup(-1)
	}
	cols := append([]string(nil), a.GroupBy...)
	for _, sp := range a.Aggs {
		cols = append(cols, sp.As)
	}
	out := &Relation{Cols: cols}
	if len(first) == 0 {
		return relColumns(out), nil
	}
	// Every row is carved from one backing array.
	w := len(cols)
	backing := make([]nql.Value, len(first)*w)
	out.Rows = make([][]nql.Value, len(first))
	for g, r := range first {
		row := backing[g*w : (g+1)*w : (g+1)*w]
		for i, j := range gidx {
			row[i] = in.at(j, r)
		}
		for i := range a.Aggs {
			row[len(gidx)+i] = folds[g][i].Value()
		}
		out.Rows[g] = row
	}
	return relColumns(out), nil
}

// aggFolds maps each aggregate function to its fold; count counts rows.
var aggFolds = map[string]scalar.FoldOp{
	AggCount: scalar.FoldCount, AggSum: scalar.FoldSum, AggMean: scalar.FoldMean,
	AggMin: scalar.FoldMin, AggMax: scalar.FoldMax,
}

// sortRows stably sorts the input's row positions by its key columns
// (scalar.SortStable), each key cell lifted once, and reads the input
// through the permutation. The comparator polls the context every
// cancelCheckEvery calls.
func sortRows(cat *Catalog, in columns, s *Sort) (columns, error) {
	idx := make([]int, len(s.Cols))
	for i, c := range s.Cols {
		j, err := in.colIndex(c)
		if err != nil {
			return columns{}, err
		}
		idx[i] = j
	}
	if err := cat.cancelled(0); err != nil {
		return columns{}, err
	}
	keys := make([][]any, len(idx))
	desc := make([]bool, len(idx))
	for i, j := range idx {
		keys[i], desc[i] = make([]any, in.n), !s.Ascending
		for r := range keys[i] {
			keys[i][r] = in.at(j, r)
		}
	}
	perm := make([]int32, in.n)
	for r := range perm {
		perm[r] = int32(r)
	}
	var err error
	var stop func(int) bool
	if cat.ctx != nil {
		stop = func(calls int) bool {
			err = cat.cancelled(calls)
			return err != nil
		}
	}
	if scalar.SortStable(perm, keys, desc, stop); err != nil {
		return columns{}, err
	}
	if in.rows != nil {
		for i, p := range perm {
			perm[i] = in.rows[p]
		}
	}
	in.rows, in.nodes = perm, nil
	return in, nil
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
