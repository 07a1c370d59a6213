package federate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dataframe"
	"repro/internal/graph"
	"repro/internal/nql"
	"repro/internal/obs"
	"repro/internal/sqldb"
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
// storage (a frame, a native sqldb scan) sits in data; graph tables and
// lifted relations read through cell. rows, when non-nil, maps each row to
// the source row that survived the scan's predicates.
type columns struct {
	names []string
	n     int
	data  [][]any
	cell  func(c, r int) nql.Value
	rows  []int
}

// at reads the cell of column c in row r.
func (s *columns) at(c, r int) nql.Value {
	if s.rows != nil {
		r = s.rows[r]
	}
	if s.data != nil {
		return liftValue(s.data[c][r])
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

// dataColumns adapts one value slice per column (a frame's storage or a
// native sqldb scan result) to a scan source.
func dataColumns(names []string, data [][]any) columns {
	n := 0
	if len(data) > 0 {
		n = len(data[0])
	}
	return columns{names: names, n: n, data: data}
}

// relColumns reads an already lifted relation as a column source.
func relColumns(rel *Relation) columns {
	return columns{names: rel.Cols, n: len(rel.Rows), cell: func(c, r int) nql.Value { return rel.Rows[r][c] }}
}

// selectRows is the scan filter over a whole table: it evaluates the
// pushed predicates on the cells of their condition columns only, and
// narrows the survivors to cols when it is non-nil. Nothing else is lifted. Errors are those of
// filtering the fully lifted relation row by row: predicates run in order
// with short-circuit, a condition column is resolved the first time its
// predicate runs (so an empty table never fails on one), the context is
// polled at the same row checkpoints, and projection columns are resolved
// once filtering succeeded.
func selectRows(cat *Catalog, src columns, pushed []Cmp, cols []string) (columns, error) {
	if len(pushed) > 0 {
		at := make([]int, len(pushed))
		for i := range at {
			at[i] = -1
		}
		var keep []int
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
			keep = append(keep, r)
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
		ids := g.Nodes()
		attrs := make([]graph.Attrs, len(ids))
		for i, id := range ids {
			attrs[i] = g.NodeAttrsView(id)
		}
		names := append([]string{"id"}, attrKeyUnion(len(attrs), func(i int) graph.Attrs { return attrs[i] })...)
		return selectRows(cat, columns{names: names, n: len(ids), cell: func(c, r int) nql.Value {
			if c == 0 {
				return ids[r]
			}
			return liftValue(attrs[r][names[c]])
		}}, s.Pushed, s.Cols)
	case GraphTableEdges:
		edges := g.EdgesView()
		names := append([]string{"src", "dst"}, attrKeyUnion(len(edges), func(i int) graph.Attrs { return edges[i].Attrs })...)
		return selectRows(cat, columns{names: names, n: len(edges), cell: func(c, r int) nql.Value {
			switch c {
			case 0:
				return edges[r].U
			case 1:
				return edges[r].V
			}
			return liftValue(edges[r].Attrs[names[c]])
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

// attrKeyUnion returns the sorted union of the keys of n attribute maps.
func attrKeyUnion(n int, attrs func(i int) graph.Attrs) []string {
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		for k := range attrs(i) {
			seen[k] = true
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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
	return selectRows(cat, frameColumns(f), s.Pushed, s.Cols)
}

// frameColumns reads a frame's live column storage as a scan source.
func frameColumns(f *dataframe.Frame) columns {
	names := f.Columns()
	data := make([][]any, len(names))
	for i, c := range names {
		data[i], _ = f.Column(c)
	}
	return dataColumns(names, data)
}

// scanSQL pushes the scan into the SQL engine: projected columns narrow the
// scan and every pushed predicate that has a SQL rendering becomes a WHERE
// conjunct. Predicates the dialect cannot express (bool/nil literals,
// strings containing quotes, contains) are applied locally afterwards.
// Scans nativeScanOK admits run through sqldb's columnar ScanColumns; the
// rest, and any scan it answers with ErrPushdown, render SQL text.
func scanSQL(cat *Catalog, s *Scan) (columns, error) {
	if cat.DB == nil {
		return columns{}, fmt.Errorf("federate: catalog has no sql source")
	}
	native, local := splitConds(s.Pushed)
	// Local predicates may reference columns outside the projection, so the
	// narrowed scan is only safe when everything was pushed.
	narrow := s.Cols != nil && len(local) == 0
	project := s.Cols
	if narrow {
		project = nil
	}
	if nativeScanOK(cat, s) {
		spec := sqldb.ScanSpec{Table: s.Table, Conds: native}
		if narrow {
			spec.Cols = s.Cols
		}
		names, data, err := cat.DB.ScanColumns(cat.context(), spec)
		if err == nil {
			return selectRows(cat, dataColumns(names, data), local, project)
		}
		if !errors.Is(err, sqldb.ErrPushdown) {
			return columns{}, err
		}
	}
	sel := "*"
	if narrow {
		sel = strings.Join(s.Cols, ", ")
	}
	q := fmt.Sprintf("SELECT %s FROM %s", sel, s.Table)
	var where []string
	for _, c := range s.Pushed {
		if cond, ok := sqlCompile(c); ok {
			where = append(where, cond)
		}
	}
	if len(where) > 0 {
		q += " WHERE " + strings.Join(where, " AND ")
	}
	f, err := cat.DB.QueryContext(cat.context(), q)
	if err != nil {
		return columns{}, err
	}
	return selectRows(cat, frameColumns(f), local, project)
}

// sqlCompile renders a structured predicate as a SQL condition; ok is false
// when the dialect cannot express it and it must run locally.
func sqlCompile(c Cmp) (string, bool) {
	var op string
	switch c.Op {
	case "==":
		op = "="
	case "!=", "<", "<=", ">", ">=":
		op = c.Op
	case "prefix":
		s, ok := c.Value.(string)
		if !ok || strings.ContainsAny(s, "%_'") {
			return "", false
		}
		return fmt.Sprintf("%s LIKE '%s%%'", c.Col, s), true
	default:
		return "", false
	}
	switch v := c.Value.(type) {
	case int64:
		return fmt.Sprintf("%s %s %d", c.Col, op, v), true
	case float64:
		// The dialect's lexer has no exponent syntax, so the literal must
		// be plain decimal digits; NaN/Inf have no rendering at all.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", false
		}
		return fmt.Sprintf("%s %s %s", c.Col, op, strconv.FormatFloat(v, 'f', -1, 64)), true
	case string:
		if strings.Contains(v, "'") {
			return "", false
		}
		return fmt.Sprintf("%s %s '%s'", c.Col, op, v), true
	default:
		return "", false
	}
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

// joinRelations is the hash equi-join over two column sources, hashing the
// side the planner chose (the right one for a plan that was not prepared).
// Output is identical either way: left-major, each left row's matches in
// right-row order; key errors keep one precedence (all right keys are
// computed before any left key) regardless of the build side.
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
	rkeys := make([]vkey, right.n)
	for r := range rkeys {
		if err := cat.cancelled(r); err != nil {
			return nil, err
		}
		k, err := valueKey(right.at(ri, r))
		if err != nil {
			return nil, fmt.Errorf("federate: join key %s: %w", j.RightKey, err)
		}
		rkeys[r] = k
	}
	lkeys := make([]vkey, left.n)
	for r := range lkeys {
		if err := cat.cancelled(r); err != nil {
			return nil, err
		}
		k, err := valueKey(left.at(li, r))
		if err != nil {
			return nil, fmt.Errorf("federate: join key %s: %w", j.LeftKey, err)
		}
		lkeys[r] = k
	}
	// matches[i] lists, in right-row order, the right rows joining left row
	// i; built by probing whichever side is hashed.
	matches := make([][]int, left.n)
	if j.buildLeft {
		index := make(map[vkey][]int, left.n)
		for i, k := range lkeys {
			index[k] = append(index[k], i)
		}
		for ji, k := range rkeys {
			for _, i := range index[k] {
				matches[i] = append(matches[i], ji)
			}
		}
	} else {
		index := make(map[vkey][]int, right.n)
		for ji, k := range rkeys {
			index[k] = append(index[k], ji)
		}
		for i, k := range lkeys {
			matches[i] = index[k]
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
	// One backing array for every output row, each capped like the scan's.
	w, lw := len(cols), len(left.names)
	backing := make([]nql.Value, n*w)
	out.Rows = make([][]nql.Value, 0, n)
	for i, m := range matches {
		for _, ji := range m {
			// Checkpoint on output rows too: a skewed key can fan one left
			// row out to millions of matches, and the per-left-row poll
			// alone would leave cancellation latency unbounded. The nil
			// test stays inline so context-free runs pay no call per row.
			k := len(out.Rows)
			if cat.ctx != nil {
				if err := cat.cancelled(k); err != nil {
					return nil, err
				}
			}
			row := backing[k*w : (k+1)*w : (k+1)*w]
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

// vkey is the comparable hash key for a scalar join/group value (the
// sqldb struct-key idiom, replacing the old canonical-string rendering).
// Numbers collapse across int64/float64 by keying on the float64 bit
// pattern, with every NaN canonicalized to a single representation so NaN
// keys still group together; -0.0 and 0.0 stay distinct, exactly like the
// old "%v" rendering.
type vkey struct {
	kind uint8 // 0 nil, 1 bool, 2 number, 3 string
	bits uint64
	str  string
}

// valueKey builds the hash key for a scalar value; non-scalar values are
// unhashable, with the same error as the old string rendering.
func valueKey(v nql.Value) (vkey, error) {
	switch x := v.(type) {
	case nil:
		return vkey{}, nil
	case bool:
		var b uint64
		if x {
			b = 1
		}
		return vkey{kind: 1, bits: b}, nil
	case int64:
		return vkey{kind: 2, bits: canonFloatBits(float64(x))}, nil
	case float64:
		return vkey{kind: 2, bits: canonFloatBits(x)}, nil
	case string:
		return vkey{kind: 3, str: x}, nil
	default:
		return vkey{}, fmt.Errorf("unhashable value of type %s", nql.TypeName(v))
	}
}

func canonFloatBits(f float64) uint64 {
	if math.IsNaN(f) {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

// appendTo serializes a vkey into a composite group-key buffer (kind
// byte, then the payload, then a field separator).
func (k vkey) appendTo(buf []byte) []byte {
	buf = append(buf, k.kind)
	switch k.kind {
	case 1, 2:
		buf = append(buf,
			byte(k.bits>>56), byte(k.bits>>48), byte(k.bits>>40), byte(k.bits>>32),
			byte(k.bits>>24), byte(k.bits>>16), byte(k.bits>>8), byte(k.bits))
	case 3:
		buf = append(buf, k.str...)
	}
	return append(buf, 0x1f)
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
	single map[vkey]*aggGroup
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
		single: map[vkey]*aggGroup{}, groups: map[string]*aggGroup{},
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
		k, err := valueKey(st.in.at(st.gidx[0], r))
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
		k, err := valueKey(st.in.at(j, r))
		if err != nil {
			return nil, fmt.Errorf("federate: group key %s: %w", st.in.names[j], err)
		}
		st.kbuf = k.appendTo(st.kbuf)
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
// NULL semantics); sums stay integral while every input is an int64.
type agg struct {
	count    int64
	sumF     float64
	sumI     int64
	allInt   bool
	seen     bool
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
		switch x := v.(type) {
		case int64:
			if !g.seen {
				g.allInt = true
			}
			g.sumI += x
			g.sumF += float64(x)
		case float64:
			g.allInt = false
			g.sumF += x
		default:
			return fmt.Errorf("value must be a number, got %s", nql.TypeName(v))
		}
		g.seen = true
		g.count++
	case AggMin, AggMax:
		if !g.haveBest {
			g.best, g.haveBest = v, true
			return nil
		}
		cmp := dataframe.CompareValues(g.best, v)
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
		if !g.seen {
			return nil
		}
		if g.allInt {
			return g.sumI
		}
		return g.sumF
	case AggMean:
		if !g.seen {
			return nil
		}
		return g.sumF / float64(g.count)
	case AggMin, AggMax:
		if !g.haveBest {
			return nil
		}
		return g.best
	}
	return nil
}

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
	rows := append([][]nql.Value(nil), in.Rows...)
	sort.SliceStable(rows, func(a, b int) bool {
		for _, j := range idx {
			cmp := dataframe.CompareValues(rows[a][j], rows[b][j])
			if cmp != 0 {
				if s.Ascending {
					return cmp < 0
				}
				return cmp > 0
			}
		}
		return false
	})
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

// evalCmp evaluates one structured comparison against a cell.
func evalCmp(op string, cell, want nql.Value) (bool, error) {
	switch op {
	case "==":
		return scalarEqual(cell, want), nil
	case "!=":
		return !scalarEqual(cell, want), nil
	case "<", "<=", ">", ">=":
		cmp, err := orderedCompare(cell, want)
		if err != nil {
			return false, err
		}
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

func scalarEqual(a, b nql.Value) bool {
	switch a.(type) {
	case nil, bool, int64, float64, string:
		return nql.ValuesEqual(a, b)
	default:
		return false
	}
}

func orderedCompare(a, b nql.Value) (int, error) {
	an, aok := asNumber(a)
	bn, bok := asNumber(b)
	if aok && bok {
		switch {
		case an < bn:
			return -1, nil
		case an > bn:
			return 1, nil
		default:
			return 0, nil
		}
	}
	as, aok2 := a.(string)
	bs, bok2 := b.(string)
	if aok2 && bok2 {
		return strings.Compare(as, bs), nil
	}
	return 0, fmt.Errorf("federate: cannot order %s against %s", nql.TypeName(a), nql.TypeName(b))
}

func asNumber(v nql.Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	default:
		return 0, false
	}
}
