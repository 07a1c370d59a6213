package sqldb

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/dataframe"
	"repro/internal/obs"
	"repro/internal/scalar"
)

// cancelCheckEvery is the executor's row-loop checkpoint stride: the
// statement context is polled once per this many rows, keeping the poll off
// the per-row fast path while bounding cancellation latency to one stride.
const cancelCheckEvery = 1024

// cancelled reports the context error, if any, at checkpoint i (only
// multiples of cancelCheckEvery are polled; pass i = 0 to force a poll).
func cancelled(ctx context.Context, i int) error {
	if ctx == nil || i%cancelCheckEvery != 0 {
		return nil
	}
	return ctxErr(ctx)
}

// ctxErr is cancelled's slow path, kept apart so that the stride test
// inlines into the row loops.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sql: %w", err)
	}
	return nil
}

// source is one table a statement reads in place: the alias its columns
// are qualified by ("" for UPDATE and DELETE, whose rows name columns
// bare), its column names and its column slices.
type source struct {
	alias string
	names []string
	cols  [][]any
}

// workingSet is the relation a statement operates on: its sources in
// order (a join's left sources before its right one), whose (source,
// column) pairs are its slots, and n rows. Row r reads source s at
// position pos[s][r] (at r itself when pos[s] is nil); position -1 is the
// NULL side of a LEFT JOIN.
type workingSet struct {
	srcs []source
	pos  [][]int
	n    int
}

// tableScan is the working set of every row of one table.
func tableScan(f *dataframe.Frame, alias string) *workingSet {
	names := f.Columns()
	cols := make([][]any, len(names))
	for j, c := range names {
		cols[j], _ = f.Column(c)
	}
	return &workingSet{srcs: []source{{alias, names, cols}}, pos: make([][]int, 1), n: f.NumRows()}
}

// at is the position row r reads in source s.
func (ws *workingSet) at(s, r int) int {
	if p := ws.pos[s]; p != nil {
		return p[r]
	}
	return r
}

// scope is one row of a working set or, in aggregate context, one group
// of its rows. The zero scope allows only constants. In a group scope an
// aggregate call folds the group's rows and every other expression reads
// the group's first row, r; a column reference in an empty group is NULL.
type scope struct {
	ws    *workingSet
	r     int
	group *[]int // the group's rows; nil outside aggregate context
}

// lookup reads a column reference in the scope's row. The reference caches
// the slot it resolved to in this working set, so the remaining rows of
// the statement skip resolution.
func (s scope) lookup(ref *ColumnRef) (any, error) {
	if ref.ws != s.ws {
		if err := s.ws.bind(ref); err != nil {
			return nil, err
		}
	}
	p := s.ws.at(ref.src, s.r)
	if p < 0 {
		return nil, nil
	}
	return ref.data[p], nil
}

// bind resolves the reference in ws and caches the result on it.
func (ws *workingSet) bind(ref *ColumnRef) error {
	src, col, err := ws.resolve(ref.Table, ref.Name)
	if err != nil {
		return err
	}
	ref.ws, ref.src, ref.data = ws, src, ws.srcs[src].cols[col]
	return nil
}

// resolve finds the slot a column reference names: with a table, the slot
// of that alias and column; without one, the slot of that column under a
// single alias. Names are compared whole, so a dotted column name is one
// name. When several slots carry one alias and column (FROM t JOIN t), the
// last wins.
func (ws *workingSet) resolve(table, name string) (src, col int, err error) {
	src = -1
	ambiguous := false
	for s, so := range ws.srcs {
		if table != "" && so.alias != table {
			continue
		}
		for c, n := range so.names {
			if n == name {
				ambiguous = ambiguous || src >= 0 && ws.srcs[src].alias != so.alias
				src, col = s, c
			}
		}
	}
	switch {
	case ambiguous:
		var found []string
		for _, so := range ws.srcs {
			if slices.Contains(so.names, name) {
				found = append(found, so.alias+"."+name)
			}
		}
		slices.Sort(found)
		return 0, 0, fmt.Errorf("sql: ambiguous column %q (matches %v)", name, slices.Compact(found))
	case src >= 0:
		return src, col, nil
	case table != "":
		return 0, 0, fmt.Errorf("sql: unknown column %s.%s (available: %v)", table, name, ws.keys())
	}
	return 0, 0, fmt.Errorf("sql: unknown column %q (available: %v)", name, ws.keys())
}

// named counts the slots that carry the column name, under the alias
// unless it is "".
func (ws *workingSet) named(alias, name string) int {
	n := 0
	for _, so := range ws.srcs {
		if alias == "" || so.alias == alias {
			for _, c := range so.names {
				if c == name {
					n++
				}
			}
		}
	}
	return n
}

// keys returns the distinct slot names ("alias.col", or the bare column
// under the empty alias), sorted.
func (ws *workingSet) keys() []string {
	out := []string{}
	for _, so := range ws.srcs {
		for _, name := range so.names {
			if so.alias != "" {
				name = so.alias + "." + name
			}
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// column is one output column: cell i is data[pos[i]], or data[i] when pos
// is nil, and NULL at a negative position. A bare column item reads its
// table's storage this way until the result is copied out.
type column struct {
	data []any
	pos  []int
}

func (c column) at(i int) any {
	if c.pos != nil {
		if i = c.pos[i]; i < 0 {
			return nil
		}
	}
	return c.data[i]
}

// output is a SELECT's result: its column names and n rows of columns.
type output struct {
	names []string
	cols  []column
	n     int
}

// take narrows and reorders the result to rows idx.
func (o *output) take(idx []int) {
	for c, col := range o.cols {
		if col.pos == nil {
			o.cols[c].pos = idx
			continue
		}
		p := make([]int, len(idx))
		for k, i := range idx {
			p[k] = col.pos[i]
		}
		o.cols[c].pos = p
	}
	o.n = len(idx)
}

// cells copies the result out, one slice of n cells per column cut from
// one backing array.
func (o *output) cells() [][]any {
	data := make([][]any, len(o.cols))
	buf := make([]any, o.n*len(o.cols))
	for c, col := range o.cols {
		data[c] = buf[c*o.n : (c+1)*o.n : (c+1)*o.n]
		for i := range data[c] {
			data[c][i] = col.at(i)
		}
	}
	return data
}

func (db *DB) execSelect(ctx context.Context, s *SelectStmt) (*dataframe.Frame, error) {
	out, err := db.query(ctx, s)
	if err != nil {
		return nil, err
	}
	// The frame owns its storage: NQL's set_cell and append_row write it.
	return dataframe.FromColumns(out.names, out.cells(), out.n), nil
}

// query runs a SELECT under its sql.select profile frame. Profiling is
// opt-in via the statement context (obs.WithProfile); an unprofiled query
// pays one context lookup and nil-safe no-op calls.
func (db *DB) query(ctx context.Context, s *SelectStmt) (output, error) {
	prof := obs.ProfileFrom(ctx)
	detail := "" // the FROM table
	if s.From != nil {
		detail = s.From.Name
	}
	sel := prof.Enter("sql.select", detail)
	out, err := db.selectBody(ctx, prof, s)
	rows := int64(-1)
	if err == nil {
		rows = int64(out.n)
	}
	prof.Exit(sel, rows)
	return out, err
}

func (db *DB) selectBody(ctx context.Context, prof *obs.Profile, s *SelectStmt) (output, error) {
	ws, err := db.buildFrom(ctx, s)
	if err != nil {
		return output{}, err
	}
	if s.Where != nil {
		filt := prof.Enter("sql.filter", "")
		if err := filter(ctx, s.Where, ws); err != nil {
			prof.Exit(filt, -1)
			return output{}, err
		}
		prof.Exit(filt, int64(ws.n))
	}

	aggregated := len(s.GroupBy) > 0 || s.Having != nil || selectHasAggregate(s.Items)
	var out output
	if aggregated {
		out, err = projectAggregate(ctx, s, ws)
	} else {
		out, err = projectPlain(ctx, s, ws)
	}
	if err != nil {
		return output{}, err
	}

	// ORDER BY operates on output columns (by name) or fresh expressions
	// against the pre-projection rows for plain selects; for simplicity and
	// predictability we order by output column references and fall back to
	// expression text lookup.
	var idx []int // the output rows kept, in order; nil keeps all in order
	if len(s.OrderBy) > 0 {
		if err := cancelled(ctx, 0); err != nil {
			return output{}, err
		}
		if idx, err = orderRows(s, ws, &out, aggregated); err != nil {
			return output{}, err
		}
	}
	if s.Distinct {
		idx = distinctRows(&out, idx)
	}
	if s.Offset != nil || s.Limit != nil {
		if idx == nil {
			idx = identity(out.n)
		}
		// Clamp in int64 against the rows that are left, never by adding: a
		// huge LIMIT or OFFSET literal must clamp, not overflow.
		start, end := 0, len(idx)
		if s.Offset != nil {
			start = int(min(*s.Offset, int64(end)))
		}
		if s.Limit != nil {
			end = start + int(min(*s.Limit, int64(end-start)))
		}
		idx = idx[start:end]
	}
	if idx != nil {
		out.take(idx)
	}
	return out, nil
}

// identity returns the row order 0, 1, ..., n-1.
func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// buildFrom scans the FROM clause (with joins) into a working set.
func (db *DB) buildFrom(ctx context.Context, s *SelectStmt) (*workingSet, error) {
	if s.From == nil {
		// SELECT without FROM: one empty row so constant expressions work
		// (and column references fail as unknown columns).
		return &workingSet{n: 1}, nil
	}
	base, err := db.Table(s.From.Name)
	if err != nil {
		return nil, err
	}
	prof := obs.ProfileFrom(ctx)
	scan := prof.Enter("sql.scan", s.From.Name)
	ws := tableScan(base, cmp.Or(s.From.Alias, s.From.Name))
	if len(s.Joins) == 0 {
		if err := ws.seek(ctx, base, s.Where); err != nil {
			prof.Exit(scan, -1)
			return nil, err
		}
	}
	prof.Exit(scan, int64(ws.n))
	for _, j := range s.Joins {
		right, err := db.Table(j.Table.Name)
		if err != nil {
			return nil, err
		}
		jf := prof.Enter("sql.join", joinDetail(j))
		rscan := prof.Enter("sql.scan", j.Table.Name)
		rws := tableScan(right, cmp.Or(j.Table.Alias, j.Table.Name))
		prof.Exit(rscan, int64(rws.n))
		joined, err := join(ctx, ws, j, rws)
		if err != nil {
			prof.Exit(jf, -1)
			return nil, err
		}
		ws = joined
		prof.Exit(jf, int64(joined.n))
	}
	return ws, nil
}

// seek narrows the one-table working set ws of table f to the rows that
// can pass where, when where's leftmost conjunct is `col = 'string'` (the
// literal on either side) on a column of ws and f has a string-equality
// index for it (a frozen master or an unwritten clone of one). Every other
// row fails that conjunct, which cannot raise an error, so WHERE, still run
// in full over the rows left, keeps the same rows in the same order and
// raises the same errors as over every row. Any other WHERE scans.
func (ws *workingSet) seek(ctx context.Context, f *dataframe.Frame, where Expr) error {
	for {
		be, ok := where.(*BinaryExpr)
		if !ok || be.Op != "AND" {
			break
		}
		where = be.Left
	}
	eq, ok := where.(*BinaryExpr)
	if !ok || eq.Op != "=" {
		return nil
	}
	ref, isRef := eq.Left.(*ColumnRef)
	lit, isLit := eq.Right.(*Literal)
	if !isRef || !isLit {
		ref, isRef = eq.Right.(*ColumnRef)
		lit, isLit = eq.Left.(*Literal)
	}
	if !isRef || !isLit {
		return nil
	}
	str, isStr := lit.Value.(string)
	if !isStr {
		return nil
	}
	_, col, err := ws.resolve(ref.Table, ref.Name)
	if err != nil {
		return nil
	}
	rows, ok := f.StringRows(ws.srcs[0].names[col], str)
	if !ok {
		return nil
	}
	// A scan polls the context at its first row; so does the seek.
	if ws.n > 0 {
		if err := cancelled(ctx, 0); err != nil {
			return err
		}
	}
	pos := make([]int, len(rows))
	for i, r := range rows {
		pos[i] = int(r)
	}
	ws.pos[0], ws.n = pos, len(pos)
	return nil
}

// joinDetail renders one JOIN clause for a profile frame.
func joinDetail(j JoinClause) string {
	kind := j.Kind
	if kind == "" {
		kind = "inner"
	}
	name := j.Table.Name
	if j.Table.Alias != "" && j.Table.Alias != j.Table.Name {
		name += " " + j.Table.Alias
	}
	return kind + " " + name
}

// filter keeps the rows of ws that pass cond, compacting its position
// vectors in place.
func filter(ctx context.Context, cond Expr, ws *workingSet) error {
	keep := make([]int, 0, ws.n)
	for r := 0; r < ws.n; r++ {
		if err := cancelled(ctx, r); err != nil {
			return err
		}
		ok, err := evalBool(cond, scope{ws: ws, r: r})
		if err != nil {
			return err
		}
		if ok {
			keep = append(keep, r)
		}
	}
	for s, p := range ws.pos {
		if p == nil {
			ws.pos[s] = keep
			continue
		}
		// keep is ascending, so each row moves down or stays.
		for i, r := range keep {
			p[i] = p[r]
		}
		ws.pos[s] = p[:len(keep)]
	}
	ws.n = len(keep)
	return nil
}

// join joins ws with the one-table working set right per the JOIN clause,
// hashing the right side on an ON equality when equiJoinKeys finds one.
// Each joined row pairs a left row's positions with a right position, -1
// for a LEFT JOIN row that matched nothing.
func join(ctx context.Context, ws *workingSet, j JoinClause, right *workingSet) (*workingSet, error) {
	cond := j.On
	leftKey, rightKey, residual := equiJoinKeys(j.On, ws, right.srcs[0])
	var index map[scalar.Key][]int
	if leftKey != nil {
		// Bucket the right side by the key and probe instead of the
		// quadratic nested loop; the remaining ON conjuncts are still
		// evaluated per candidate pair.
		cond = residual
		index = make(map[scalar.Key][]int, right.n)
		for r := 0; r < right.n; r++ {
			if err := cancelled(ctx, r); err != nil {
				return nil, err
			}
			v, err := scope{ws: right, r: r}.lookup(rightKey)
			if err != nil {
				return nil, err
			}
			k, _ := scalar.KeyOf(v)
			index[k] = append(index[k], r)
		}
	}
	var all []int
	if index == nil {
		all = identity(right.n)
	}
	// Every joined row has the left slots, then the right slots; a name on
	// both sides reads the right one, as when merging maps.
	k := len(ws.srcs)
	srcs := append(slices.Clip(ws.srcs), right.srcs[0])
	out := &workingSet{srcs: srcs, pos: make([][]int, k+1)}
	for s := range out.pos {
		out.pos[s] = make([]int, 0, ws.n)
	}
	// pair is the one-row working set the ON condition reads a candidate
	// pair through.
	pair := &workingSet{srcs: srcs, pos: make([][]int, k+1), n: 1}
	cells := make([]int, k+1)
	for s := range pair.pos {
		pair.pos[s] = cells[s : s+1]
	}
	// emit also polls every cancelCheckEvery output rows, so a left row
	// with many matches cannot grow the output unchecked.
	emit := func(l, r int) error {
		for s := 0; s < k; s++ {
			out.pos[s] = append(out.pos[s], ws.at(s, l))
		}
		out.pos[k] = append(out.pos[k], r)
		out.n++
		return cancelled(ctx, out.n)
	}
	for l := 0; l < ws.n; l++ {
		if err := cancelled(ctx, l); err != nil {
			return nil, err
		}
		candidates := all
		if index != nil {
			v, err := scope{ws: ws, r: l}.lookup(leftKey)
			if err != nil {
				return nil, err
			}
			k, _ := scalar.KeyOf(v)
			candidates = index[k]
		}
		matched := false
		for _, r := range candidates {
			if cond != nil {
				for s := 0; s < k; s++ {
					cells[s] = ws.at(s, l)
				}
				cells[k] = r
				ok, err := evalBool(cond, scope{ws: pair, r: 0})
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			if err := emit(l, r); err != nil {
				return nil, err
			}
			matched = true
		}
		if !matched && j.Kind == "left" {
			if err := emit(l, -1); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// equiJoinKeys extracts one "left.col = right.col" equality from an ON
// expression, returning column refs for both sides plus the residual
// condition (nil when the equality was the whole clause). It returns nils
// when no usable equality is found, in which case the caller falls back to
// the nested-loop join.
func equiJoinKeys(on Expr, left *workingSet, right source) (leftKey, rightKey *ColumnRef, residual Expr) {
	conjuncts := splitAnd(on)
	isRight := func(ref *ColumnRef) bool {
		if ref.Table != "" {
			return ref.Table == right.alias
		}
		// Unqualified: right-side only if no left column shadows it.
		return slices.Contains(right.names, ref.Name) && left.named("", ref.Name) == 0
	}
	isLeft := func(ref *ColumnRef) bool { return left.named(ref.Table, ref.Name) > 0 }
	for i, c := range conjuncts {
		be, ok := c.(*BinaryExpr)
		if !ok || be.Op != "=" {
			continue
		}
		l, lok := be.Left.(*ColumnRef)
		r, rok := be.Right.(*ColumnRef)
		if !lok || !rok {
			continue
		}
		var lk, rk *ColumnRef
		switch {
		case isLeft(l) && isRight(r):
			lk, rk = l, r
		case isRight(l) && isLeft(r):
			lk, rk = r, l
		default:
			continue
		}
		rest := append(append([]Expr{}, conjuncts[:i]...), conjuncts[i+1:]...)
		return lk, rk, joinAnd(rest)
	}
	return nil, nil, nil
}

func splitAnd(e Expr) []Expr {
	if be, ok := e.(*BinaryExpr); ok && be.Op == "AND" {
		return append(splitAnd(be.Left), splitAnd(be.Right)...)
	}
	return []Expr{e}
}

func joinAnd(es []Expr) Expr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		out = &BinaryExpr{Op: "AND", Left: out, Right: e}
	}
	return out
}

func selectHasAggregate(items []SelectItem) bool {
	for _, it := range items {
		if it.Expr != nil && exprHasAggregate(it.Expr) {
			return true
		}
	}
	return false
}

func exprHasAggregate(e Expr) bool {
	switch x := e.(type) {
	case *FuncCall:
		if isAggregate(x.Name) {
			return true
		}
		for _, a := range x.Args {
			if exprHasAggregate(a) {
				return true
			}
		}
	case *BinaryExpr:
		return exprHasAggregate(x.Left) || exprHasAggregate(x.Right)
	case *UnaryExpr:
		return exprHasAggregate(x.X)
	case *InExpr:
		if exprHasAggregate(x.X) {
			return true
		}
		for _, v := range x.Values {
			if exprHasAggregate(v) {
				return true
			}
		}
	case *IsNullExpr:
		return exprHasAggregate(x.X)
	case *BetweenExpr:
		return exprHasAggregate(x.X) || exprHasAggregate(x.Lo) || exprHasAggregate(x.Hi)
	case *CaseExpr:
		for _, w := range x.Whens {
			if exprHasAggregate(w.Cond) || exprHasAggregate(w.Then) {
				return true
			}
		}
		if x.Else != nil {
			return exprHasAggregate(x.Else)
		}
	}
	return false
}

// outputName derives the result column name for a select item.
func outputName(it SelectItem, pos int) string {
	if it.Alias != "" {
		return it.Alias
	}
	switch e := it.Expr.(type) {
	case *ColumnRef:
		return e.Name
	case *FuncCall:
		name := strings.ToLower(e.Name)
		if e.Star {
			return name
		}
		if len(e.Args) == 1 {
			if c, ok := e.Args[0].(*ColumnRef); ok {
				return name + "_" + c.Name
			}
		}
		return name
	default:
		return fmt.Sprintf("col%d", pos+1)
	}
}

// projectPlain evaluates the select list. A star column or a bare column
// item is read by position, never copied, so it costs no row loop. Row 0
// resolves every bare column and evaluates the other items in item order,
// so the first failing item names the error; later rows evaluate only the
// other items, polling the context at the row stride.
func projectPlain(ctx context.Context, s *SelectStmt, ws *workingSet) (output, error) {
	if ws.n > 0 {
		if err := cancelled(ctx, 0); err != nil {
			return output{}, err
		}
	}
	width := len(s.Items) // room for the items and one star
	for _, so := range ws.srcs {
		width += len(so.names)
	}
	out := output{names: make([]string, 0, width), cols: make([]column, 0, width), n: ws.n}
	type item struct {
		c int
		e Expr
	}
	var computed []item
	for i, it := range s.Items {
		if it.Star {
			for _, so := range ws.srcs {
				for _, name := range so.names {
					// The slot's own alias and name always resolve.
					src, col, _ := ws.resolve(so.alias, name)
					out.cols = append(out.cols, column{data: ws.srcs[src].cols[col], pos: ws.pos[src]})
					// A column name several slots carry is qualified by its alias.
					if ws.named("", name) > 1 {
						name = so.alias + "_" + name
					}
					out.names = append(out.names, name)
				}
			}
			continue
		}
		out.names = append(out.names, outputName(it, i))
		var col column
		if ref, bare := it.Expr.(*ColumnRef); bare && ws.n > 0 {
			if _, err := (scope{ws: ws, r: 0}).lookup(ref); err != nil {
				return output{}, err
			}
			col = column{data: ref.data, pos: ws.pos[ref.src]}
		} else if ws.n > 0 {
			col.data = make([]any, ws.n)
			if err := evalInto(col.data, it.Expr, ws, 0); err != nil {
				return output{}, err
			}
			computed = append(computed, item{len(out.cols), it.Expr})
		}
		out.cols = append(out.cols, col)
	}
	dedupeNames(out.names)
	for r := 1; r < ws.n && len(computed) > 0; r++ {
		if err := cancelled(ctx, r); err != nil {
			return output{}, err
		}
		for _, it := range computed {
			if err := evalInto(out.cols[it.c].data, it.e, ws, r); err != nil {
				return output{}, err
			}
		}
	}
	return out, nil
}

// evalInto evaluates e on row r of ws into dst[r].
func evalInto(dst []any, e Expr, ws *workingSet, r int) error {
	v, err := evalExpr(e, scope{ws: ws, r: r})
	dst[r] = v
	return err
}

// dedupeNames renames, in place, each repeat of an output name with the
// first _N suffix (N from 2) that no output name carries. The first of
// equal names keeps its name, so every name given still shows in names
// while it is renamed.
func dedupeNames(names []string) {
	for i, n := range names {
		for k := 2; slices.Contains(names[:i], names[i]); k++ {
			if c := n + "_" + strconv.Itoa(k); !slices.Contains(names, c) {
				names[i] = c
			}
		}
	}
}

func projectAggregate(ctx context.Context, s *SelectStmt, ws *workingSet) (output, error) {
	// Partition rows into groups by the GROUP BY key values.
	var ids scalar.Groups
	gid := make([]int, ws.n)
	keys := make([]scalar.Key, len(s.GroupBy))
	for r := range gid {
		if err := cancelled(ctx, r); err != nil {
			return output{}, err
		}
		for i, ge := range s.GroupBy {
			v, err := evalExpr(ge, scope{ws: ws, r: r})
			if err != nil {
				return output{}, err
			}
			keys[i], _ = scalar.KeyOf(v)
		}
		gid[r], _ = ids.ID(keys)
	}
	groups := scalar.GroupRows(gid, ids.Len())
	if len(s.GroupBy) == 0 && len(groups) == 0 {
		// Whole-table aggregate over no rows: one empty group.
		groups = [][]int{nil}
	}

	var names []string
	for i, it := range s.Items {
		if it.Star {
			return output{}, fmt.Errorf("sql: * is not allowed with aggregation")
		}
		names = append(names, outputName(it, i))
	}
	dedupeNames(names)
	out := output{names: names, cols: make([]column, len(s.Items))}
	for g, rows := range groups {
		gs := scope{ws: ws, group: &groups[g]}
		if len(rows) > 0 {
			gs.r = rows[0]
		}
		if s.Having != nil {
			ok, err := evalBool(s.Having, gs)
			if err != nil {
				return output{}, err
			}
			if !ok {
				continue
			}
		}
		for i, it := range s.Items {
			v, err := evalExpr(it.Expr, gs)
			if err != nil {
				return output{}, err
			}
			out.cols[i].data = append(out.cols[i].data, v)
		}
		out.n++
	}
	return out, nil
}

// evalAggregateFunc folds one aggregate over a group's rows as it
// evaluates them. An argument that fails to evaluate in any row is the
// error, even after SUM or AVG met a non-numeric value in an earlier row,
// which is reported once every row has been evaluated.
func evalAggregateFunc(f *FuncCall, ws *workingSet, rows []int) (any, error) {
	if f.Name == "COUNT" && f.Star {
		return int64(len(rows)), nil
	}
	if len(f.Args) != 1 {
		return nil, fmt.Errorf("sql: %s() takes exactly one argument", f.Name)
	}
	var seen *scalar.Groups
	if f.Distinct {
		seen = new(scalar.Groups)
	}
	fold := scalar.NewFold(sqlFolds[f.Name])
	var bad any // first non-numeric value under SUM/AVG
	for _, r := range rows {
		v, err := evalExpr(f.Args[0], scope{ws: ws, r: r})
		if err != nil {
			return nil, err
		}
		if v == nil {
			continue
		}
		if seen != nil {
			k, _ := scalar.KeyOf(v)
			if _, fresh := seen.ID([]scalar.Key{k}); !fresh {
				continue
			}
		}
		if bad == nil && !fold.Add(v) {
			bad = v
		}
	}
	if bad != nil {
		return nil, fmt.Errorf("sql: %s() over non-numeric value %v", f.Name, bad)
	}
	return fold.Value(), nil
}

// sqlFolds maps each aggregate function to its fold.
var sqlFolds = map[string]scalar.FoldOp{
	"COUNT": scalar.FoldCount, "SUM": scalar.FoldSum, "AVG": scalar.FoldMean,
	"MIN": scalar.FoldMin, "MAX": scalar.FoldMax,
}

// orderRows returns the output's row order under ORDER BY, a stable sort.
func orderRows(s *SelectStmt, ws *workingSet, out *output, aggregated bool) ([]int, error) {
	// Sort keys prefer output columns (covers aliases and aggregate names);
	// otherwise the expression is evaluated against the source rows (plain
	// selects only, where output row i is row i of ws).
	keys := make([]column, len(s.OrderBy))
	for k, ob := range s.OrderBy {
		name := ""
		switch e := ob.Expr.(type) {
		case *ColumnRef:
			if e.Table == "" {
				name = e.Name
			}
		case *FuncCall:
			name = outputName(SelectItem{Expr: e}, 0)
		}
		if c := slices.Index(out.names, name); name != "" && c >= 0 {
			keys[k] = out.cols[c]
			continue
		}
		if aggregated {
			return nil, fmt.Errorf("sql: ORDER BY expression must reference an output column in aggregate queries")
		}
		keys[k].data = make([]any, out.n)
		for i := range keys[k].data {
			if err := evalInto(keys[k].data, ob.Expr, ws, i); err != nil {
				return nil, err
			}
		}
	}
	data := make([][]any, len(keys))
	desc := make([]bool, len(keys))
	for k, key := range keys {
		data[k], desc[k] = key.data, s.OrderBy[k].Desc
		if key.pos != nil {
			data[k] = make([]any, out.n)
			for i := range data[k] {
				data[k][i] = key.at(i)
			}
		}
	}
	idx := identity(out.n)
	scalar.SortStable(idx, data, desc, nil)
	return idx, nil
}

// distinctRows keeps the first of each set of equal output rows among idx
// (every row in order when idx is nil).
func distinctRows(out *output, idx []int) []int {
	if idx == nil {
		idx = identity(out.n)
	}
	var ids scalar.Groups
	kept := make([]int, 0, len(idx))
	keys := make([]scalar.Key, len(out.cols))
	for _, i := range idx {
		for c, col := range out.cols {
			keys[c], _ = scalar.KeyOf(col.at(i))
		}
		if _, fresh := ids.ID(keys); fresh {
			kept = append(kept, i)
		}
	}
	return kept
}
