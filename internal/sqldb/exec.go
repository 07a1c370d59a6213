package sqldb

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dataframe"
	"repro/internal/obs"
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
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sql: %w", err)
	}
	return nil
}

// workingSet is the intermediate relation a SELECT pipeline operates on:
// rows are scopes over one shared schema, whose slots are the qualified
// column names in deterministic order (e.g. "n.id"), so star expansion is
// deterministic.
type workingSet struct {
	rows []scope
	sch  *schema
}

// enterFrame opens a profile frame, parenting it under the context's
// explicit frame when one is set (a caller that cannot rely on the
// cursor, such as this package's own nested steps, pre-wires parents that
// way) and falling back to the cursor-based Enter otherwise. Nil-safe.
func enterFrame(ctx context.Context, prof *obs.Profile, name, detail string) *obs.ProfNode {
	if parent := obs.FrameFrom(ctx); parent != nil {
		return prof.EnterChild(parent, name, detail)
	}
	return prof.Enter(name, detail)
}

func (db *DB) execSelect(ctx context.Context, s *SelectStmt) (*dataframe.Frame, error) {
	// Profiling is opt-in via the statement context (obs.WithProfile); an
	// unprofiled query pays one context lookup and nil-safe no-op calls.
	prof := obs.ProfileFrom(ctx)
	sel := enterFrame(ctx, prof, "sql.select", selectDetail(s))
	ctx = obs.WithFrame(ctx, sel)
	out, err := db.execSelectBody(ctx, prof, s)
	rows := int64(-1)
	if err == nil && out != nil {
		rows = int64(out.NumRows())
	}
	prof.Exit(sel, rows)
	return out, err
}

func (db *DB) execSelectBody(ctx context.Context, prof *obs.Profile, s *SelectStmt) (*dataframe.Frame, error) {
	ws, err := db.buildFrom(ctx, s)
	if err != nil {
		return nil, err
	}
	// WHERE
	if s.Where != nil {
		filt := enterFrame(ctx, prof, "sql.filter", "")
		filtered := ws.rows[:0:0]
		for ri, row := range ws.rows {
			if err := cancelled(ctx, ri); err != nil {
				prof.Exit(filt, -1)
				return nil, err
			}
			ok, err := evalBool(s.Where, row)
			if err != nil {
				prof.Exit(filt, -1)
				return nil, err
			}
			if ok {
				filtered = append(filtered, row)
			}
		}
		ws.rows = filtered
		prof.Exit(filt, int64(len(ws.rows)))
	}

	aggregated := len(s.GroupBy) > 0 || s.Having != nil || selectHasAggregate(s.Items)
	var out *dataframe.Frame
	if aggregated {
		out, err = projectAggregate(ctx, s, ws)
	} else {
		out, err = projectPlain(ctx, s, ws)
	}
	if err != nil {
		return nil, err
	}

	// ORDER BY operates on output columns (by name) or fresh expressions
	// against the pre-projection rows for plain selects; for simplicity and
	// predictability we order by output column references and fall back to
	// expression text lookup.
	if len(s.OrderBy) > 0 {
		if err := cancelled(ctx, 0); err != nil {
			return nil, err
		}
		out, err = orderResult(s, ws, out, aggregated)
		if err != nil {
			return nil, err
		}
	}
	if s.Distinct {
		out = distinctRows(out)
	}
	if s.Offset != nil || s.Limit != nil {
		// Compare in int64 against the rows that are left, never by adding:
		// a huge LIMIT or OFFSET literal must clamp, not overflow.
		n := out.NumRows()
		start := 0
		if s.Offset != nil {
			start = n
			if *s.Offset < int64(n) {
				start = int(*s.Offset)
			}
		}
		end := n
		if s.Limit != nil && *s.Limit < int64(n-start) {
			end = start + int(*s.Limit)
		}
		idx := make([]int, 0, end-start)
		for i := start; i < end; i++ {
			idx = append(idx, i)
		}
		out = out.Take(idx)
	}
	return out, nil
}

// buildFrom materializes the FROM clause (with joins) into a working set.
func (db *DB) buildFrom(ctx context.Context, s *SelectStmt) (*workingSet, error) {
	if s.From == nil {
		// SELECT without FROM: one empty row so constant expressions work
		// (and column references fail as unknown columns).
		sch := newSchema(nil)
		return &workingSet{rows: []scope{{sch: sch}}, sch: sch}, nil
	}
	base, err := db.Table(s.From.Name)
	if err != nil {
		return nil, err
	}
	alias := s.From.Alias
	if alias == "" {
		alias = s.From.Name
	}
	prof := obs.ProfileFrom(ctx)
	scan := enterFrame(ctx, prof, "sql.scan", s.From.Name)
	ws := tableScopes(base, alias)
	prof.Exit(scan, int64(len(ws.rows)))
	for _, j := range s.Joins {
		right, err := db.Table(j.Table.Name)
		if err != nil {
			return nil, err
		}
		ralias := j.Table.Alias
		if ralias == "" {
			ralias = j.Table.Name
		}
		jf := enterFrame(ctx, prof, "sql.join", joinDetail(j))
		rscan := enterFrame(obs.WithFrame(ctx, jf), prof, "sql.scan", j.Table.Name)
		rws := tableScopes(right, ralias)
		prof.Exit(rscan, int64(len(rws.rows)))
		joined, err := joinRows(ctx, ws, j, right, rws, ralias)
		if err != nil {
			prof.Exit(jf, -1)
			return nil, err
		}
		ws = joined
		prof.Exit(jf, int64(len(joined.rows)))
	}
	return ws, nil
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

// selectDetail renders the FROM shape of a SELECT for a profile frame.
func selectDetail(s *SelectStmt) string {
	if s.From == nil {
		return ""
	}
	return s.From.Name
}

// joinRows joins ws against one table per the JOIN clause, via the hash
// fast path when equiJoinKeys finds a usable equality.
func joinRows(ctx context.Context, ws *workingSet, j JoinClause, right *dataframe.Frame, rws *workingSet, ralias string) (*workingSet, error) {
	rightRows := rws.rows
	// Hash-join fast path: when the ON clause contains an equality
	// between a left column and a right column, bucket the right side
	// by that key and probe instead of the quadratic nested loop. Any
	// remaining ON conjuncts are still evaluated per candidate pair.
	leftKey, rightKey, residual := equiJoinKeys(j.On, ws.sch.slots, right.Columns(), ralias)
	var rightIndex map[joinKey][]scope
	if leftKey != nil {
		rightIndex = make(map[joinKey][]scope, len(rightRows))
		for _, r := range rightRows {
			v, err := r.lookup(rightKey)
			if err != nil {
				return nil, err
			}
			k := keyOf(v)
			rightIndex[k] = append(rightIndex[k], r)
		}
	}
	// Every merged row has the left slots, then the right slots; a name on
	// both sides reads the right one, as when merging maps.
	sch := newSchema(append(append([]string(nil), ws.sch.slots...), rws.sch.slots...))
	var slab rowSlab
	merge := func(l scope, r []any) scope {
		vals := slab.next(len(l.vals) + len(r))
		copy(vals[copy(vals, l.vals):], r)
		return scope{sch: sch, vals: vals}
	}
	var joined []scope
	for li, l := range ws.rows {
		if err := cancelled(ctx, li); err != nil {
			return nil, err
		}
		candidates := rightRows
		if rightIndex != nil {
			lv, err := l.lookup(leftKey)
			if err != nil {
				return nil, err
			}
			candidates = rightIndex[keyOf(lv)]
		}
		matched := false
		for _, r := range candidates {
			merged := merge(l, r.vals)
			cond := residual
			if rightIndex == nil {
				cond = j.On
			}
			ok := true
			if cond != nil {
				var err error
				ok, err = evalBool(cond, merged)
				if err != nil {
					return nil, err
				}
			}
			if ok {
				joined = append(joined, merged)
				matched = true
			}
		}
		if !matched && j.Kind == "left" {
			joined = append(joined, merge(l, make([]any, len(rws.sch.slots))))
		}
	}
	return &workingSet{rows: joined, sch: sch}, nil
}

// rowSlab hands out fixed-width value rows carved from chunks that double
// in size, so a join allocates its merged rows O(log n) times rather than
// once per row. Each row's capacity is clipped to its width.
type rowSlab struct {
	buf  []any
	rows int
}

func (s *rowSlab) next(w int) []any {
	if len(s.buf) < w {
		s.rows = min(max(2*s.rows, 16), 1024)
		s.buf = make([]any, s.rows*w)
	}
	v := s.buf[:w:w]
	s.buf = s.buf[w:]
	return v
}

// equiJoinKeys extracts one "left.col = right.col" equality from an ON
// expression, returning column refs for both sides plus the residual
// condition (nil when the equality was the whole clause). It returns nils
// when no usable equality is found, in which case the caller falls back to
// the nested-loop join.
func equiJoinKeys(on Expr, leftCols, rightCols []string, ralias string) (leftKey, rightKey *ColumnRef, residual Expr) {
	conjuncts := splitAnd(on)
	isRight := func(ref *ColumnRef) bool {
		if ref.Table != "" {
			return ref.Table == ralias
		}
		for _, c := range rightCols {
			if c == ref.Name {
				// Unqualified: right-side only if no left column shadows it.
				for _, lc := range leftCols {
					if lc[lastDot(lc)+1:] == ref.Name {
						return false
					}
				}
				return true
			}
		}
		return false
	}
	isLeft := func(ref *ColumnRef) bool {
		if ref.Table != "" {
			for _, lc := range leftCols {
				if lc == ref.Table+"."+ref.Name {
					return true
				}
			}
			return false
		}
		for _, lc := range leftCols {
			if lc[lastDot(lc)+1:] == ref.Name {
				return true
			}
		}
		return false
	}
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

// joinKey buckets join keys without formatting them into strings; int64
// and float64 of equal magnitude share a key (via the float64 bit pattern),
// matching SQL's loose numeric equality.
type joinKey struct {
	bits uint64
	str  string
	kind uint8 // 0 nil, 1 bool, 2 number, 3 string, 4 other
}

func keyOf(v any) joinKey {
	switch x := v.(type) {
	case nil:
		return joinKey{}
	case bool:
		var b uint64
		if x {
			b = 1
		}
		return joinKey{kind: 1, bits: b}
	case int64:
		return joinKey{kind: 2, bits: math.Float64bits(float64(x))}
	case float64:
		return joinKey{kind: 2, bits: math.Float64bits(x)}
	case string:
		return joinKey{kind: 3, str: x}
	default:
		return joinKey{kind: 4, str: fmt.Sprintf("%v", x)}
	}
}

// tableScopes materializes a table scan as qualified scopes straight from
// the frame's columns: one schema for the scan, and every row's values cut
// from one backing array. This is the SQL backend's hottest path: every
// db.query() of every trial rescans its base tables.
func tableScopes(f *dataframe.Frame, alias string) *workingSet {
	cols := f.Columns()
	qnames := make([]string, len(cols))
	for j, c := range cols {
		qnames[j] = alias + "." + c
	}
	sch := newSchema(qnames)
	data := columnSlices(f)
	w := len(cols)
	buf := make([]any, f.NumRows()*w)
	out := make([]scope, f.NumRows())
	for i := range out {
		out[i] = scope{sch: sch, vals: buf[i*w : (i+1)*w : (i+1)*w]}
		out[i].load(data, i)
	}
	return &workingSet{rows: out, sch: sch}
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

func projectPlain(ctx context.Context, s *SelectStmt, ws *workingSet) (*dataframe.Frame, error) {
	// Expand stars into column refs.
	var names []string
	var exprs []Expr
	for i, it := range s.Items {
		if it.Star {
			for _, qc := range ws.sch.slots {
				names = append(names, unqualifiedName(qc, ws.sch.slots))
				dot := lastDot(qc)
				exprs = append(exprs, &ColumnRef{Table: qc[:dot], Name: qc[dot+1:]})
			}
			continue
		}
		names = append(names, outputName(it, i))
		exprs = append(exprs, it.Expr)
	}
	names = dedupeNames(names)
	out := dataframe.New(names...)
	for ri, row := range ws.rows {
		if err := cancelled(ctx, ri); err != nil {
			return nil, err
		}
		vals := make([]any, len(exprs))
		for i, e := range exprs {
			v, err := evalExpr(e, row)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		out.AppendRow(vals...)
	}
	return out, nil
}

func unqualifiedName(qc string, all []string) string {
	dot := lastDot(qc)
	name := qc[dot+1:]
	count := 0
	for _, other := range all {
		if other[lastDot(other)+1:] == name {
			count++
		}
	}
	if count > 1 {
		return strings.ReplaceAll(qc, ".", "_")
	}
	return name
}

func dedupeNames(names []string) []string {
	seen := map[string]int{}
	out := make([]string, len(names))
	for i, n := range names {
		seen[n]++
		if seen[n] > 1 {
			out[i] = fmt.Sprintf("%s_%d", n, seen[n])
		} else {
			out[i] = n
		}
	}
	return out
}

func projectAggregate(ctx context.Context, s *SelectStmt, ws *workingSet) (*dataframe.Frame, error) {
	// Partition rows into groups by the GROUP BY key values.
	type group struct {
		key  []any
		rows []scope
	}
	var groups []*group
	index := map[string]*group{}
	var kb strings.Builder
	for ri, row := range ws.rows {
		if err := cancelled(ctx, ri); err != nil {
			return nil, err
		}
		key := make([]any, len(s.GroupBy))
		kb.Reset()
		for i, ge := range s.GroupBy {
			v, err := evalExpr(ge, row)
			if err != nil {
				return nil, err
			}
			key[i] = v
			writeValKey(&kb, v)
		}
		ks := kb.String()
		grp, ok := index[ks]
		if !ok {
			grp = &group{key: key}
			index[ks] = grp
			groups = append(groups, grp)
		}
		grp.rows = append(grp.rows, row)
	}
	if len(s.GroupBy) == 0 {
		// Whole-table aggregate: one group, possibly empty.
		groups = []*group{{rows: ws.rows}}
	}

	var names []string
	for i, it := range s.Items {
		if it.Star {
			return nil, fmt.Errorf("sql: * is not allowed with aggregation")
		}
		names = append(names, outputName(it, i))
	}
	names = dedupeNames(names)
	out := dataframe.New(names...)
	for _, grp := range groups {
		if s.Having != nil {
			v, err := evalAggExpr(s.Having, grp.rows)
			if err != nil {
				return nil, err
			}
			if !truthy(v) {
				continue
			}
		}
		vals := make([]any, len(s.Items))
		for i, it := range s.Items {
			v, err := evalAggExpr(it.Expr, grp.rows)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		out.AppendRow(vals...)
	}
	return out, nil
}

// evalAggExpr evaluates an expression in aggregate context: aggregate
// functions consume the whole group; bare columns take the group's first
// row's value (standard loose GROUP BY semantics).
func evalAggExpr(e Expr, rows []scope) (any, error) {
	switch x := e.(type) {
	case *FuncCall:
		if !isAggregate(x.Name) {
			// Scalar function: evaluate args in aggregate context.
			args := make([]Expr, len(x.Args))
			for i, a := range x.Args {
				v, err := evalAggExpr(a, rows)
				if err != nil {
					return nil, err
				}
				args[i] = &Literal{Value: v}
			}
			return evalScalarFunc(&FuncCall{Name: x.Name, Args: args}, scope{})
		}
		return evalAggregateFunc(x, rows)
	case *BinaryExpr:
		if x.Op == "AND" || x.Op == "OR" {
			l, err := evalAggExpr(x.Left, rows)
			if err != nil {
				return nil, err
			}
			if x.Op == "AND" && !truthy(l) {
				return false, nil
			}
			if x.Op == "OR" && truthy(l) {
				return true, nil
			}
			r, err := evalAggExpr(x.Right, rows)
			if err != nil {
				return nil, err
			}
			return truthy(r), nil
		}
		l, err := evalAggExpr(x.Left, rows)
		if err != nil {
			return nil, err
		}
		r, err := evalAggExpr(x.Right, rows)
		if err != nil {
			return nil, err
		}
		return evalBinary(&BinaryExpr{Op: x.Op, Left: &Literal{Value: l}, Right: &Literal{Value: r}}, scope{})
	case *UnaryExpr:
		v, err := evalAggExpr(x.X, rows)
		if err != nil {
			return nil, err
		}
		return evalExpr(&UnaryExpr{Op: x.Op, X: &Literal{Value: v}}, scope{})
	case *CaseExpr:
		for _, w := range x.Whens {
			c, err := evalAggExpr(w.Cond, rows)
			if err != nil {
				return nil, err
			}
			if truthy(c) {
				return evalAggExpr(w.Then, rows)
			}
		}
		if x.Else != nil {
			return evalAggExpr(x.Else, rows)
		}
		return nil, nil
	default:
		if len(rows) == 0 {
			return nil, nil
		}
		return evalExpr(e, rows[0])
	}
}

func evalAggregateFunc(f *FuncCall, rows []scope) (any, error) {
	if f.Name == "COUNT" && f.Star {
		return int64(len(rows)), nil
	}
	if len(f.Args) != 1 {
		return nil, fmt.Errorf("sql: %s() takes exactly one argument", f.Name)
	}
	var vals []any
	seen := map[string]bool{}
	for _, row := range rows {
		v, err := evalExpr(f.Args[0], row)
		if err != nil {
			return nil, err
		}
		if v == nil {
			continue
		}
		if f.Distinct {
			k := fmt.Sprintf("%T:%v", v, v)
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	switch f.Name {
	case "COUNT":
		return int64(len(vals)), nil
	case "SUM", "AVG":
		total := 0.0
		allInt := true
		for _, v := range vals {
			switch n := v.(type) {
			case int64:
				total += float64(n)
			case float64:
				total += n
				allInt = false
			default:
				return nil, fmt.Errorf("sql: %s() over non-numeric value %v", f.Name, v)
			}
		}
		if f.Name == "AVG" {
			if len(vals) == 0 {
				return nil, nil
			}
			return total / float64(len(vals)), nil
		}
		if len(vals) == 0 {
			return nil, nil
		}
		if allInt {
			return int64(total), nil
		}
		return total, nil
	case "MIN", "MAX":
		var best any
		for _, v := range vals {
			if best == nil {
				best = v
				continue
			}
			cmp := dataframe.CompareValues(v, best)
			if (f.Name == "MIN" && cmp < 0) || (f.Name == "MAX" && cmp > 0) {
				best = v
			}
		}
		return best, nil
	}
	return nil, fmt.Errorf("sql: unknown aggregate %s()", f.Name)
}

func orderResult(s *SelectStmt, ws *workingSet, out *dataframe.Frame, aggregated bool) (*dataframe.Frame, error) {
	n := out.NumRows()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Precompute sort keys per row: prefer output columns (covers aliases
	// and aggregate names); otherwise evaluate the expression against the
	// source rows (plain selects only, where row i aligns with ws.rows[i]).
	keys := make([][]any, n)
	for i := 0; i < n; i++ {
		keys[i] = make([]any, len(s.OrderBy))
	}
	for k, ob := range s.OrderBy {
		name := ""
		switch e := ob.Expr.(type) {
		case *ColumnRef:
			if e.Table == "" && out.HasColumn(e.Name) {
				name = e.Name
			}
		case *FuncCall:
			cand := outputName(SelectItem{Expr: e}, 0)
			if out.HasColumn(cand) {
				name = cand
			}
		}
		if name != "" {
			col, _ := out.Column(name)
			for i := 0; i < n; i++ {
				keys[i][k] = col[i]
			}
			continue
		}
		if aggregated {
			return nil, fmt.Errorf("sql: ORDER BY expression must reference an output column in aggregate queries")
		}
		if len(ws.rows) != n {
			return nil, fmt.Errorf("sql: internal: row mismatch in ORDER BY")
		}
		for i := 0; i < n; i++ {
			v, err := evalExpr(ob.Expr, ws.rows[i])
			if err != nil {
				return nil, err
			}
			keys[i][k] = v
		}
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for k := range s.OrderBy {
			cmp := dataframe.CompareValues(keys[idx[a]][k], keys[idx[b]][k])
			if cmp != 0 {
				if s.OrderBy[k].Desc {
					return cmp > 0
				}
				return cmp < 0
			}
		}
		return false
	})
	return out.Take(idx), nil
}

// columnSlices returns f's column slices in column order.
func columnSlices(f *dataframe.Frame) [][]any {
	cols := f.Columns()
	data := make([][]any, len(cols))
	for j, c := range cols {
		data[j], _ = f.Column(c)
	}
	return data
}

// writeValKey appends one value's bucketing key: a type tag plus its
// rendering, so values of different dynamic types never collide (the same
// partitioning the previous "%T:%v" formatting produced, without fmt).
func writeValKey(kb *strings.Builder, v any) {
	switch x := v.(type) {
	case nil:
		kb.WriteString("_\x1f")
	case bool:
		if x {
			kb.WriteString("b:true\x1f")
		} else {
			kb.WriteString("b:false\x1f")
		}
	case int64:
		kb.WriteString("i:")
		kb.WriteString(strconv.FormatInt(x, 10))
		kb.WriteByte(0x1f)
	case float64:
		kb.WriteString("f:")
		kb.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
		kb.WriteByte(0x1f)
	case string:
		kb.WriteString("s:")
		kb.WriteString(x)
		kb.WriteByte(0x1f)
	default:
		fmt.Fprintf(kb, "%T:%v\x1f", v, v)
	}
}

func distinctRows(f *dataframe.Frame) *dataframe.Frame {
	seen := map[string]bool{}
	data := columnSlices(f)
	var idx []int
	var kb strings.Builder
	for i := 0; i < f.NumRows(); i++ {
		kb.Reset()
		for _, col := range data {
			writeValKey(&kb, col[i])
		}
		if !seen[kb.String()] {
			seen[kb.String()] = true
			idx = append(idx, i)
		}
	}
	return f.Take(idx)
}
