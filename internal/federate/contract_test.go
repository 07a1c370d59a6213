package federate

import (
	"context"
	"fmt"
	"maps"
	"math"
	"strings"
	"testing"

	"repro/internal/dataframe"
	"repro/internal/nql"
	"repro/internal/scalar"
	"repro/internal/sqldb"
)

// keyClasses lists one key set as classes of keys the scalar contract
// finds equal: int and float of one value, two NaN payloads, ±0, 2^53 and
// 2^53±1, nil, bools, and strings holding 0x1f or nothing.
func keyClasses() [][]any {
	const p53 = int64(1) << 53
	return [][]any{
		{int64(1), 1.0},
		{math.NaN(), math.Float64frombits(0x7ff8000000000002)},
		{0.0, math.Copysign(0, -1), int64(0)},
		{p53 - 1},
		{p53, p53 + 1, float64(p53)},
		{nil},
		{true},
		{false},
		{""},
		{"a\x1fb"},
		{"a"},
		{"\x1f"},
		{"1"},
		{int64(2)},
	}
}

// interleave lays the classes out as rows, taking each class's first
// member in turn, then each second member, and so on, so no class is
// contiguous. It returns the keys in row order and, per row, "m/n": the
// smallest row id (ids count from 1) of its class and the class size.
func interleave(classes [][]any) (keys []any, class []string) {
	minID := make([]int, len(classes))
	for j := 0; ; j++ {
		added := false
		for c, members := range classes {
			if j < len(members) {
				keys = append(keys, members[j])
				if j == 0 {
					minID[c] = len(keys)
				}
				class = append(class, fmt.Sprintf("%d/%d", minID[c], len(members)))
				added = true
			}
		}
		if !added {
			return keys, class
		}
	}
}

// groupsOf is the "m/n" of each class in first-appearance order.
func groupsOf(class []string) string {
	var out []string
	for i, c := range class {
		if strings.HasPrefix(c, fmt.Sprintf("%d/", i+1)) {
			out = append(out, c)
		}
	}
	return strings.Join(out, " ")
}

// pairsClass renders, per left id, the smallest right id it joins and how
// many it joins, from (left id, right id) pairs.
func pairsClass(n int, pairs [][2]int64) string {
	lo := make([]int64, n+1)
	cnt := make([]int, n+1)
	for _, p := range pairs {
		if cnt[p[0]] == 0 || p[1] < lo[p[0]] {
			lo[p[0]] = p[1]
		}
		cnt[p[0]]++
	}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%d/%d", lo[i+1], cnt[i+1])
	}
	return strings.Join(out, " ")
}

// cellsOf reads a frame's two int64 columns as pairs.
func cellsOf(t *testing.T, f *dataframe.Frame, a, b string) [][2]int64 {
	t.Helper()
	var out [][2]int64
	for i := 0; i < f.NumRows(); i++ {
		x, _ := f.Cell(i, a)
		y, _ := f.Cell(i, b)
		out = append(out, [2]int64{x.(int64), y.(int64)})
	}
	return out
}

func relCells(rel *Relation, a, b int) [][2]int64 {
	var out [][2]int64
	for _, row := range rel.Rows {
		out = append(out, [2]int64{row[a].(int64), row[b].(int64)})
	}
	return out
}

func groupText(pairs [][2]int64) string {
	out := make([]string, len(pairs))
	for i, p := range pairs {
		out[i] = fmt.Sprintf("%d/%d", p[0], p[1])
	}
	return strings.Join(out, " ")
}

// TestOnePartitionAcrossSubstrates runs one key set through every
// operator that groups, de-duplicates, joins or sorts on a key: sqldb
// GROUP BY, DISTINCT, COUNT(DISTINCT), JOIN and ORDER BY; dataframe
// GroupBy, Unique, ValueCounts and Merge; federate's aggregate and join
// over frame and SQL scans; and NQL dict keys, unique() and sorted().
// Every one partitions the keys into the same classes, and NQL's sorted()
// orders each kind it can order as ORDER BY does. nil is the one value
// outside NQL's dict keys.
func TestOnePartitionAcrossSubstrates(t *testing.T) {
	classes := keyClasses()
	keys, class := interleave(classes)
	n := len(keys)
	perRow, groups := strings.Join(class, " "), groupsOf(class)
	f := dataframe.New("id", "k")
	for i, k := range keys {
		f.AppendRow(int64(i+1), k)
	}
	db := sqldb.NewDB()
	db.CreateTable("t", f.Clone())
	query := func(q string) *dataframe.Frame {
		out, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return out
	}
	check := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s:\n got  %s\n want %s", what, got, want)
		}
	}

	check("sqldb GROUP BY", groupText(cellsOf(t, query("SELECT MIN(id) AS m, COUNT(*) AS c FROM t GROUP BY k"), "m", "c")), groups)
	check("sqldb DISTINCT", fmt.Sprint(query("SELECT DISTINCT k FROM t").NumRows()), fmt.Sprint(len(classes)))
	// COUNT skips NULL, which is one class.
	check("sqldb COUNT(DISTINCT)", fmt.Sprint(query("SELECT COUNT(DISTINCT k) AS c FROM t").Row(0)["c"]), fmt.Sprint(len(classes)-1))
	check("sqldb JOIN", pairsClass(n, cellsOf(t, query("SELECT a.id AS l, b.id AS r FROM t a JOIN t b ON a.k = b.k"), "l", "r")), perRow)

	g, err := f.GroupBy("k")
	if err != nil {
		t.Fatal(err)
	}
	agg, err := g.Agg(dataframe.AggSpec{Col: "id", Func: dataframe.AggMin, Name: "m"}, dataframe.AggSpec{Func: dataframe.AggCount, Name: "c"})
	if err != nil {
		t.Fatal(err)
	}
	check("dataframe GroupBy", groupText(cellsOf(t, agg, "m", "c")), groups)
	u, _ := f.Unique("k")
	check("dataframe Unique", fmt.Sprint(len(u)), fmt.Sprint(len(classes)))
	vc, _ := f.ValueCounts("k")
	check("dataframe ValueCounts", fmt.Sprint(vc.NumRows()), fmt.Sprint(len(classes)))
	m, err := dataframe.Merge(context.Background(), f, f, "k", "k", dataframe.InnerJoin)
	if err != nil {
		t.Fatal(err)
	}
	check("dataframe Merge", pairsClass(n, cellsOf(t, m, "id", "id_right")), perRow)

	cat := &Catalog{Frames: map[string]*dataframe.Frame{"t": f}, DB: db}
	for _, src := range []string{SourceFrame, SourceSQL} {
		scan := func() Node { return &Scan{Source: src, Table: "t"} }
		rel, err := Run(cat, &Aggregate{Input: scan(), GroupBy: []string{"k"},
			Aggs: []AggSpec{{Col: "id", Fn: AggMin, As: "m"}, {Fn: AggCount, As: "c"}}})
		if err != nil {
			t.Fatal(err)
		}
		check(src+" aggregate", groupText(relCells(rel, 1, 2)), groups)
		rel, err = Run(cat, &Join{Left: scan(), Right: scan(), LeftKey: "k", RightKey: "k"})
		if err != nil {
			t.Fatal(err)
		}
		check(src+" join", pairsClass(n, relCells(rel, 0, 2)), perRow)
	}

	// NQL dict keys: the same classes, nil left out.
	var nqlClasses [][]any
	for _, c := range classes {
		if c[0] != nil {
			nqlClasses = append(nqlClasses, c)
		}
	}
	nqlKeys, nqlClass := interleave(nqlClasses)
	d := nql.NewMap()
	ids := make([]int64, len(nqlKeys))
	sizes := map[int64]int{}
	for i, k := range nqlKeys {
		if v, ok := d.Get(k); ok {
			ids[i] = v.(int64)
		} else if err := d.Set(k, int64(i+1)); err != nil {
			t.Fatal(err)
		} else {
			ids[i] = int64(i + 1)
		}
		sizes[ids[i]]++
	}
	got := make([]string, len(ids))
	for i, id := range ids {
		got[i] = fmt.Sprintf("%d/%d", id, sizes[id])
	}
	check("NQL dict keys", strings.Join(got, " "), strings.Join(nqlClass, " "))
	if err := d.Set(nil, int64(0)); err == nil {
		t.Error("nil became an NQL dict key")
	}

	runNQL := func(src string, xs []any) *nql.List {
		t.Helper()
		v, err := nql.NewInterp(nql.Limits{}, map[string]nql.Value{"xs": nql.NewList(xs...)}).Run(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return v.(*nql.List)
	}
	show := func(vals []any) string {
		out := make([]string, len(vals))
		for i, v := range vals {
			out[i] = fmt.Sprintf("%T %v", v, v)
		}
		return strings.Join(out, ", ")
	}
	distinct := query("SELECT DISTINCT k FROM t")
	var firsts []any
	for i := 0; i < distinct.NumRows(); i++ {
		v, _ := distinct.Cell(i, "k")
		firsts = append(firsts, v)
	}
	check("NQL unique() vs DISTINCT", show(runNQL("return unique(xs)", keys).Items), show(firsts))

	// ORDER BY k, id is sorted() of [k, id] pairs, one kind at a time:
	// NQL orders two bools, two numbers or two strings, never two kinds.
	ordered := query("SELECT k, id FROM t ORDER BY k, id")
	for _, kind := range []any{false, int64(0), ""} {
		var pairs []any
		for i, k := range keys {
			if scalar.Orderable(k, kind) {
				pairs = append(pairs, nql.NewList(k, int64(i+1)))
			}
		}
		var nqlIDs, sqlIDs []any
		for _, p := range runNQL("return sorted(xs)", pairs).Items {
			nqlIDs = append(nqlIDs, p.(*nql.List).Items[1])
		}
		for i := 0; i < ordered.NumRows(); i++ {
			if k, _ := ordered.Cell(i, "k"); scalar.Orderable(k, kind) {
				id, _ := ordered.Cell(i, "id")
				sqlIDs = append(sqlIDs, id)
			}
		}
		check(fmt.Sprintf("NQL sorted() vs ORDER BY, keys orderable with %T", kind), fmt.Sprint(nqlIDs), fmt.Sprint(sqlIDs))
	}
}

// rowsObject is an NQL host table whose records() returns one dict per
// value, holding it under "x".
type rowsObject []any

func (rowsObject) TypeName() string { return "rows" }

func (o rowsObject) Member(name string) (nql.Value, bool) {
	if name != "records" {
		return nil, false
	}
	return &nql.Builtin{Name: name, Fn: func(*nql.Interp, int, []nql.Value) (nql.Value, error) {
		rows := make([]nql.Value, len(o))
		for i, v := range o {
			m := nql.NewMap()
			if err := m.Set("x", v); err != nil {
				return nil, err
			}
			rows[i] = m
		}
		return nql.NewList(rows...), nil
	}}, true
}

func showResult(v any, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%T %v", v, v)
}

// sumsOf adds col up in every substrate and returns each answer, keyed
// "<substrate> sum" or "<substrate> mean".
func sumsOf(t *testing.T, col []any) map[string]string {
	t.Helper()
	out := map[string]string{}
	nqlRun := func(src string, globals map[string]nql.Value) string {
		return showResult(nql.NewInterp(nql.Limits{}, globals).Run(src))
	}
	out["NQL records() loop sum"] = nqlRun("let total = 0\nfor r in t.records() { total = total + r[\"x\"] }\nreturn total",
		map[string]nql.Value{"t": rowsObject(col)})
	out["NQL sum() sum"] = nqlRun("return sum(xs)", map[string]nql.Value{"xs": nql.NewList(col...)})

	f := dataframe.New("g", "x")
	for _, v := range col {
		f.AppendRow(int64(1), v)
	}
	db := sqldb.NewDB()
	db.CreateTable("t", f.Clone())
	sq, err := db.Query("SELECT SUM(x) AS s, AVG(x) AS m FROM t")
	if err != nil {
		t.Fatal(err)
	}
	out["sqldb SUM sum"] = showResult(sq.Cell(0, "s"))
	out["sqldb AVG mean"] = showResult(sq.Cell(0, "m"))

	out["dataframe Sum sum"] = showResult(f.Sum("x"))
	out["dataframe Mean mean"] = showResult(f.Mean("x"))
	g, err := f.GroupBy("g")
	if err != nil {
		t.Fatal(err)
	}
	gs, err := g.Agg(dataframe.AggSpec{Col: "x", Func: dataframe.AggSum, Name: "s"})
	if err != nil {
		t.Fatal(err)
	}
	out["dataframe GroupBy sum"] = "no group"
	if gs.NumRows() > 0 {
		out["dataframe GroupBy sum"] = showResult(gs.Cell(0, "s"))
	}

	cat := &Catalog{Frames: map[string]*dataframe.Frame{"t": f}, DB: db}
	for _, src := range []string{SourceFrame, SourceSQL} {
		rel, err := Run(cat, &Aggregate{Input: &Scan{Source: src, Table: "t"},
			Aggs: []AggSpec{{Col: "x", Fn: AggSum, As: "s"}, {Col: "x", Fn: AggMean, As: "m"}}})
		if err != nil {
			t.Fatal(err)
		}
		out["federate "+src+" aggregate sum"] = showResult(rel.Rows[0][0], nil)
		out["federate "+src+" aggregate mean"] = showResult(rel.Rows[0][1], nil)
	}
	return out
}

// TestOneArithmeticAcrossSubstrates adds columns up in every substrate:
// NQL + in a records() loop and sum(), sqldb SUM and AVG, dataframe Sum,
// Mean and GroupBy sum, and federate's aggregate sum and mean over frame
// and SQL scans; NQL + and sqldb x + y add a column's first two values.
// Each gives one answer: an exact int64 past 2^53, the float64 the
// operands give past int64, NaN, and 0 for a sum of -0.0s. An empty or
// all-nil column pins each substrate's own answer.
func TestOneArithmeticAcrossSubstrates(t *testing.T) {
	const p53 = int64(1) << 53
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		name             string
		col              []any
		sum, mean, first string // first: col[0] + col[1]
	}{
		{"2^53+1", []any{p53 + 1, int64(0)},
			"int64 9007199254740993", "float64 4.503599627370496e+15", "int64 9007199254740993"},
		{"int64 overflow", []any{int64(math.MaxInt64), int64(1)},
			"float64 9.223372036854776e+18", "float64 4.611686018427388e+18", "float64 9.223372036854776e+18"},
		{"int64 underflow", []any{int64(math.MinInt64), int64(-1)},
			"float64 -9.223372036854776e+18", "float64 -4.611686018427388e+18", "float64 -9.223372036854776e+18"},
		{"mixed int and float", []any{int64(1), 2.5, int64(3)},
			"float64 6.5", "float64 2.1666666666666665", "float64 3.5"},
		{"NaN", []any{int64(1), math.NaN()}, "float64 NaN", "float64 NaN", "float64 NaN"},
		{"-0.0", []any{negZero, negZero}, "float64 0", "float64 0", "float64 -0"},
	} {
		for what, got := range sumsOf(t, c.col) {
			want := c.sum
			if strings.HasSuffix(what, " mean") {
				want = c.mean
			}
			if got != want {
				t.Errorf("%s: %s = %s, want %s", c.name, what, got, want)
			}
		}
		globals := map[string]nql.Value{"a": c.col[0], "b": c.col[1]}
		if got := showResult(nql.NewInterp(nql.Limits{}, globals).Run("return a + b")); got != c.first {
			t.Errorf("%s: NQL a + b = %s, want %s", c.name, got, c.first)
		}
		db := sqldb.NewDB()
		p := dataframe.New("x", "y")
		p.AppendRow(c.col[0], c.col[1])
		db.CreateTable("p", p)
		out, err := db.Query("SELECT x + y AS s FROM p")
		if err != nil {
			t.Fatal(err)
		}
		if got := showResult(out.Cell(0, "s")); got != c.first {
			t.Errorf("%s: sqldb x + y = %s, want %s", c.name, got, c.first)
		}
	}

	// pandas sums nothing to 0, SQL and federate to NULL (nil), NQL to 0.
	nothing := map[string]string{
		"NQL records() loop sum":        "int64 0",
		"NQL sum() sum":                 "int64 0",
		"sqldb SUM sum":                 "<nil> <nil>",
		"sqldb AVG mean":                "<nil> <nil>",
		"dataframe Sum sum":             "int64 0",
		"dataframe Mean mean":           "<nil> <nil>",
		"dataframe GroupBy sum":         "no group",
		"federate frame aggregate sum":  "<nil> <nil>",
		"federate frame aggregate mean": "<nil> <nil>",
		"federate sql aggregate sum":    "<nil> <nil>",
		"federate sql aggregate mean":   "<nil> <nil>",
	}
	allNil := maps.Clone(nothing)
	allNil["NQL records() loop sum"] = "error: nql operation error on line 2: unsupported operand types for +: int and nil"
	allNil["NQL sum() sum"] = "error: nql operation error on line 1: sum() over non-numeric element nil"
	allNil["dataframe GroupBy sum"] = "int64 0"
	for name, c := range map[string]struct {
		col  []any
		want map[string]string
	}{"empty": {nil, nothing}, "all-nil": {[]any{nil, nil}, allNil}} {
		got := sumsOf(t, c.col)
		for what, want := range c.want {
			if got[what] != want {
				t.Errorf("%s: %s = %s, want %s", name, what, got[what], want)
			}
		}
	}
}

// showExact renders a value with its type and, for a float64, its bits,
// so NaN payloads, -0 and 1 vs 1.0 tell apart.
func showExact(v any) string {
	if f, ok := v.(float64); ok {
		return fmt.Sprintf("float64 %v %#x", f, math.Float64bits(f))
	}
	return fmt.Sprintf("%T %v", v, v)
}

// TestOneMinMaxAcrossSubstrates folds MIN and MAX over groups that each
// hold the members of two key classes, interleaved: sqldb MIN and MAX,
// dataframe GroupBy min and max and Frame.Min and Max, and federate's
// aggregate min and max over frame and SQL scans. Each skips nil and keeps
// the first least or greatest value under scalar.Compare, so equal values
// (1 and 1.0, NaN payloads, ±0, 2^53 and 2^53+1) give the first one's
// type and bits, and a group of nil gives nil.
func TestOneMinMaxAcrossSubstrates(t *testing.T) {
	classes := keyClasses()
	f := dataframe.New("g", "id", "k")
	var order []int64
	members := map[int64][]any{}
	for a := range classes {
		for b := a; b < len(classes); b++ {
			g := int64(a*100 + b)
			order = append(order, g)
			keys, _ := interleave([][]any{classes[a], classes[b]})
			for _, k := range keys {
				f.AppendRow(g, int64(f.NumRows()+1), k)
				members[g] = append(members[g], k)
			}
		}
	}
	// want: the first least and first greatest non-nil value, by a scan.
	want := make([]string, len(order))
	for i, g := range order {
		var lo, hi any
		for _, v := range members[g] {
			if v == nil {
				continue
			}
			if lo == nil || scalar.Compare(v, lo) < 0 {
				lo = v
			}
			if hi == nil || scalar.Compare(v, hi) > 0 {
				hi = v
			}
		}
		want[i] = fmt.Sprintf("%d: %s .. %s", g, showExact(lo), showExact(hi))
	}
	check := func(what string, got []string) {
		t.Helper()
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s:\n got  %s\n want %s", what, strings.Join(got, "\n      "), strings.Join(want, "\n      "))
		}
	}
	frameRows := func(out *dataframe.Frame) []string {
		got := make([]string, out.NumRows())
		for i := range got {
			g, _ := out.Cell(i, "g")
			lo, _ := out.Cell(i, "lo")
			hi, _ := out.Cell(i, "hi")
			got[i] = fmt.Sprintf("%d: %s .. %s", g, showExact(lo), showExact(hi))
		}
		return got
	}

	db := sqldb.NewDB()
	db.CreateTable("t", f.Clone())
	sq, err := db.Query("SELECT g, MIN(k) AS lo, MAX(k) AS hi FROM t GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	check("sqldb MIN, MAX", frameRows(sq))

	grouped, err := f.GroupBy("g")
	if err != nil {
		t.Fatal(err)
	}
	agg, err := grouped.Agg(dataframe.AggSpec{Col: "k", Func: dataframe.AggMin, Name: "lo"},
		dataframe.AggSpec{Col: "k", Func: dataframe.AggMax, Name: "hi"})
	if err != nil {
		t.Fatal(err)
	}
	check("dataframe GroupBy min, max", frameRows(agg))
	var whole []string
	for _, g := range order {
		part, err := f.FilterEq("g", g)
		if err != nil {
			t.Fatal(err)
		}
		lo, _ := part.Min("k")
		hi, _ := part.Max("k")
		whole = append(whole, fmt.Sprintf("%d: %s .. %s", g, showExact(lo), showExact(hi)))
	}
	check("dataframe Min, Max", whole)

	cat := &Catalog{Frames: map[string]*dataframe.Frame{"t": f}, DB: db}
	for _, src := range []string{SourceFrame, SourceSQL} {
		rel, err := Run(cat, &Aggregate{Input: &Scan{Source: src, Table: "t"}, GroupBy: []string{"g"},
			Aggs: []AggSpec{{Col: "k", Fn: AggMin, As: "lo"}, {Col: "k", Fn: AggMax, As: "hi"}}})
		if err != nil {
			t.Fatal(err)
		}
		check("federate "+src+" aggregate min, max", frameRows(rel.Frame()))
	}
}

// TestOneSortAcrossSubstrates sorts the interleaved key set ascending and
// descending, by k alone and by k then id: sqldb ORDER BY, dataframe
// SortBy and federate's sort over frame and SQL scans. Each is the stable
// insertion sort under scalar.Compare, so equal keys keep their row order
// and every kind sorts nil < bool < number < string.
func TestOneSortAcrossSubstrates(t *testing.T) {
	keys, _ := interleave(keyClasses())
	f := dataframe.New("id", "k")
	for i, k := range keys {
		f.AppendRow(int64(i+1), k)
	}
	db := sqldb.NewDB()
	db.CreateTable("t", f.Clone())
	cat := &Catalog{Frames: map[string]*dataframe.Frame{"t": f}, DB: db}
	idsOf := func(out *dataframe.Frame) string {
		ids := make([]string, out.NumRows())
		for i := range ids {
			id, _ := out.Cell(i, "id")
			ids[i] = fmt.Sprint(id)
		}
		return strings.Join(ids, " ")
	}
	for _, c := range []struct {
		cols []string
		asc  bool
	}{{[]string{"k"}, true}, {[]string{"k"}, false}, {[]string{"k", "id"}, true}, {[]string{"k", "id"}, false}} {
		// want: a stable insertion sort of the row ids.
		rows := make([]int, len(keys))
		for i := range rows {
			rows[i] = i
		}
		less := func(a, b int) bool {
			for _, col := range c.cols {
				x, y := keys[a], keys[b]
				if col == "id" {
					x, y = int64(a), int64(b)
				}
				if cmp := scalar.Compare(x, y); cmp != 0 {
					return cmp < 0 == c.asc
				}
			}
			return false
		}
		for i := 1; i < len(rows); i++ {
			for j := i; j > 0 && less(rows[j], rows[j-1]); j-- {
				rows[j], rows[j-1] = rows[j-1], rows[j]
			}
		}
		ids := make([]string, len(rows))
		for i, r := range rows {
			ids[i] = fmt.Sprint(r + 1)
		}
		want := strings.Join(ids, " ")
		name := fmt.Sprintf("by %v ascending %v", c.cols, c.asc)
		check := func(what, got string) {
			t.Helper()
			if got != want {
				t.Errorf("%s %s:\n got  %s\n want %s", what, name, got, want)
			}
		}

		dir := " ASC"
		if !c.asc {
			dir = " DESC"
		}
		sq, err := db.Query("SELECT id, k FROM t ORDER BY " + strings.Join(c.cols, dir+", ") + dir)
		if err != nil {
			t.Fatal(err)
		}
		check("sqldb ORDER BY", idsOf(sq))
		sorted, err := f.SortBy(c.asc, c.cols...)
		if err != nil {
			t.Fatal(err)
		}
		check("dataframe SortBy", idsOf(sorted))
		for _, src := range []string{SourceFrame, SourceSQL} {
			rel, err := Run(cat, &Sort{Input: &Scan{Source: src, Table: "t"}, Cols: c.cols, Ascending: c.asc})
			if err != nil {
				t.Fatal(err)
			}
			check("federate "+src+" sort", idsOf(rel.Frame()))
		}
	}
}
