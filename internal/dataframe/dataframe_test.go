package dataframe

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/scalar"
)

func sample() *Frame {
	f := New("node", "prefix", "bytes", "load")
	f.AppendRow("a", "15.76", 100, 0.5)
	f.AppendRow("b", "15.76", 300, 0.9)
	f.AppendRow("c", "10.0", 200, 0.1)
	f.AppendRow("d", "10.0", 50, 0.7)
	return f
}

func TestNewAndAppend(t *testing.T) {
	f := sample()
	if f.NumRows() != 4 || f.NumCols() != 4 {
		t.Fatalf("dims = %dx%d", f.NumRows(), f.NumCols())
	}
	v, err := f.Cell(1, "bytes")
	if err != nil || v != int64(300) {
		t.Fatalf("cell = %v err=%v", v, err)
	}
}

func TestDuplicateColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate column")
		}
	}()
	New("a", "a")
}

func TestAppendRowArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on arity mismatch")
		}
	}()
	New("a", "b").AppendRow(1)
}

func TestUnknownColumnErrors(t *testing.T) {
	f := sample()
	if _, err := f.Column("imaginary"); err == nil {
		t.Fatal("expected error for imaginary column")
	}
	if _, err := f.Cell(0, "imaginary"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := f.Select("node", "imaginary"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := f.SortBy(true, "imaginary"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := f.GroupBy("imaginary"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := f.Drop("imaginary"); err == nil {
		t.Fatal("expected error")
	}
}

func TestCellRange(t *testing.T) {
	f := sample()
	if _, err := f.Cell(99, "node"); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if err := f.SetCell(-1, "node", "x"); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestFromRecords(t *testing.T) {
	f := FromRecords([]string{"x", "y"}, []map[string]any{
		{"x": 1, "y": "a", "extra": true},
		{"x": 2},
	})
	if f.NumRows() != 2 {
		t.Fatalf("rows = %d", f.NumRows())
	}
	if v, _ := f.Cell(1, "y"); v != nil {
		t.Fatalf("missing key should be nil, got %v", v)
	}
	if f.HasColumn("extra") {
		t.Fatal("extra key leaked into schema")
	}
}

func TestFilter(t *testing.T) {
	f := sample()
	bytes, _ := f.Column("bytes")
	big, err := f.FilterIdx(func(i int) (bool, error) {
		return bytes[i].(int64) >= 200, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if big.NumRows() != 2 {
		t.Fatalf("filtered = %d rows", big.NumRows())
	}
	eq, err := f.FilterEq("prefix", "15.76")
	if err != nil || eq.NumRows() != 2 {
		t.Fatalf("eq = %v err=%v", eq, err)
	}
	if _, err := f.FilterEq("ghost", 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestFilterPropagatesError(t *testing.T) {
	f := sample()
	if _, err := f.FilterIdx(func(int) (bool, error) {
		return false, fmt.Errorf("boom")
	}); err == nil {
		t.Fatal("expected error propagation")
	}
}

func TestSortBy(t *testing.T) {
	f := sample()
	s, err := f.SortBy(true, "bytes")
	if err != nil {
		t.Fatal(err)
	}
	col, _ := s.Column("bytes")
	want := []any{int64(50), int64(100), int64(200), int64(300)}
	if !reflect.DeepEqual(col, want) {
		t.Fatalf("sorted = %v", col)
	}
	d, _ := f.SortBy(false, "bytes")
	colD, _ := d.Column("bytes")
	if colD[0] != int64(300) {
		t.Fatalf("desc sorted = %v", colD)
	}
}

func TestSortByMultiKeyStable(t *testing.T) {
	f := New("g", "v")
	f.AppendRow("b", 1)
	f.AppendRow("a", 2)
	f.AppendRow("a", 1)
	f.AppendRow("b", 2)
	s, err := f.SortBy(true, "g", "v")
	if err != nil {
		t.Fatal(err)
	}
	gCol, _ := s.Column("g")
	vCol, _ := s.Column("v")
	if !reflect.DeepEqual(gCol, []any{"a", "a", "b", "b"}) || vCol[0] != int64(1) {
		t.Fatalf("multi-key sort = %v %v", gCol, vCol)
	}
}

func TestSelectDropRename(t *testing.T) {
	f := sample()
	sel, err := f.Select("bytes", "node")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sel.Columns(), []string{"bytes", "node"}) {
		t.Fatalf("select cols = %v", sel.Columns())
	}
	dr, err := f.Drop("load")
	if err != nil || dr.NumCols() != 3 {
		t.Fatalf("drop = %v err=%v", dr.Columns(), err)
	}
	rn, err := f.Rename("bytes", "weight")
	if err != nil || !rn.HasColumn("weight") || rn.HasColumn("bytes") {
		t.Fatalf("rename = %v err=%v", rn.Columns(), err)
	}
	if _, err := f.Rename("bytes", "node"); err == nil {
		t.Fatal("expected collision error")
	}
	if _, err := f.Rename("ghost", "x"); err == nil {
		t.Fatal("expected missing error")
	}
}

func TestHead(t *testing.T) {
	f := sample()
	if f.Head(2).NumRows() != 2 {
		t.Fatal("head 2")
	}
	if f.Head(99).NumRows() != 4 {
		t.Fatal("head clamp")
	}
	if f.Head(-1).NumRows() != 0 {
		t.Fatal("negative head")
	}
}

func TestMutate(t *testing.T) {
	f := sample()
	m, err := f.Mutate("kb", func(r map[string]any) (any, error) {
		return float64(r["bytes"].(int64)) / 1024.0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.HasColumn("kb") || m.NumCols() != 5 {
		t.Fatalf("mutate cols = %v", m.Columns())
	}
	if f.HasColumn("kb") {
		t.Fatal("mutate mutated the source")
	}
	// Replacing an existing column keeps arity.
	m2, err := m.Mutate("kb", func(r map[string]any) (any, error) { return 0, nil })
	if err != nil || m2.NumCols() != 5 {
		t.Fatalf("replace mutate = %v", m2.Columns())
	}
}

func TestUnique(t *testing.T) {
	f := sample()
	u, err := f.Unique("prefix")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(u, []any{"15.76", "10.0"}) {
		t.Fatalf("unique = %v", u)
	}
}

func TestGroupByAgg(t *testing.T) {
	f := sample()
	g, err := f.GroupBy("prefix")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumGroups() != 2 {
		t.Fatalf("groups = %d", g.NumGroups())
	}
	agg, err := g.Agg(
		AggSpec{Col: "bytes", Func: AggSum},
		AggSpec{Col: "bytes", Func: AggMean},
		AggSpec{Func: AggCount},
		AggSpec{Col: "load", Func: AggMax, Name: "peak"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(agg.Columns(), []string{"prefix", "bytes_sum", "bytes_mean", "count", "peak"}) {
		t.Fatalf("agg cols = %v", agg.Columns())
	}
	r := agg.Row(0) // 15.76 group first (first appearance)
	if r["bytes_sum"] != int64(400) || r["bytes_mean"] != float64(200) || r["count"] != int64(2) || r["peak"] != float64(0.9) {
		t.Fatalf("agg row = %v", r)
	}
}

func TestAggFirstLastMin(t *testing.T) {
	f := sample()
	g, _ := f.GroupBy("prefix")
	agg, err := g.Agg(
		AggSpec{Col: "node", Func: AggFirst},
		AggSpec{Col: "node", Func: AggLast},
		AggSpec{Col: "bytes", Func: AggMin},
	)
	if err != nil {
		t.Fatal(err)
	}
	r := agg.Row(1) // 10.0 group: c then d
	if r["node_first"] != "c" || r["node_last"] != "d" || r["bytes_min"] != int64(50) {
		t.Fatalf("agg row = %v", r)
	}
}

func TestAggNonNumericErrors(t *testing.T) {
	f := sample()
	g, _ := f.GroupBy("prefix")
	if _, err := g.Agg(AggSpec{Col: "node", Func: AggSum}); err == nil {
		t.Fatal("expected error summing strings")
	}
	if _, err := g.Agg(AggSpec{Col: "ghost", Func: AggSum}); err == nil {
		t.Fatal("expected error for ghost column")
	}
	if _, err := g.Agg(AggSpec{Col: "bytes", Func: AggFunc("median")}); err == nil {
		t.Fatal("expected error for unknown agg")
	}
}

func TestWholeFrameStats(t *testing.T) {
	f := sample()
	if s, _ := f.Sum("bytes"); s != int64(650) {
		t.Fatalf("sum = %v", s)
	}
	if m, _ := f.Mean("bytes"); m != float64(162.5) {
		t.Fatalf("mean = %v", m)
	}
	if m, _ := f.Min("bytes"); m != int64(50) {
		t.Fatalf("min = %v", m)
	}
	if m, _ := f.Max("load"); m != float64(0.9) {
		t.Fatalf("max = %v", m)
	}
	empty := New("x")
	if m, _ := empty.Mean("x"); m != nil {
		t.Fatalf("empty mean = %v", m)
	}
	if m, _ := empty.Min("x"); m != nil {
		t.Fatalf("empty min = %v", m)
	}
}

func TestSumSkipsNil(t *testing.T) {
	f := New("v")
	f.AppendRow(nil)
	f.AppendRow(10)
	f.AppendRow(nil)
	if s, err := f.Sum("v"); err != nil || s != int64(10) {
		t.Fatalf("sum = %v err=%v", s, err)
	}
	if m, err := f.Mean("v"); err != nil || m != float64(10) {
		t.Fatalf("mean should skip nil = %v err=%v", m, err)
	}
}

func TestValueCounts(t *testing.T) {
	f := sample()
	vc, err := f.ValueCounts("prefix")
	if err != nil {
		t.Fatal(err)
	}
	if vc.NumRows() != 2 {
		t.Fatalf("vc = %v", vc)
	}
	// Both counts are 2; ties broken by value ascending → "10.0" first.
	if v, _ := vc.Cell(0, "prefix"); v != "10.0" {
		t.Fatalf("vc order = %v", vc)
	}
}

func TestMergeInner(t *testing.T) {
	nodes := New("id", "dc")
	nodes.AppendRow("a", "east")
	nodes.AppendRow("b", "west")
	nodes.AppendRow("c", "east")
	edges := New("src", "bytes")
	edges.AppendRow("a", 10)
	edges.AppendRow("a", 20)
	edges.AppendRow("z", 99)
	j, err := Merge(context.Background(), edges, nodes, "src", "id", InnerJoin)
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 2 {
		t.Fatalf("inner join rows = %d", j.NumRows())
	}
	if v, _ := j.Cell(0, "dc"); v != "east" {
		t.Fatalf("joined value = %v", v)
	}
}

func TestMergeLeft(t *testing.T) {
	left := New("k", "v")
	left.AppendRow("x", 1)
	left.AppendRow("y", 2)
	right := New("k", "w")
	right.AppendRow("x", 10)
	j, err := Merge(context.Background(), left, right, "k", "k", LeftJoin)
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 2 {
		t.Fatalf("left join rows = %d", j.NumRows())
	}
	if v, _ := j.Cell(1, "w"); v != nil {
		t.Fatalf("unmatched right should be nil, got %v", v)
	}
}

func TestMergeCollisionSuffix(t *testing.T) {
	a := New("k", "v")
	a.AppendRow("x", 1)
	b := New("k", "v")
	b.AppendRow("x", 2)
	j, err := Merge(context.Background(), a, b, "k", "k", InnerJoin)
	if err != nil {
		t.Fatal(err)
	}
	if !j.HasColumn("v_right") {
		t.Fatalf("cols = %v", j.Columns())
	}
}

func TestMergeErrors(t *testing.T) {
	a := New("k")
	b := New("k")
	if _, err := Merge(context.Background(), a, b, "ghost", "k", InnerJoin); err == nil {
		t.Fatal("expected left key error")
	}
	if _, err := Merge(context.Background(), a, b, "k", "ghost", InnerJoin); err == nil {
		t.Fatal("expected right key error")
	}
	if _, err := Merge(context.Background(), a, b, "k", "k", JoinKind("outer")); err == nil {
		t.Fatal("expected kind error")
	}
}

func TestConcat(t *testing.T) {
	a := New("x", "y")
	a.AppendRow(1, 2)
	b := New("y", "x") // different order, same set
	b.AppendRow(4, 3)
	c, err := Concat(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumRows() != 2 {
		t.Fatalf("concat rows = %d", c.NumRows())
	}
	if v, _ := c.Cell(1, "x"); v != int64(3) {
		t.Fatalf("concat realigned = %v", v)
	}
	d := New("z")
	if _, err := Concat(a, d); err == nil {
		t.Fatal("expected schema mismatch")
	}
}

func TestEqual(t *testing.T) {
	a := sample()
	if !Equal(a, a.Clone()) {
		t.Fatal("clone should be equal")
	}
	b := sample()
	b.SetCell(0, "bytes", 999)
	if Equal(a, b) {
		t.Fatal("cell difference not detected")
	}
	c, _ := a.Select("node", "bytes", "prefix", "load")
	if Equal(a, c) {
		t.Fatal("column order should matter")
	}
	// int64 vs float64 with same magnitude is equal.
	x := New("v")
	x.AppendRow(3)
	y := New("v")
	y.AppendRow(3.0)
	if !Equal(x, y) {
		t.Fatal("3 vs 3.0 should be equal")
	}
	z := New("v")
	z.AppendRow("3")
	if Equal(x, z) {
		t.Fatal("number vs string should differ")
	}
}

func TestStringRendering(t *testing.T) {
	f := sample()
	s := f.String()
	if s == "" {
		t.Fatal("empty render")
	}
	big := New("i")
	for i := 0; i < 30; i++ {
		big.AppendRow(i)
	}
	if got := big.String(); got == "" {
		t.Fatal("empty render for big frame")
	}
}

// --- property-based tests ---

func randFrame(r *rand.Rand, nrows int) *Frame {
	f := New("id", "grp", "val")
	for i := 0; i < nrows; i++ {
		f.AppendRow(fmt.Sprintf("r%03d", i), fmt.Sprintf("g%d", r.Intn(4)), r.Intn(1000))
	}
	return f
}

func TestPropFilterComplement(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fr := randFrame(r, 1+r.Intn(50))
		cut := int64(r.Intn(1000))
		val, _ := fr.Column("val")
		lo, err1 := fr.FilterIdx(func(i int) (bool, error) { return val[i].(int64) < cut, nil })
		hi, err2 := fr.FilterIdx(func(i int) (bool, error) { return val[i].(int64) >= cut, nil })
		if err1 != nil || err2 != nil {
			return false
		}
		return lo.NumRows()+hi.NumRows() == fr.NumRows()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropSortIsPermutationAndOrdered(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fr := randFrame(r, 1+r.Intn(50))
		s, err := fr.SortBy(true, "val")
		if err != nil || s.NumRows() != fr.NumRows() {
			return false
		}
		col, _ := s.Column("val")
		for i := 1; i < len(col); i++ {
			if scalar.Compare(col[i-1], col[i]) > 0 {
				return false
			}
		}
		// Same multiset of ids.
		want := map[string]int{}
		got := map[string]int{}
		origIDs, _ := fr.Column("id")
		sortIDs, _ := s.Column("id")
		for i := range origIDs {
			want[origIDs[i].(string)]++
			got[sortIDs[i].(string)]++
		}
		return reflect.DeepEqual(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropGroupSumsEqualTotal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fr := randFrame(r, 1+r.Intn(60))
		g, err := fr.GroupBy("grp")
		if err != nil {
			return false
		}
		agg, err := g.Agg(AggSpec{Col: "val", Func: AggSum}, AggSpec{Func: AggCount})
		if err != nil {
			return false
		}
		sumOfSums := 0.0
		countTotal := int64(0)
		for i := 0; i < agg.NumRows(); i++ {
			row := agg.Row(i)
			sumOfSums += asFloat(row["val_sum"])
			countTotal += row["count"].(int64)
		}
		total, _ := fr.Sum("val")
		return sumOfSums == asFloat(total) && countTotal == int64(fr.NumRows())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// asFloat reads an int64 or float64 sum as a float64.
func asFloat(v any) float64 {
	if x, ok := v.(int64); ok {
		return float64(x)
	}
	f, _ := v.(float64)
	return f
}

func TestPropCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fr := randFrame(r, r.Intn(40))
		return Equal(fr, fr.Clone())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropInnerJoinSubsetOfLeftKeys(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		left := randFrame(r, 1+r.Intn(30))
		right := New("grp", "extra")
		for i := 0; i < r.Intn(4); i++ {
			right.AppendRow(fmt.Sprintf("g%d", i), i)
		}
		j, err := Merge(context.Background(), left, right, "grp", "grp", InnerJoin)
		if err != nil {
			return false
		}
		rightKeys := map[string]bool{}
		col, _ := right.Column("grp")
		for _, v := range col {
			rightKeys[v.(string)] = true
		}
		jcol, _ := j.Column("grp")
		for _, v := range jcol {
			if !rightKeys[v.(string)] {
				return false
			}
		}
		return j.NumRows() <= left.NumRows()*maxInt(1, right.NumRows())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestPropLeftJoinPreservesLeftRows(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		left := randFrame(r, 1+r.Intn(30))
		right := New("grp", "extra") // unique keys → row count preserved
		for i := 0; i < 4; i++ {
			if r.Intn(2) == 0 {
				right.AppendRow(fmt.Sprintf("g%d", i), i)
			}
		}
		j, err := Merge(context.Background(), left, right, "grp", "grp", LeftJoin)
		if err != nil {
			return false
		}
		return j.NumRows() == left.NumRows()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestStringRowsLifetime pins which frames answer StringRows from their
// master's index: the frozen master and its unwritten clones, for columns
// that are still the master's. A write, a rename, a rebuilt column or an
// unfrozen frame leaves the caller to scan.
func TestStringRowsLifetime(t *testing.T) {
	build := func() *Frame {
		f := New("k", "n")
		for i, k := range []any{"a", int64(1), "b", "a", nil, "1", 1.0, "a"} {
			f.AppendRow(k, i)
		}
		return f
	}
	rows := func(f *Frame, col, s string) string {
		r, ok := f.StringRows(col, s)
		if !ok {
			return "scan"
		}
		return fmt.Sprint(r)
	}
	plain := build()
	plain.Share()
	if got := rows(plain, "k", "a"); got != "scan" {
		t.Errorf("unfrozen frame: %s", got)
	}
	master := build()
	master.Freeze()
	clone := master.Clone()
	for name, f := range map[string]*Frame{"master": master, "clone": clone} {
		for _, c := range []struct{ col, s, want string }{
			{"k", "a", "[0 3 7]"},
			{"k", "1", "[5]"},
			{"k", "absent", "[]"},
			{"n", "a", "[]"},
			{"missing", "a", "scan"},
		} {
			if got := rows(f, c.col, c.s); got != c.want {
				t.Errorf("%s: StringRows(%q, %q) = %s, want %s", name, c.col, c.s, got, c.want)
			}
		}
	}
	renamed, err := master.Rename("k", "key")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows(renamed, "key", "a") + " " + rows(renamed, "n", "a"); got != "scan []" {
		t.Errorf("renamed clone: %s, want scan [] (the kept column keeps the index)", got)
	}
	rebuilt, err := master.MutateIdx("k", func(i int) (any, error) { return "a", nil })
	if err != nil {
		t.Fatal(err)
	}
	if got := rows(rebuilt, "k", "a"); got != "scan" {
		t.Errorf("rebuilt column: %s", got)
	}
	if err := clone.SetCell(1, "k", "a"); err != nil {
		t.Fatal(err)
	}
	if got := rows(clone, "k", "a"); got != "scan" {
		t.Errorf("written clone: %s", got)
	}
	appended := master.Clone()
	appended.AppendRow("a", 8)
	if got := rows(appended, "k", "a"); got != "scan" {
		t.Errorf("clone after AppendRow: %s", got)
	}
	if got := rows(master, "k", "a") + " " + rows(master.Clone(), "k", "a"); got != "[0 3 7] [0 3 7]" {
		t.Errorf("master after its clones' writes: %s", got)
	}
	// A written clone frozen anew indexes its own cells.
	again := clone.Clone()
	again.Freeze()
	if got := rows(again.Clone(), "k", "a"); got != "[0 1 3 7]" {
		t.Errorf("re-frozen written clone: %s", got)
	}
}

// TestPrefixRows pins PrefixRows: the ascending positions of the string
// cells that start with the prefix, merged across the strings sharing it,
// from the same index and under the same lifetime as StringRows; and no
// answer for a column holding a cell that is not a string.
func TestPrefixRows(t *testing.T) {
	f := New("k", "m")
	for _, k := range []any{"10.0.0.1", "b", "10.0.0.10", "", "ab", "10.1", "a", "10.0.0.1", "abc"} {
		f.AppendRow(k, k)
	}
	f.AppendRow("z", nil)
	rows := func(f *Frame, col, p string) string {
		r, ok := f.PrefixRows(col, p)
		if !ok {
			return "scan"
		}
		return fmt.Sprint(r)
	}
	if got := rows(f, "k", "a"); got != "scan" {
		t.Errorf("unfrozen frame: %s", got)
	}
	f.Freeze()
	for _, c := range []struct{ col, p, want string }{
		{"k", "", "[0 1 2 3 4 5 6 7 8 9]"},
		{"k", "a", "[4 6 8]"},
		{"k", "ab", "[4 8]"},
		{"k", "abc", "[8]"},
		{"k", "abcd", "[]"},
		{"k", "10.0.0.1", "[0 2 7]"},
		{"k", "10.", "[0 2 5 7]"},
		{"k", "{", "[]"},
		{"m", "a", "scan"},
		{"missing", "a", "scan"},
	} {
		for name, g := range map[string]*Frame{"master": f, "clone": f.Clone()} {
			if got := rows(g, c.col, c.p); got != c.want {
				t.Errorf("%s: PrefixRows(%q, %q) = %s, want %s", name, c.col, c.p, got, c.want)
			}
		}
	}
	c := f.Clone()
	if err := c.SetCell(1, "k", "a"); err != nil {
		t.Fatal(err)
	}
	if got := rows(c, "k", "a"); got != "scan" {
		t.Errorf("written clone: %s", got)
	}
}

// TestGroupByKeyContract pins GroupBy, Unique, ValueCounts and Merge to the
// scalar key contract: 1 and 1.0, -0 and 0, and NaN payloads are one key
// each, and two-column keys whose strings hold the old 0x1f separator do
// not collide.
func TestGroupByKeyContract(t *testing.T) {
	f := New("k", "v")
	for _, k := range []any{int64(1), 1.0, int64(2), math.Copysign(0, -1), int64(0),
		math.NaN(), math.Float64frombits(0x7ff8000000000002)} {
		f.AppendRow(k, int64(1))
	}
	g, err := f.GroupBy("k")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumGroups() != 4 {
		t.Errorf("GroupBy(k) gives %d groups, want 4", g.NumGroups())
	}
	if u, _ := f.Unique("k"); len(u) != 4 {
		t.Errorf("Unique(k) = %v, want 4 values", u)
	}
	if vc, _ := f.ValueCounts("k"); vc.NumRows() != 4 {
		t.Errorf("ValueCounts(k) has %d rows, want 4", vc.NumRows())
	}
	if m, _ := Merge(context.Background(), f, f, "k", "k", InnerJoin); m.NumRows() != 2*2+1+2*2+2*2 {
		t.Errorf("self-merge on k has %d rows, want 13", m.NumRows())
	}

	pair := New("a", "b")
	pair.AppendRow("x\x1fs:y", "z")
	pair.AppendRow("x", "y\x1fs:z")
	g, err = pair.GroupBy("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumGroups() != 2 {
		t.Errorf("GroupBy(a, b) merges two different keys into %d group(s)", g.NumGroups())
	}
}

// TestFrozenCloneColumnList: clones of one frozen master share its column
// list, so neither renaming nor adding a column in one shows in the master
// or another clone.
func TestFrozenCloneColumnList(t *testing.T) {
	m := sample()
	m.Freeze()
	r, err := m.Clone().Rename("node", "id")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := m.Clone().MutateIdx("x", func(int) (any, error) { return int64(1), nil })
	b, _ := m.Clone().MutateIdx("y", func(int) (any, error) { return int64(2), nil })
	want := []string{"node", "prefix", "bytes", "load"}
	for name, c := range map[string]struct {
		f    *Frame
		cols []string
	}{
		"master":  {m, want},
		"renamed": {r, []string{"id", "prefix", "bytes", "load"}},
		"a":       {a, append(append([]string(nil), want...), "x")},
		"b":       {b, append(append([]string(nil), want...), "y")},
	} {
		if !reflect.DeepEqual(c.f.Columns(), c.cols) {
			t.Errorf("%s columns = %v, want %v", name, c.f.Columns(), c.cols)
		}
	}
	if _, err := m.Column("node"); err != nil {
		t.Errorf("master lost a column: %v", err)
	}
}

// endsAfter is a context whose Err reports Canceled from its (n+1)th call
// on, so a test can end a merge at a chosen poll whatever the host's
// speed.
type endsAfter struct {
	context.Context
	n int
}

func (c *endsAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestMergeCancelledAllocatesByChunk ends a self-merge of 1,000 rows on a
// constant key (a million output rows) at each of its first polls in
// turn. Merge polls while it hashes the right side and every
// mergeCheckEvery output rows, so however late among those polls the end
// comes, it has allocated a few checkpoints of output, not the hundreds
// of megabytes of the whole merge.
func TestMergeCancelledAllocatesByChunk(t *testing.T) {
	f := New("k", "v")
	for i := 0; i < 1000; i++ {
		f.AppendRow(int64(1), int64(i))
	}
	for polls := 1; polls <= 12; polls++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Merge(&endsAfter{Context: context.Background(), n: polls}, f, f, "k", "k", InnerJoin)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("context ending at poll %d: err = %v, want context.Canceled", polls+1, err)
		}
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 4<<20 {
			t.Errorf("context ending at poll %d: the merge allocated %d bytes", polls+1, bytes)
		}
	}
	// A left merge emits unmatched rows through the same checkpoint.
	g := New("k")
	for i := 0; i < 3000; i++ {
		g.AppendRow(int64(i))
	}
	if _, err := Merge(&endsAfter{Context: context.Background(), n: 2}, g, f, "k", "v", LeftJoin); !errors.Is(err, context.Canceled) {
		t.Errorf("left merge: err = %v, want context.Canceled", err)
	}
}
