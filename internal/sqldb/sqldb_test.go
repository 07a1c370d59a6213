package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataframe"
	"repro/internal/scalar"
)

func testDB() *DB {
	db := NewDB()
	nodes := dataframe.New("id", "prefix", "dc", "load")
	nodes.AppendRow("a", "15.76", "east", 0.5)
	nodes.AppendRow("b", "15.76", "west", 0.9)
	nodes.AppendRow("c", "10.0", "east", 0.1)
	nodes.AppendRow("d", "10.0", "west", 0.7)
	db.CreateTable("nodes", nodes)
	edges := dataframe.New("src", "dst", "bytes", "packets")
	edges.AppendRow("a", "b", 100, 10)
	edges.AppendRow("b", "c", 300, 30)
	edges.AppendRow("c", "d", 200, 20)
	edges.AppendRow("a", "d", 50, 5)
	db.CreateTable("edges", edges)
	return db
}

func mustQuery(t *testing.T, db *DB, sql string) *dataframe.Frame {
	t.Helper()
	f, err := db.Query(sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return f
}

func TestSelectStar(t *testing.T) {
	db := testDB()
	f := mustQuery(t, db, "SELECT * FROM nodes")
	if f.NumRows() != 4 || f.NumCols() != 4 {
		t.Fatalf("dims = %dx%d", f.NumRows(), f.NumCols())
	}
	if !reflect.DeepEqual(f.Columns(), []string{"id", "prefix", "dc", "load"}) {
		t.Fatalf("cols = %v", f.Columns())
	}
}

func TestSelectProjectionAndAlias(t *testing.T) {
	db := testDB()
	f := mustQuery(t, db, "SELECT id AS node, load FROM nodes")
	if !reflect.DeepEqual(f.Columns(), []string{"node", "load"}) {
		t.Fatalf("cols = %v", f.Columns())
	}
	// Implicit alias (no AS).
	f2 := mustQuery(t, db, "SELECT id nodename FROM nodes")
	if f2.Columns()[0] != "nodename" {
		t.Fatalf("cols = %v", f2.Columns())
	}
}

func TestWhereComparisons(t *testing.T) {
	db := testDB()
	f := mustQuery(t, db, "SELECT id FROM nodes WHERE load > 0.5")
	ids, _ := f.Column("id")
	if !reflect.DeepEqual(ids, []any{"b", "d"}) {
		t.Fatalf("ids = %v", ids)
	}
	f2 := mustQuery(t, db, "SELECT id FROM nodes WHERE prefix = '15.76' AND load < 0.8")
	ids2, _ := f2.Column("id")
	if !reflect.DeepEqual(ids2, []any{"a"}) {
		t.Fatalf("ids = %v", ids2)
	}
	f3 := mustQuery(t, db, "SELECT id FROM nodes WHERE dc != 'east'")
	if f3.NumRows() != 2 {
		t.Fatalf("rows = %d", f3.NumRows())
	}
}

func TestWhereInBetweenLike(t *testing.T) {
	db := testDB()
	f := mustQuery(t, db, "SELECT id FROM nodes WHERE id IN ('a', 'c')")
	if f.NumRows() != 2 {
		t.Fatalf("IN rows = %d", f.NumRows())
	}
	f2 := mustQuery(t, db, "SELECT id FROM nodes WHERE id NOT IN ('a', 'c')")
	if f2.NumRows() != 2 {
		t.Fatalf("NOT IN rows = %d", f2.NumRows())
	}
	f3 := mustQuery(t, db, "SELECT src FROM edges WHERE bytes BETWEEN 100 AND 250")
	if f3.NumRows() != 2 {
		t.Fatalf("BETWEEN rows = %d", f3.NumRows())
	}
	f4 := mustQuery(t, db, "SELECT id FROM nodes WHERE prefix LIKE '15.%'")
	if f4.NumRows() != 2 {
		t.Fatalf("LIKE rows = %d", f4.NumRows())
	}
	f5 := mustQuery(t, db, "SELECT id FROM nodes WHERE prefix NOT LIKE '15.%'")
	if f5.NumRows() != 2 {
		t.Fatalf("NOT LIKE rows = %d", f5.NumRows())
	}
	f6 := mustQuery(t, db, "SELECT id FROM nodes WHERE id LIKE '_'")
	if f6.NumRows() != 4 {
		t.Fatalf("underscore LIKE rows = %d", f6.NumRows())
	}
}

func TestIsNull(t *testing.T) {
	db := NewDB()
	tbl := dataframe.New("x")
	tbl.AppendRow(nil)
	tbl.AppendRow(1)
	db.CreateTable("t", tbl)
	f := mustQuery(t, db, "SELECT x FROM t WHERE x IS NULL")
	if f.NumRows() != 1 {
		t.Fatalf("IS NULL rows = %d", f.NumRows())
	}
	f2 := mustQuery(t, db, "SELECT x FROM t WHERE x IS NOT NULL")
	if f2.NumRows() != 1 {
		t.Fatalf("IS NOT NULL rows = %d", f2.NumRows())
	}
}

func TestArithmeticAndFunctions(t *testing.T) {
	db := testDB()
	f := mustQuery(t, db, "SELECT bytes * 2 AS dbl, bytes + packets AS total FROM edges WHERE src = 'a' AND dst = 'b'")
	r := f.Row(0)
	if r["dbl"] != int64(200) || r["total"] != int64(110) {
		t.Fatalf("row = %v", r)
	}
	f2 := mustQuery(t, db, "SELECT UPPER(id) AS u, LENGTH(prefix) AS l FROM nodes WHERE id = 'a'")
	r2 := f2.Row(0)
	if r2["u"] != "A" || r2["l"] != int64(5) {
		t.Fatalf("row = %v", r2)
	}
	f3 := mustQuery(t, db, "SELECT ROUND(load * 100) AS pct FROM nodes WHERE id = 'a'")
	if f3.Row(0)["pct"] != float64(50) {
		t.Fatalf("pct = %v", f3.Row(0))
	}
	f4 := mustQuery(t, db, "SELECT SUBSTR(prefix, 1, 2) AS p2 FROM nodes WHERE id = 'a'")
	if f4.Row(0)["p2"] != "15" {
		t.Fatalf("substr = %v", f4.Row(0))
	}
}

// TestNegationOverflowRule: -x and ABS(x) of the smallest int64 follow
// scalar.Arith's rule and give the float 2^63 instead of wrapping.
func TestNegationOverflowRule(t *testing.T) {
	db := NewDB()
	tbl := dataframe.New("x")
	tbl.AppendRow(int64(math.MinInt64))
	db.CreateTable("t", tbl)
	r := mustQuery(t, db, "SELECT -x AS n, ABS(x) AS a, -(x + 1) AS m FROM t").Row(0)
	if r["n"] != 0x1p63 || r["a"] != 0x1p63 || r["m"] != int64(math.MaxInt64) {
		t.Fatalf("row = %v", r)
	}
}

func TestDivisionByZero(t *testing.T) {
	db := testDB()
	if _, err := db.Query("SELECT bytes / 0 FROM edges"); err == nil {
		t.Fatal("expected division-by-zero error")
	}
}

func TestAggregatesWholeTable(t *testing.T) {
	db := testDB()
	f := mustQuery(t, db, "SELECT COUNT(*) AS n, SUM(bytes) AS total, AVG(bytes) AS avg, MIN(bytes) AS lo, MAX(bytes) AS hi FROM edges")
	r := f.Row(0)
	if r["n"] != int64(4) || r["total"] != int64(650) || r["avg"] != float64(162.5) || r["lo"] != int64(50) || r["hi"] != int64(300) {
		t.Fatalf("aggregates = %v", r)
	}
}

func TestGroupByHaving(t *testing.T) {
	db := testDB()
	f := mustQuery(t, db, "SELECT src, SUM(bytes) AS total FROM edges GROUP BY src ORDER BY total DESC")
	if f.NumRows() != 3 {
		t.Fatalf("groups = %d", f.NumRows())
	}
	if f.Row(0)["src"] != "b" || f.Row(0)["total"] != int64(300) {
		t.Fatalf("top group = %v", f.Row(0))
	}
	f2 := mustQuery(t, db, "SELECT src, COUNT(*) AS n FROM edges GROUP BY src HAVING COUNT(*) > 1")
	if f2.NumRows() != 1 || f2.Row(0)["src"] != "a" {
		t.Fatalf("having = %v", f2.Records())
	}
}

func TestCountDistinct(t *testing.T) {
	db := testDB()
	f := mustQuery(t, db, "SELECT COUNT(DISTINCT prefix) AS n FROM nodes")
	if f.Row(0)["n"] != int64(2) {
		t.Fatalf("distinct count = %v", f.Row(0))
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	db := testDB()
	f := mustQuery(t, db, "SELECT id FROM nodes ORDER BY load DESC LIMIT 2")
	ids, _ := f.Column("id")
	if !reflect.DeepEqual(ids, []any{"b", "d"}) {
		t.Fatalf("ids = %v", ids)
	}
	f2 := mustQuery(t, db, "SELECT id FROM nodes ORDER BY load DESC LIMIT 2 OFFSET 1")
	ids2, _ := f2.Column("id")
	if !reflect.DeepEqual(ids2, []any{"d", "a"}) {
		t.Fatalf("ids = %v", ids2)
	}
	// LIMIT and OFFSET literals up to MaxInt64 clamp to the rows left
	// instead of overflowing the end index.
	for _, c := range []struct {
		sql  string
		want []any
	}{
		{"SELECT id FROM nodes LIMIT 9223372036854775807 OFFSET 1", []any{"b", "c", "d"}},
		{"SELECT id FROM nodes LIMIT 9223372036854775807", []any{"a", "b", "c", "d"}},
		{"SELECT id FROM nodes LIMIT 2 OFFSET 9223372036854775807", []any{}},
		{"SELECT id FROM nodes LIMIT 9223372036854775807 OFFSET 9223372036854775807", []any{}},
		{"SELECT id FROM nodes LIMIT 9223372036854775807 OFFSET 4", []any{}},
	} {
		f, err := db.Query(c.sql)
		if err != nil {
			t.Fatalf("query %q: %v", c.sql, err)
		}
		got, _ := f.Column("id")
		if len(got) != len(c.want) || (len(got) > 0 && !reflect.DeepEqual(got, c.want)) {
			t.Errorf("%s: ids = %v, want %v", c.sql, got, c.want)
		}
	}
	// ORDER BY an expression not in the output.
	f3 := mustQuery(t, db, "SELECT id FROM nodes ORDER BY load * -1")
	ids3, _ := f3.Column("id")
	if ids3[0] != "b" {
		t.Fatalf("expr order = %v", ids3)
	}
}

func TestDistinct(t *testing.T) {
	db := testDB()
	f := mustQuery(t, db, "SELECT DISTINCT prefix FROM nodes")
	if f.NumRows() != 2 {
		t.Fatalf("distinct rows = %d", f.NumRows())
	}
}

func TestJoinInner(t *testing.T) {
	db := testDB()
	f := mustQuery(t, db, `
		SELECT e.src, e.dst, n.dc AS src_dc
		FROM edges e
		JOIN nodes n ON e.src = n.id
		ORDER BY e.bytes DESC`)
	if f.NumRows() != 4 {
		t.Fatalf("join rows = %d", f.NumRows())
	}
	if f.Row(0)["src"] != "b" || f.Row(0)["src_dc"] != "west" {
		t.Fatalf("top join row = %v", f.Row(0))
	}
}

func TestJoinLeft(t *testing.T) {
	db := NewDB()
	left := dataframe.New("k", "v")
	left.AppendRow("x", 1)
	left.AppendRow("y", 2)
	db.CreateTable("l", left)
	right := dataframe.New("k", "w")
	right.AppendRow("x", 10)
	db.CreateTable("r", right)
	f := mustQuery(t, db, "SELECT l.k, r.w FROM l LEFT JOIN r ON l.k = r.k ORDER BY l.k")
	if f.NumRows() != 2 {
		t.Fatalf("left join rows = %d", f.NumRows())
	}
	if f.Row(1)["w"] != nil {
		t.Fatalf("unmatched = %v", f.Row(1))
	}
}

func TestJoinAggregate(t *testing.T) {
	db := testDB()
	f := mustQuery(t, db, `
		SELECT n.dc, SUM(e.bytes) AS total
		FROM edges e JOIN nodes n ON e.src = n.id
		GROUP BY n.dc ORDER BY total DESC`)
	if f.NumRows() != 2 {
		t.Fatalf("rows = %d", f.NumRows())
	}
	if f.Row(0)["dc"] != "east" || f.Row(0)["total"] != int64(350) { // a(100+50) + c(200)
		t.Fatalf("row = %v", f.Row(0))
	}
	if f.Row(1)["dc"] != "west" || f.Row(1)["total"] != int64(300) {
		t.Fatalf("row = %v", f.Row(1))
	}
}

func TestCaseExpression(t *testing.T) {
	db := testDB()
	f := mustQuery(t, db, `
		SELECT id, CASE WHEN load >= 0.7 THEN 'hot' WHEN load >= 0.3 THEN 'warm' ELSE 'cold' END AS temp
		FROM nodes ORDER BY id`)
	temps, _ := f.Column("temp")
	if !reflect.DeepEqual(temps, []any{"warm", "hot", "cold", "hot"}) {
		t.Fatalf("temps = %v", temps)
	}
}

func TestInsert(t *testing.T) {
	db := testDB()
	res, err := db.Exec("INSERT INTO nodes (id, prefix, dc, load) VALUES ('e', '12.0', 'east', 0.2), ('f', '12.0', 'west', 0.3)")
	if err != nil || res.Affected != 2 {
		t.Fatalf("insert = %+v err=%v", res, err)
	}
	f := mustQuery(t, db, "SELECT COUNT(*) AS n FROM nodes")
	if f.Row(0)["n"] != int64(6) {
		t.Fatalf("count = %v", f.Row(0))
	}
	// Insert without column list.
	if _, err := db.Exec("INSERT INTO nodes VALUES ('g', '13.0', 'east', 0.4)"); err != nil {
		t.Fatal(err)
	}
	// Arity mismatch.
	if _, err := db.Exec("INSERT INTO nodes (id) VALUES ('h', 'extra')"); err == nil {
		t.Fatal("expected arity error")
	}
	// Unknown column.
	if _, err := db.Exec("INSERT INTO nodes (ghost) VALUES (1)"); err == nil {
		t.Fatal("expected unknown column error")
	}
}

func TestUpdate(t *testing.T) {
	db := testDB()
	res, err := db.Exec("UPDATE nodes SET load = 1.0 WHERE dc = 'east'")
	if err != nil || res.Affected != 2 {
		t.Fatalf("update = %+v err=%v", res, err)
	}
	f := mustQuery(t, db, "SELECT COUNT(*) AS n FROM nodes WHERE load = 1.0")
	if f.Row(0)["n"] != int64(2) {
		t.Fatalf("count = %v", f.Row(0))
	}
	// Update with expression referencing the row.
	if _, err := db.Exec("UPDATE edges SET bytes = bytes * 2"); err != nil {
		t.Fatal(err)
	}
	f2 := mustQuery(t, db, "SELECT SUM(bytes) AS s FROM edges")
	if f2.Row(0)["s"] != int64(1300) {
		t.Fatalf("sum = %v", f2.Row(0))
	}
	if _, err := db.Exec("UPDATE nodes SET ghost = 1"); err == nil {
		t.Fatal("expected unknown column error")
	}
}

func TestDelete(t *testing.T) {
	db := testDB()
	res, err := db.Exec("DELETE FROM edges WHERE bytes < 150")
	if err != nil || res.Affected != 2 {
		t.Fatalf("delete = %+v err=%v", res, err)
	}
	f := mustQuery(t, db, "SELECT COUNT(*) AS n FROM edges")
	if f.Row(0)["n"] != int64(2) {
		t.Fatalf("count = %v", f.Row(0))
	}
}

func TestCreateTable(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE t (a TEXT, b INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t VALUES ('x', 1)"); err != nil {
		t.Fatal(err)
	}
	f := mustQuery(t, db, "SELECT * FROM t")
	if f.NumRows() != 1 {
		t.Fatalf("rows = %d", f.NumRows())
	}
}

func TestSyntaxErrors(t *testing.T) {
	db := testDB()
	bad := []string{
		"SELEC id FROM nodes",
		"SELECT FROM nodes",
		"SELECT id FROM",
		"SELECT id FROM nodes WHERE",
		"SELECT id nodes",
		"SELECT * FROM nodes GROUP",
		"SELECT 'unterminated FROM nodes",
		"SELECT id FROM nodes LIMIT abc",
		"INSERT nodes VALUES (1)",
		"UPDATE nodes load = 1",
		"DELETE nodes",
		"SELECT id FROM nodes; SELECT 1",
		"SELECT id! FROM nodes",
		"SELECT CASE END FROM nodes",
	}
	for _, sql := range bad {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("expected syntax error for %q", sql)
		}
	}
}

func TestSyntaxErrorType(t *testing.T) {
	_, err := Parse("SELECT FROM")
	var se *SyntaxError
	if !asSyntaxError(err, &se) {
		t.Fatalf("expected *SyntaxError, got %T: %v", err, err)
	}
	if !strings.Contains(se.Error(), "syntax error") {
		t.Fatalf("message = %q", se.Error())
	}
}

func asSyntaxError(err error, out **SyntaxError) bool {
	se, ok := err.(*SyntaxError)
	if ok {
		*out = se
	}
	return ok
}

func TestUnknownTableAndColumn(t *testing.T) {
	db := testDB()
	if _, err := db.Query("SELECT * FROM ghost"); err == nil {
		t.Fatal("expected unknown table error")
	}
	if _, err := db.Query("SELECT imaginary FROM nodes"); err == nil {
		t.Fatal("expected unknown column error")
	}
	if _, err := db.Query("SELECT n.ghost FROM nodes n"); err == nil {
		t.Fatal("expected unknown qualified column error")
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := testDB()
	// Both tables are "nodes" aliased differently; id is ambiguous.
	if _, err := db.Query("SELECT id FROM nodes a JOIN nodes b ON a.id = b.id"); err == nil {
		t.Fatal("expected ambiguity error")
	}
}

func TestStarWithAggregationRejected(t *testing.T) {
	db := testDB()
	if _, err := db.Query("SELECT *, COUNT(*) FROM nodes"); err == nil {
		t.Fatal("expected error")
	}
}

func TestSelectConstant(t *testing.T) {
	db := NewDB()
	f := mustQuery(t, db, "SELECT 1 + 2 AS three")
	if f.Row(0)["three"] != int64(3) {
		t.Fatalf("constant = %v", f.Row(0))
	}
}

func TestCloneIsolation(t *testing.T) {
	db := testDB()
	c := db.Clone()
	if _, err := c.Exec("DELETE FROM edges"); err != nil {
		t.Fatal(err)
	}
	f := mustQuery(t, db, "SELECT COUNT(*) AS n FROM edges")
	if f.Row(0)["n"] != int64(4) {
		t.Fatal("clone mutation leaked into original")
	}
}

func TestComments(t *testing.T) {
	db := testDB()
	f := mustQuery(t, db, "SELECT id FROM nodes -- trailing comment\nWHERE id = 'a'")
	if f.NumRows() != 1 {
		t.Fatalf("rows = %d", f.NumRows())
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"", "%", true},
		{"abc", "", false},
		{"15.76.1.2", "15.76%", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q,%q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

// likeOracle is LIKE by the definition: % takes every run of s in turn.
func likeOracle(s, p string) bool {
	if p == "" {
		return s == ""
	}
	switch {
	case p[0] == '%':
		for i := 0; i <= len(s); i++ {
			if likeOracle(s[i:], p[1:]) {
				return true
			}
		}
		return false
	case s != "" && (p[0] == '_' || p[0] == s[0]):
		return likeOracle(s[1:], p[1:])
	}
	return false
}

// TestLikeMatchPathological runs patterns whose %s must retry: the
// matcher agrees with likeOracle on every short string and pattern over
// a, b, % and _, finishes a long subject, and allocates nothing.
func TestLikeMatchPathological(t *testing.T) {
	const alphabet = "ab%_"
	var words []string
	var grow func(w string)
	grow = func(w string) {
		words = append(words, w)
		if len(w) < 5 {
			for _, c := range alphabet {
				grow(w + string(c))
			}
		}
	}
	grow("")
	for _, p := range words {
		for _, s := range words {
			if strings.ContainsAny(s, "%_") {
				continue
			}
			if got, want := likeMatch(s, p), likeOracle(s, p); got != want {
				t.Fatalf("likeMatch(%q, %q) = %v, want %v", s, p, got, want)
			}
		}
	}
	long := strings.Repeat("a", 20000)
	for _, c := range []struct {
		p    string
		want bool
	}{
		{"%a%a%a%b", false},
		{"%a%a%a%", true},
		{"%a_a%a", true},
		{"%%%%%%%%b", false},
	} {
		if got := likeMatch(long, c.p); got != c.want {
			t.Errorf("likeMatch(long, %q) = %v, want %v", c.p, got, c.want)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { likeMatch("15.76.1.2", "%7_._%") }); allocs != 0 {
		t.Errorf("likeMatch made %v allocations per call, want 0", allocs)
	}
}

// TestAggregateContextEvaluates pins aggregate context evaluated by the
// one evaluator: an aggregate inside IN, BETWEEN or IS NULL folds its
// group, a constant item over no rows is the constant, and a column
// reference over no rows is NULL without being resolved.
func TestAggregateContextEvaluates(t *testing.T) {
	db := NewDB()
	f := dataframe.New("k", "v")
	for _, r := range []struct {
		k string
		v int64
	}{{"x", 1}, {"x", 2}, {"y", 3}, {"z", 4}, {"z", 5}, {"z", 6}} {
		f.AppendRow(r.k, r.v)
	}
	db.CreateTable("t", f)
	for q, want := range map[string][]map[string]any{
		"SELECT k, COUNT(*) IN (2, 3) AS hit FROM t GROUP BY k": {
			{"k": "x", "hit": true}, {"k": "y", "hit": false}, {"k": "z", "hit": true}},
		"SELECT k, SUM(v) BETWEEN 3 AND 10 AS mid, MAX(v) IS NULL AS none FROM t GROUP BY k HAVING MIN(v) NOT IN (4)": {
			{"k": "x", "mid": true, "none": false}, {"k": "y", "mid": true, "none": false}},
		"SELECT 1 AS one, COUNT(*) AS n FROM t WHERE k = 'zz'": {
			{"one": int64(1), "n": int64(0)}},
		"SELECT -2 + 1 AS c, SUM(v) AS s FROM t WHERE v > 100": {
			{"c": int64(-1), "s": nil}},
		"SELECT nosuch, COUNT(*) AS n FROM t WHERE v > 100": {
			{"nosuch": nil, "n": int64(0)}},
		// Over an empty group a column reads NULL, and whatever holds it
		// evaluates as it would over a row holding NULL.
		"SELECT k IS NULL AS none, k IN ('x') AS hit, COALESCE(k, 'w') AS c, COUNT(*) AS n FROM t WHERE v > 100": {
			{"none": true, "hit": false, "c": "w", "n": int64(0)}},
	} {
		out, err := db.Query(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			continue
		}
		if got := out.Records(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %v\nwant %v", q, got, want)
		}
	}
	if _, err := db.Query("SELECT nosuch, COUNT(*) FROM t"); err == nil || !strings.Contains(err.Error(), "unknown column") {
		t.Errorf("unknown column over rows: error %v", err)
	}
	if _, err := db.Query("SELECT SUM(COUNT(v)) FROM t"); err == nil || err.Error() != "sql: aggregate COUNT() not allowed here" {
		t.Errorf("nested aggregate: error %v", err)
	}
}

// --- property-based tests ---

func randTable(r *rand.Rand, n int) *dataframe.Frame {
	f := dataframe.New("id", "grp", "val")
	for i := 0; i < n; i++ {
		f.AppendRow(fmt.Sprintf("r%03d", i), fmt.Sprintf("g%d", r.Intn(3)), r.Intn(100))
	}
	return f
}

// TestPropSQLMatchesDataframe cross-checks the two substrates: a SQL
// GROUP BY/SUM must agree with the dataframe GroupBy aggregation.
func TestPropSQLMatchesDataframe(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tbl := randTable(r, 1+r.Intn(40))
		db := NewDB()
		db.CreateTable("t", tbl.Clone())
		got, err := db.Query("SELECT grp, SUM(val) AS s FROM t GROUP BY grp ORDER BY grp")
		if err != nil {
			return false
		}
		g, err := tbl.GroupBy("grp")
		if err != nil {
			return false
		}
		want, err := g.Agg(dataframe.AggSpec{Col: "val", Func: dataframe.AggSum, Name: "s"})
		if err != nil {
			return false
		}
		want, err = want.SortBy(true, "grp")
		if err != nil {
			return false
		}
		return dataframe.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropWhereCountComplement(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tbl := randTable(r, 1+r.Intn(40))
		db := NewDB()
		db.CreateTable("t", tbl)
		cut := r.Intn(100)
		lo, err1 := db.Query(fmt.Sprintf("SELECT COUNT(*) AS n FROM t WHERE val < %d", cut))
		hi, err2 := db.Query(fmt.Sprintf("SELECT COUNT(*) AS n FROM t WHERE val >= %d", cut))
		if err1 != nil || err2 != nil {
			return false
		}
		return lo.Row(0)["n"].(int64)+hi.Row(0)["n"].(int64) == int64(tbl.NumRows())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropOrderByActuallySorts(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tbl := randTable(r, 1+r.Intn(40))
		db := NewDB()
		db.CreateTable("t", tbl)
		got, err := db.Query("SELECT val FROM t ORDER BY val")
		if err != nil {
			return false
		}
		col, _ := got.Column("val")
		for i := 1; i < len(col); i++ {
			if scalar.Compare(col[i-1], col[i]) > 0 {
				return false
			}
		}
		return got.NumRows() == tbl.NumRows()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropLimitClamps(t *testing.T) {
	f := func(seed int64, limRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tbl := randTable(r, r.Intn(30))
		db := NewDB()
		db.CreateTable("t", tbl)
		lim := int(limRaw % 40)
		got, err := db.Query(fmt.Sprintf("SELECT id FROM t LIMIT %d", lim))
		if err != nil {
			return false
		}
		want := lim
		if tbl.NumRows() < want {
			want = tbl.NumRows()
		}
		return got.NumRows() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSameKind pins which value pairs = may find equal: any two numbers,
// otherwise two values of one dynamic type. It must not allocate.
// TestCompareFollowsScalar pins each comparison operator to the scalar
// contract over a grid of values: int64 beyond 2^53 compares as float64,
// -0 equals 0, NaN equals only NaN and sorts below every number, and
// values of different kinds are never equal and order by kind.
func TestCompareFollowsScalar(t *testing.T) {
	const p53 = int64(1) << 53
	vals := []any{
		nil, true, false, "", "1", "a",
		int64(0), int64(1), int64(-1), int64(math.MaxInt64), int64(math.MinInt64),
		p53 - 1, p53, p53 + 1, -p53 - 1,
		0.0, math.Copysign(0, -1), 1.0, -1.5, 0.5,
		float64(p53), float64(p53) + 2, float64(math.MaxInt64), float64(math.MinInt64),
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	for _, l := range vals {
		for _, r := range vals {
			c := scalar.Compare(l, r)
			for op, want := range map[string]bool{
				"=": c == 0, "!=": c != 0, "<": c < 0, "<=": c <= 0, ">": c > 0, ">=": c >= 0,
			} {
				got, ok := compare(op, l, r)
				if !ok || got != want {
					t.Errorf("%#v %s %#v = %v (ok %v), want %v", l, op, r, got, ok, want)
				}
			}
		}
	}
	for _, c := range []struct {
		op   string
		l, r any
		want bool
	}{
		{"=", p53, p53 + 1, true},
		{"=", math.NaN(), int64(1), false},
		{"=", math.NaN(), math.NaN(), true},
		{"<", math.NaN(), math.Inf(-1), true},
		{"=", math.Copysign(0, -1), int64(0), true},
		{"=", int64(1), "1", false},
		{"<", true, int64(0), true},
	} {
		if got, _ := compare(c.op, c.l, c.r); got != c.want {
			t.Errorf("%#v %s %#v = %v, want %v", c.l, c.op, c.r, got, c.want)
		}
	}
}

// TestAggregateErrorOrder pins which error an aggregate reports: a row
// whose argument fails to evaluate wins over a non-numeric value met in an
// earlier row, and otherwise the first non-numeric value is named.
func TestAggregateErrorOrder(t *testing.T) {
	db := NewDB()
	f := dataframe.New("g", "v", "d")
	f.AppendRow("x", int64(1), int64(1))
	f.AppendRow("x", "oops", int64(1))
	f.AppendRow("x", "later", int64(0))
	db.CreateTable("t", f)
	for q, want := range map[string]string{
		"SELECT SUM(v) FROM t":               "sql: SUM() over non-numeric value oops",
		"SELECT g, AVG(v) FROM t GROUP BY g": "sql: AVG() over non-numeric value oops",
		"SELECT SUM(DISTINCT v) FROM t":      "sql: SUM() over non-numeric value oops",
		"SELECT MAX(v) FROM t":               "",
		// Row 1's 'oops' is non-numeric; row 2's argument divides by zero.
		"SELECT SUM(CASE WHEN d = 0 THEN 1 / d ELSE v END) FROM t": "sql: division by zero",
	} {
		_, err := db.Query(q)
		if want == "" && err != nil || want != "" && (err == nil || err.Error() != want) {
			t.Errorf("%s: error %v, want %q", q, err, want)
		}
	}
	f2 := mustQuery(t, db, "SELECT g, COUNT(v) AS n, COUNT(DISTINCT d) AS nd, MIN(v) AS lo, MAX(d) AS hi FROM t GROUP BY g")
	if r := f2.Row(0); r["n"] != int64(3) || r["nd"] != int64(2) || r["lo"] != int64(1) || r["hi"] != int64(1) {
		t.Fatalf("aggregates = %v", r)
	}
}

func TestEqual(t *testing.T) {
	master := testDB()
	master.Freeze()
	a, b := master.Clone(), master.Clone()
	if !Equal(a, b) {
		t.Fatal("equal clones compare unequal")
	}
	if allocs := testing.AllocsPerRun(10, func() { Equal(a, b) }); allocs != 0 {
		t.Errorf("Equal of clones made %v allocations per run, want 0", allocs)
	}

	nodes, _ := master.Table("nodes")
	edges, _ := master.Table("edges")
	reordered := NewDB()
	reordered.CreateTable("edges", edges.Clone())
	reordered.CreateTable("nodes", nodes.Clone())
	if Equal(a, reordered) {
		t.Error("databases with different table order compare equal")
	}

	missing := NewDB()
	missing.CreateTable("nodes", nodes.Clone())
	if Equal(a, missing) || Equal(missing, a) {
		t.Error("database missing a table compares equal")
	}

	changed := master.Clone()
	if _, err := changed.Exec("UPDATE edges SET bytes = 101 WHERE src = 'a' AND dst = 'b'"); err != nil {
		t.Fatal(err)
	}
	if Equal(a, changed) || Equal(changed, a) {
		t.Error("databases differing in one cell compare equal")
	}
}
