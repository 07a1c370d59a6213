package sqldb

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataframe"
)

// frameText renders a frame's columns and rows for exact comparison.
func frameText(f *dataframe.Frame) string {
	var sb strings.Builder
	fmt.Fprint(&sb, f.Columns())
	for i := 0; i < f.NumRows(); i++ {
		sb.WriteString(" ")
		vals := make([]any, 0, f.NumCols())
		for _, c := range f.Columns() {
			v, _ := f.Cell(i, c)
			vals = append(vals, v)
		}
		fmt.Fprint(&sb, vals)
	}
	return sb.String()
}

// kvDB is testDB plus t(k, v) with three rows, an empty table e(k, w) and
// dotted(k, "a.b") with one row, whose second column name holds a dot.
func kvDB() *DB {
	db := testDB()
	tf := dataframe.New("k", "v")
	tf.AppendRow(1, "x")
	tf.AppendRow(2, "y")
	tf.AppendRow(3, "z")
	db.CreateTable("t", tf)
	db.CreateTable("e", dataframe.New("k", "w"))
	dotted := dataframe.New("k", "a.b")
	dotted.AppendRow(1, "x")
	db.CreateTable("dotted", dotted)
	return db
}

// TestSchemaScopeResults pins what SELECTs over scans and joins return,
// including the cases where two slots of one row schema carry the same
// name.
func TestSchemaScopeResults(t *testing.T) {
	cases := []struct{ name, sql, want string }{
		{"self-join through two aliases",
			"SELECT a.v, b.v AS next FROM t a JOIN t b ON b.k = a.k + 1 ORDER BY a.k",
			"[v next] [x y] [y z]"},
		{"self-join unqualified unique names",
			"SELECT src, dst FROM edges a JOIN nodes b ON a.dst = b.id WHERE dc = 'west' ORDER BY src",
			"[src dst] [a b] [a d] [c d]"},
		// Both sides are aliased t, so every merged row holds t.k and t.v
		// twice; a name reads the later (right) slot, as a later map
		// assignment overwrote the earlier one.
		{"FROM t JOIN t collision reads the right slot",
			"SELECT t.v, v FROM t JOIN t ON t.k < 3",
			"[v v_2] [x x] [y y] [x x] [y y] [x x] [y y]"},
		{"FROM t JOIN t star expansion",
			"SELECT * FROM t JOIN t ON t.k = t.k",
			"[t_k t_v t_k_2 t_v_2] [1 x 1 x] [2 y 2 y] [3 z 3 z]"},
		{"LEFT JOIN against an empty right table",
			"SELECT t.k, e.k AS ek, w FROM t LEFT JOIN e ON t.k = e.k",
			"[k ek w] [1 <nil> <nil>] [2 <nil> <nil>] [3 <nil> <nil>]"},
		{"LEFT JOIN against an empty right table, no equality",
			"SELECT v, w FROM t LEFT JOIN e ON e.w > t.k WHERE w IS NULL",
			"[v w] [x <nil>] [y <nil>] [z <nil>]"},
		{"constant SELECT without FROM",
			"SELECT 1 + 2 AS three, 'a' AS s",
			"[three s] [3 a]"},
		{"star without FROM is one row of no columns",
			"SELECT *",
			"[] []"},
		{"aggregate over a join",
			"SELECT a.k, COUNT(*) AS n FROM t a JOIN t b ON b.k <= a.k GROUP BY a.k ORDER BY n DESC",
			"[k n] [3 3] [2 2] [1 1]"},
		// A repeat takes the first suffix no output name carries.
		{"repeat renamed past an alias that holds its suffix",
			"SELECT src, dst AS src_2, src FROM edges WHERE bytes > 100",
			"[src src_2 src_3] [b c b] [c d c]"},
		// Names are never split at a dot: a dotted column is one name, and
		// a join qualifies it only when another slot carries it.
		{"star keeps a dotted column name",
			"SELECT * FROM dotted",
			"[k a.b] [1 x]"},
		{"star qualifies a dotted column carried twice",
			"SELECT * FROM dotted JOIN dotted d2 ON dotted.k = d2.k",
			"[dotted_k dotted_a.b d2_k d2_a.b] [1 x 1 x]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := frameText(mustQuery(t, kvDB(), c.sql)); got != c.want {
				t.Errorf("%s\n got %s\nwant %s", c.sql, got, c.want)
			}
		})
	}
}

// TestSchemaScopeErrors pins the exact text of column-resolution errors:
// the "available" list is the row's distinct names, sorted.
func TestSchemaScopeErrors(t *testing.T) {
	cases := []struct{ sql, want string }{
		{"SELECT id FROM nodes a JOIN nodes b ON a.id = b.id",
			`sql: ambiguous column "id" (matches [a.id b.id])`},
		{"SELECT k FROM t a JOIN t b ON a.k = b.k",
			`sql: ambiguous column "k" (matches [a.k b.k])`},
		{"SELECT nope FROM t JOIN t ON t.k < 3",
			`sql: unknown column "nope" (available: [t.k t.v])`},
		{"SELECT t.nope FROM t JOIN t u ON t.k = u.k",
			`sql: unknown column t.nope (available: [t.k t.v u.k u.v])`},
		{"SELECT v FROM t WHERE x.k = 1",
			`sql: unknown column x.k (available: [t.k t.v])`},
		{"SELECT x",
			`sql: unknown column "x" (available: [])`},
		{"SELECT t.x",
			`sql: unknown column t.x (available: [])`},
		// The parser reads a.b as column b of table a: neither names the
		// dotted column.
		{"SELECT a.b FROM dotted",
			`sql: unknown column a.b (available: [dotted.a.b dotted.k])`},
		{"SELECT b FROM dotted",
			`sql: unknown column "b" (available: [dotted.a.b dotted.k])`},
		{"INSERT INTO t VALUES (k, 'q')",
			`sql: column reference "k" outside row context`},
		{"UPDATE t SET v = 'q' WHERE zz = 1",
			`sql: unknown column "zz" (available: [k v])`},
		{"UPDATE t SET v = t.k",
			`sql: unknown column t.k (available: [k v])`},
		{"DELETE FROM t WHERE zz = 1",
			`sql: unknown column "zz" (available: [k v])`},
	}
	for _, c := range cases {
		_, err := kvDB().Exec(c.sql)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s\n got %v\nwant %s", c.sql, err, c.want)
		}
	}
}

// TestUpdateWideTableReadsRowBeforeWrite updates a table of more than eight
// columns, a frozen master's copy-on-write clone, with SETs that read
// columns other SETs of the same row write: every SET reads the row as it
// was before the statement.
func TestUpdateWideTableReadsRowBeforeWrite(t *testing.T) {
	cols := make([]string, 10)
	for j := range cols {
		cols[j] = fmt.Sprintf("c%d", j)
	}
	f := dataframe.New(cols...)
	for i := 0; i < 4; i++ {
		row := make([]any, len(cols))
		for j := range row {
			row[j] = i*10 + j
		}
		f.AppendRow(row...)
	}
	master := NewDB()
	master.CreateTable("w", f)
	master.Freeze()
	db := master.Clone()
	res, err := db.Exec("UPDATE w SET c0 = c9, c9 = c0 + c9, c5 = c5 * -1 WHERE c1 >= 11 AND c8 < 38")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 2 {
		t.Errorf("affected = %d, want 2", res.Affected)
	}
	got := frameText(mustQuery(t, db, "SELECT c0, c5, c9, c1 FROM w"))
	want := "[c0 c5 c9 c1] [0 5 9 1] [19 -15 29 11] [29 -25 49 21] [30 35 39 31]"
	if got != want {
		t.Errorf("after UPDATE\n got %s\nwant %s", got, want)
	}
	if orig := frameText(mustQuery(t, master, "SELECT c0, c5, c9 FROM w")); orig != "[c0 c5 c9] [0 5 9] [10 15 19] [20 25 29] [30 35 39]" {
		t.Errorf("frozen master changed: %s", orig)
	}
	res, err = db.Exec("DELETE FROM w WHERE c9 > 40 OR c0 = 0")
	if err != nil {
		t.Fatal(err)
	}
	if got := frameText(mustQuery(t, db, "SELECT c0, c9 FROM w")); res.Affected != 2 || got != "[c0 c9] [19 29] [30 39]" {
		t.Errorf("after DELETE (%d rows): %s", res.Affected, got)
	}
}

// TestSelectResultIsolation: a SELECT result owns its storage. It keeps its
// values across later writes to its table, both on a copy-on-write clone of
// a frozen master and on a table the database owns, and writing the result
// (as NQL's set_cell and append_row do) leaves the table unchanged.
func TestSelectResultIsolation(t *testing.T) {
	queries := []string{
		"SELECT * FROM t",
		"SELECT k, v FROM t WHERE k > 1",
		"SELECT v, k FROM t ORDER BY k DESC",
	}
	writes := []string{
		"UPDATE t SET v = 'w', k = k + 10",
		"DELETE FROM t WHERE k = 2",
		"INSERT INTO t VALUES (4, 'q')",
	}
	for _, cow := range []bool{true, false} {
		open := func() *DB {
			db := kvDB()
			if cow {
				db.Freeze()
				return db.Clone()
			}
			return db
		}
		for _, q := range queries {
			for _, w := range writes {
				db := open()
				res := mustQuery(t, db, q)
				before := frameText(res)
				if _, err := db.Exec(w); err != nil {
					t.Fatal(err)
				}
				if got := frameText(res); got != before {
					t.Errorf("cow=%v %s, then %s: result changed\n got %s\nwant %s", cow, q, w, got, before)
				}
			}
			db := open()
			table := frameText(mustQuery(t, db, "SELECT * FROM t"))
			res := mustQuery(t, db, q)
			want := res.Records()
			if err := res.SetCell(0, "v", "set"); err != nil {
				t.Fatal(err)
			}
			want[0]["v"] = "set"
			row := make([]any, res.NumCols())
			added := map[string]any{}
			for i, c := range res.Columns() {
				row[i] = "new"
				added[c] = "new"
			}
			res.AppendRow(row...)
			if got := frameText(mustQuery(t, db, "SELECT * FROM t")); got != table {
				t.Errorf("cow=%v writing the result of %s changed the table\n got %s\nwant %s", cow, q, got, table)
			}
			// Appending to one column leaves the other columns' cells alone.
			if got := res.Records(); !reflect.DeepEqual(got, append(want, added)) {
				t.Errorf("cow=%v result of %s after its writes:\n got %v\nwant %v", cow, q, got, append(want, added))
			}
		}
	}
}

// TestKeyContractResults pins GROUP BY, DISTINCT, COUNT(DISTINCT), WHERE,
// JOIN and ORDER BY to the scalar key and order contract: 1 and 1.0, -0
// and 0, and two NaN payloads are one value each; NaN equals no other
// number and sorts below every one; and a two-column key cannot be forged
// by a string holding a field separator.
func TestKeyContractResults(t *testing.T) {
	db := NewDB()
	n := dataframe.New("id", "x")
	for i, x := range []any{int64(1), 1.0, math.Copysign(0, -1), int64(0),
		math.NaN(), math.Float64frombits(0x7ff8000000000002), int64(2)} {
		n.AppendRow(int64(i+1), x)
	}
	db.CreateTable("n", n)
	p := dataframe.New("a", "b")
	p.AppendRow("x\x1fs:y", "z")
	p.AppendRow("x", "y\x1fs:z")
	db.CreateTable("p", p)
	for _, c := range []struct{ sql, want string }{
		{"SELECT x, COUNT(*) AS c FROM n GROUP BY x", "[x c] [1 2] [-0 2] [NaN 2] [2 1]"},
		{"SELECT DISTINCT x FROM n", "[x] [1] [-0] [NaN] [2]"},
		{"SELECT COUNT(DISTINCT x) AS c FROM n", "[c] [4]"},
		{"SELECT id FROM n WHERE x = 1", "[id] [1] [2]"},
		{"SELECT id FROM n WHERE x != 0 AND x < 1", "[id] [5] [6]"},
		{"SELECT b.id FROM n a JOIN n b ON a.x = b.x WHERE a.id = 3", "[id] [3] [4]"},
		{"SELECT b.id FROM n a JOIN n b ON a.x = b.x WHERE a.id = 5", "[id] [5] [6]"},
		{"SELECT id FROM n ORDER BY x, id", "[id] [5] [6] [3] [4] [1] [2] [7]"},
		{"SELECT DISTINCT a, b FROM p", "[a b] [x\x1fs:y z] [x y\x1fs:z]"},
		{"SELECT COUNT(*) AS c FROM p GROUP BY a, b", "[c] [1] [1]"},
	} {
		f, err := db.Query(c.sql)
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		if got := frameText(f); got != c.want {
			t.Errorf("%s:\n got  %q\n want %q", c.sql, got, c.want)
		}
	}
}
