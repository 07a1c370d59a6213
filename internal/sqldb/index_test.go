package sqldb

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataframe"
	"repro/internal/obs"
)

// indexKeys are the string literals the index tests look up: strings the
// key column holds, strings that spell its other cells ("1", "true") and
// one it never holds.
var indexKeys = []string{"a", "b", "", "1", "true", "zz"}

// randIndexTable builds t(k, v, n) from seed: k mixes strings, ints,
// floats, bools and nil; v mixes strings and ints, so a LIKE over v fails
// on some rows; n is a small int.
func randIndexTable(seed int64, rows int) *dataframe.Frame {
	rng := rand.New(rand.NewSource(seed))
	f := dataframe.New("k", "v", "n")
	for i := 0; i < rows; i++ {
		var k any
		switch rng.Intn(8) {
		case 0:
			k = nil
		case 1:
			k = rng.Intn(2) == 0
		case 2:
			k = int64(rng.Intn(3))
		case 3:
			k = float64(rng.Intn(3))
		default:
			k = []string{"a", "b", "c", "", "1", "true"}[rng.Intn(6)]
		}
		var v any = fmt.Sprintf("x%d", rng.Intn(4))
		if rng.Intn(4) == 0 {
			v = int64(rng.Intn(4))
		}
		f.AppendRow(k, v, int64(rng.Intn(5)))
	}
	return f
}

// indexDB returns a database holding randIndexTable(seed, rows) as t.
func indexDB(seed int64, rows int) *DB {
	db := NewDB()
	db.CreateTable("t", randIndexTable(seed, rows))
	return db
}

// indexQueries are SELECTs over t with WHERE shapes the index serves (a
// leading string equality, either side, nested in ANDs, under every
// clause) and shapes it must leave to the scan.
func indexQueries(lit string) []string {
	l := "'" + lit + "'"
	return []string{
		"SELECT * FROM t WHERE k = " + l,
		"SELECT * FROM t WHERE " + l + " = k",
		"SELECT k, v FROM t WHERE k = " + l + " AND n > 1",
		"SELECT v, n FROM t WHERE k = " + l + " AND v LIKE 'x%'",
		"SELECT v FROM t WHERE (k = " + l + " AND n < 3) AND v LIKE '%1' AND n >= 0",
		"SELECT DISTINCT v FROM t WHERE k = " + l + " ORDER BY v DESC",
		"SELECT n, COUNT(*) AS c, SUM(n) AS s, MIN(v) AS lo FROM t WHERE k = " + l + " GROUP BY n ORDER BY n",
		"SELECT COUNT(*), COUNT(DISTINCT v) FROM t WHERE k = " + l,
		"SELECT * FROM t WHERE k = " + l + " ORDER BY n DESC, v LIMIT 3 OFFSET 1",
		"SELECT x.v FROM t x WHERE x.k = " + l + " AND x.n != 4",
		"SELECT k, missing FROM t WHERE k = " + l,
		"SELECT SUM(v) FROM t WHERE k = " + l,
		// Shapes that scan.
		"SELECT * FROM t WHERE k = " + l + " OR n = 0",
		"SELECT * FROM t WHERE n = 1 AND k = " + l,
		"SELECT * FROM t WHERE k = 1",
		"SELECT * FROM t WHERE k = true",
		"SELECT * FROM t WHERE k != " + l,
		"SELECT * FROM t x WHERE t.k = " + l,
		"SELECT * FROM t WHERE missing = " + l,
		"SELECT t.v, u.v FROM t JOIN t u ON t.n = u.n WHERE t.k = " + l,
	}
}

// cellsText renders cells with their dynamic types, so 1 and 1.0 differ.
func cellsText(names []string, cols [][]any, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	fmt.Fprint(&sb, names)
	for _, col := range cols {
		sb.WriteString(" |")
		for _, v := range col {
			fmt.Fprintf(&sb, " %T:%v", v, v)
		}
	}
	return sb.String()
}

func queryText(db *DB, q string) string {
	f, err := db.Query(q)
	if err != nil {
		return cellsText(nil, nil, err)
	}
	cols := make([][]any, f.NumCols())
	for i, c := range f.Columns() {
		cols[i], _ = f.Column(c)
	}
	return cellsText(f.Columns(), cols, nil)
}

// TestIndexMatchesScan runs every index query on frozen masters, their
// unwritten clones and clones after each kind of write, and requires the
// rows, their order and the error text of the same statement on an
// unfrozen copy, which always scans. Federated scans read the same index;
// federate's TestSeekMatchesScan covers them.
func TestIndexMatchesScan(t *testing.T) {
	writes := []string{
		"",
		"UPDATE t SET n = n + 1 WHERE k = 'no such key'",
		"UPDATE t SET k = 'a' WHERE n = 2",
		"INSERT INTO t VALUES ('a', 'x1', 9)",
		"DELETE FROM t WHERE n = 0",
	}
	narrowed := 0
	for seed := int64(1); seed <= 4; seed++ {
		for _, rows := range []int{0, 1, 7, 200} {
			for _, w := range writes {
				for _, onMaster := range []bool{true, false} {
					if onMaster && w != "" {
						continue // a frozen master is never written
					}
					ref := indexDB(seed, rows)
					master := indexDB(seed, rows)
					master.Freeze()
					db := master
					if !onMaster {
						db = master.Clone()
						// A sibling clone's first lookups must not leak into db.
						if _, err := master.Clone().Query("SELECT * FROM t WHERE k = 'a'"); err != nil {
							t.Fatal(err)
						}
					}
					if w != "" {
						_, refErr := ref.Exec(w)
						_, err := db.Exec(w)
						if fmt.Sprint(refErr) != fmt.Sprint(err) {
							t.Fatalf("%s: error %v, reference %v", w, err, refErr)
						}
					}
					where := fmt.Sprintf("seed %d, %d rows, master %v, after %q", seed, rows, onMaster, w)
					for _, lit := range indexKeys {
						for _, q := range indexQueries(lit) {
							if got, want := queryText(db, q), queryText(ref, q); got != want {
								t.Errorf("%s: %s\n got %s\nwant %s", where, q, got, want)
							}
						}
						if scanRows(t, db, "SELECT * FROM t WHERE k = '"+lit+"'") < int64(rows) {
							narrowed++
						}
					}
				}
			}
		}
	}
	if narrowed == 0 {
		t.Fatal("no lookup read fewer rows than its table holds: the index was never used")
	}
}

// scanRows returns the row count of q's one sql.scan frame.
func scanRows(t *testing.T, db *DB, q string) int64 {
	t.Helper()
	prof := obs.NewProfile()
	if _, err := db.QueryContext(obs.WithProfile(context.Background(), prof), q); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	var rows []int64
	for _, st := range prof.Flatten() {
		if st.Op == "sql.scan" {
			rows = append(rows, st.Rows)
		}
	}
	if len(rows) != 1 {
		t.Fatalf("%s: sql.scan frames %v, want one", q, rows)
	}
	return rows[0]
}

// TestIndexScanFrameRows pins the sql.scan row count: the rows the index
// returned when it serves the statement, every row of the table when the
// statement scans.
func TestIndexScanFrameRows(t *testing.T) {
	f := dataframe.New("k", "n")
	for i, k := range []any{"a", "b", "a", int64(1), nil, "a", "1", 1.0} {
		f.AppendRow(k, int64(i))
	}
	master := NewDB()
	master.CreateTable("t", f)
	master.Freeze()
	clone := master.Clone()
	cases := []struct {
		q    string
		rows int64
	}{
		{"SELECT n FROM t WHERE k = 'a'", 3},
		{"SELECT n FROM t WHERE 'a' = k AND n > 0", 3},
		{"SELECT COUNT(*) FROM t WHERE k = '1'", 1},
		{"SELECT n FROM t WHERE k = 'absent'", 0},
		{"SELECT n FROM t WHERE k = 1", 8},
		{"SELECT n FROM t WHERE n > 0 AND k = 'a'", 8},
		{"SELECT n FROM t WHERE k = 'a' OR k = 'b'", 8},
		{"SELECT n FROM t", 8},
	}
	for _, c := range cases {
		for name, db := range map[string]*DB{"master": master, "clone": clone} {
			if got := scanRows(t, db, c.q); got != c.rows {
				t.Errorf("%s: %s: sql.scan rows %d, want %d", name, c.q, got, c.rows)
			}
		}
	}
	// A written clone scans.
	if _, err := clone.Exec("UPDATE t SET n = 0 WHERE k = 'b'"); err != nil {
		t.Fatal(err)
	}
	if got := scanRows(t, clone, "SELECT n FROM t WHERE k = 'a'"); got != 8 {
		t.Errorf("written clone: sql.scan rows %d, want 8", got)
	}
	if got := scanRows(t, master, "SELECT n FROM t WHERE k = 'a'"); got != 3 {
		t.Errorf("master after a clone's write: sql.scan rows %d, want 3", got)
	}
}

// TestIndexRenamedColumnScans: a table whose column was renamed from a
// frozen master's shares the master's storage but not its index under
// the new name, so a lookup on it scans and still answers right.
func TestIndexRenamedColumnScans(t *testing.T) {
	f := randIndexTable(5, 50)
	f.Freeze()
	renamed, err := f.Rename("k", "key")
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB()
	db.CreateTable("t", renamed)
	ref := NewDB()
	plain, err := randIndexTable(5, 50).Rename("k", "key")
	if err != nil {
		t.Fatal(err)
	}
	ref.CreateTable("t", plain)
	q := "SELECT v, n FROM t WHERE key = 'a'"
	if got := scanRows(t, db, q); got != 50 {
		t.Errorf("renamed column: sql.scan rows %d, want 50", got)
	}
	if got, want := queryText(db, q), queryText(ref, q); got != want {
		t.Errorf("renamed column\n got %s\nwant %s", got, want)
	}
	// The columns the rename kept still use the index.
	if got := scanRows(t, db, "SELECT n FROM t WHERE v = 'x1'"); got >= 50 {
		t.Errorf("kept column: sql.scan rows %d, want fewer than 50", got)
	}
}

// TestIndexConcurrentFirstLookups builds one master's index from many
// clones at once (run it under -race): every clone gets the scan's answer.
func TestIndexConcurrentFirstLookups(t *testing.T) {
	master := indexDB(9, 500)
	master.Freeze()
	ref := indexDB(9, 500)
	queries := []string{
		"SELECT n FROM t WHERE k = 'a'",
		"SELECT COUNT(*) FROM t WHERE v = 'x2'",
		"SELECT v FROM t WHERE k = 'b' AND n > 2",
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = queryText(ref, q)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8*len(queries))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			db := master.Clone()
			for i := range queries {
				i := (i + g) % len(queries)
				if got := queryText(db, queries[i]); got != want[i] {
					errs <- fmt.Sprintf("clone %d: %s\n got %s\nwant %s", g, queries[i], got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestIndexCancelledContext: a statement under a cancelled context fails
// whether or not the index narrows it to no rows, as the scan does.
func TestIndexCancelledContext(t *testing.T) {
	master := indexDB(2, 20)
	master.Freeze()
	ref := indexDB(2, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range []string{"SELECT * FROM t WHERE k = 'zz'", "SELECT * FROM t WHERE k = 'a'"} {
		_, err := master.QueryContext(ctx, q)
		_, refErr := ref.QueryContext(ctx, q)
		if err == nil || fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Errorf("%s: error %v, scan gives %v", q, err, refErr)
		}
	}
}
