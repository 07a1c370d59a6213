package sqldb

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataframe"
	"repro/internal/obs"
)

// scanDB is testDB plus "empty" (the edges schema, no rows) and "mixed"
// (column v holds strings, numbers, a bool and a nil).
func scanDB() *DB {
	db := testDB()
	db.CreateTable("empty", dataframe.New("src", "dst", "bytes", "packets"))
	mixed := dataframe.New("k", "v")
	for i, v := range []any{"a0", int64(2), "a1", 2.5, nil, "b", true, int64(-1)} {
		mixed.AppendRow(int64(i), v)
	}
	db.CreateTable("mixed", mixed)
	return db
}

// selectText renders a scan spec as the SELECT it stands for. Literals
// must be spellable: no apostrophes, no wildcards in a prefix, finite
// floats.
func selectText(spec ScanSpec) string {
	cols := "*"
	if spec.Cols != nil {
		cols = strings.Join(spec.Cols, ", ")
	}
	q := fmt.Sprintf("SELECT %s FROM %s", cols, spec.Table)
	for i, c := range spec.Conds {
		if i == 0 {
			q += " WHERE "
		} else {
			q += " AND "
		}
		if c.Op == "prefix" {
			q += fmt.Sprintf("%s LIKE '%s%%'", c.Col, c.Value)
			continue
		}
		var lit string
		switch v := c.Value.(type) {
		case string:
			lit = "'" + v + "'"
		case float64:
			lit = strconv.FormatFloat(v, 'f', -1, 64)
			if !strings.Contains(lit, ".") {
				lit += ".0"
			}
		default:
			lit = fmt.Sprint(v)
		}
		q += fmt.Sprintf("%s %s %s", c.Col, c.Op, lit)
	}
	return q
}

// outcomeText renders a scan's result with each cell's dynamic type, or
// its exact error text, followed by its profile frames.
func outcomeText(names []string, data [][]any, err error, prof *obs.Profile) string {
	var sb strings.Builder
	if err != nil {
		fmt.Fprintf(&sb, "error: %v\n", err)
	} else {
		fmt.Fprintln(&sb, names)
		n := 0
		if len(data) > 0 {
			n = len(data[0])
		}
		for r := 0; r < n; r++ {
			for c := range names {
				fmt.Fprintf(&sb, "%T:%v ", data[c][r], data[c][r])
			}
			sb.WriteString("\n")
		}
	}
	for _, fr := range prof.Flatten() {
		fmt.Fprintf(&sb, "%s%s(%s) rows=%d\n", strings.Repeat("  ", fr.Depth), fr.Op, fr.Detail, fr.Rows)
	}
	return sb.String()
}

// scanOutcomes runs a spec through ScanColumns and its SELECT through the
// SQL engine, each under its own profile, and renders both outcomes.
func scanOutcomes(ctx context.Context, db *DB, spec ScanSpec) (scan, sel string) {
	prof := obs.NewProfile()
	names, data, err := db.ScanColumns(obs.WithProfile(ctx, prof), spec)
	scan = outcomeText(names, data, err, prof)
	prof = obs.NewProfile()
	f, err := db.QueryContext(obs.WithProfile(ctx, prof), selectText(spec))
	if err == nil {
		names = f.Columns()
		data = make([][]any, len(names))
		for c, name := range names {
			data[c], _ = f.Column(name)
		}
	}
	return scan, outcomeText(names, data, err, prof)
}

// TestScanColumnsMatchesSelect requires ScanColumns to give the equivalent
// SELECT text's exact rows, error text and profile frames, under a live and
// a cancelled context. Both run on one executor, so this checks that the
// AST ScanColumns builds from a spec agrees with the parser's AST of that
// text.
func TestScanColumnsMatchesSelect(t *testing.T) {
	db := scanDB()
	ghost := Cond{Col: "ghost", Op: "=", Value: int64(1)}
	cases := []ScanSpec{
		{Table: "edges"},
		{Table: "edges", Conds: []Cond{{Col: "bytes", Op: ">", Value: int64(100)}}},
		{Table: "edges", Conds: []Cond{{Col: "bytes", Op: ">=", Value: int64(100)}, {Col: "src", Op: "!=", Value: "a"}}},
		{Table: "edges", Conds: []Cond{{Col: "src", Op: "=", Value: "a"}}, Cols: []string{"dst", "bytes"}},
		{Table: "nodes", Conds: []Cond{{Col: "prefix", Op: "prefix", Value: "15."}}},
		{Table: "nodes", Conds: []Cond{{Col: "load", Op: "<", Value: 0.6}}},
		// Unknown tables and columns.
		{Table: "ghost"},
		{Table: "edges", Conds: []Cond{ghost}},
		{Table: "empty", Conds: []Cond{ghost}},
		{Table: "edges", Conds: []Cond{{Col: "src", Op: "=", Value: "z"}, ghost}},
		{Table: "edges", Conds: []Cond{{Col: "src", Op: "=", Value: "b"}, ghost}},
		{Table: "edges", Cols: []string{"src", "ghost"}},
		{Table: "edges", Conds: []Cond{{Col: "bytes", Op: ">", Value: int64(1000)}}, Cols: []string{"src", "ghost"}},
		{Table: "empty", Cols: []string{"ghost"}},
		// A repeated projection is renamed.
		{Table: "edges", Cols: []string{"src", "src", "dst", "src"}},
		{Table: "edges", Conds: []Cond{{Col: "bytes", Op: "<", Value: int64(250)}}, Cols: []string{"src", "src"}},
		// Comparisons across types on a mixed column.
		{Table: "mixed", Conds: []Cond{{Col: "v", Op: "<", Value: "a1"}}},
		{Table: "mixed", Conds: []Cond{{Col: "v", Op: ">=", Value: int64(2)}}},
		{Table: "mixed", Conds: []Cond{{Col: "v", Op: "=", Value: 2.0}}},
		{Table: "mixed", Conds: []Cond{{Col: "v", Op: "!=", Value: "b"}}, Cols: []string{"v"}},
		// prefix over a non-string cell raises LIKE's type error.
		{Table: "edges", Conds: []Cond{{Col: "bytes", Op: "prefix", Value: "1"}}},
		{Table: "mixed", Conds: []Cond{{Col: "k", Op: ">", Value: int64(3)}, {Col: "v", Op: "prefix", Value: "b"}}},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ctx := range []context.Context{context.Background(), cancelled} {
		for _, spec := range cases {
			scan, sel := scanOutcomes(ctx, db, spec)
			if scan != sel {
				t.Errorf("%s (context error %v):\nScanColumns:\n%sSELECT:\n%s", selectText(spec), ctx.Err(), scan, sel)
			}
		}
	}
}

// TestScanColumnsErrPushdown pins the shapes that are not a plain column
// scan: an unknown table or column, an operator SQL has no spelling for,
// a repeated projection and a prefix over non-string cells. Each gives
// the equivalent SELECT's exact answer; no shape is refused.
func TestScanColumnsErrPushdown(t *testing.T) {
	db := testDB()
	ctx := context.Background()
	cases := []ScanSpec{
		{Table: "ghost"},
		{Table: "edges", Conds: []Cond{{Col: "ghost", Op: "=", Value: int64(1)}}},
		{Table: "edges", Cols: []string{"src", "src"}},
		{Table: "edges", Cols: []string{"ghost"}},
	}
	for _, spec := range cases {
		if scan, sel := scanOutcomes(ctx, db, spec); scan != sel {
			t.Errorf("%s:\nScanColumns:\n%sSELECT:\n%s", selectText(spec), scan, sel)
		}
	}
	// An unknown operator fails when it first runs, with WHERE's error.
	_, _, err := db.ScanColumns(ctx, ScanSpec{
		Table: "edges", Conds: []Cond{{Col: "bytes", Op: "~", Value: int64(1)}},
	})
	if want := `sql: unknown operator "~"`; err == nil || err.Error() != want {
		t.Errorf("unknown operator: err = %v, want %s", err, want)
	}
	// A non-string cell under prefix raises LIKE's type error verbatim.
	_, _, err = db.ScanColumns(ctx, ScanSpec{
		Table: "edges", Conds: []Cond{{Col: "bytes", Op: "prefix", Value: "1"}},
	})
	if err == nil || !strings.Contains(err.Error(), "LIKE requires strings") {
		t.Errorf("prefix over ints: err = %v, want LIKE type error", err)
	}
	_, werr := db.Query("SELECT * FROM edges WHERE bytes LIKE '1%'")
	if werr == nil || err == nil || err.Error() != werr.Error() {
		t.Errorf("ScanColumns LIKE error %v != SELECT's %v", err, werr)
	}
}

// FuzzScanColumns checks that the AST ScanColumns builds agrees with the
// parser's AST of the equivalent SELECT text, comparing their outcomes on
// generated scans of small mixed-type tables: conds holds three bytes per
// condition (column, operator and literal kind, literal value) and cols
// one byte per projected column (none keeps every column). Projections
// may repeat a name next to its _N-suffixed form; table d's dotted column
// is read through the star only, since SQL text cannot name it.
func FuzzScanColumns(f *testing.F) {
	db := NewDB()
	tf := dataframe.New("i", "f", "s", "m", "s_2")
	tf.AppendRow(int64(1), 0.5, "a", int64(2), "x")
	tf.AppendRow(int64(2), 1.5, "ab", 2.5, "y")
	tf.AppendRow(int64(3), -1.0, "b", "a1", "z")
	tf.AppendRow(int64(-2), 2.0, "", nil, "")
	tf.AppendRow(int64(0), 3.0, "a1", true, "x")
	db.CreateTable("t", tf)
	db.CreateTable("e", dataframe.New("i", "f", "s", "m", "s_2"))
	df := dataframe.New("i", "s.x", "s")
	df.AppendRow(int64(1), "a", "b")
	df.AppendRow(int64(2), "b", "a1")
	db.CreateTable("d", df)

	tables := []string{"t", "t", "e", "ghost", "d"}
	names := []string{"i", "f", "s", "m", "ghost", "s_2"}
	ops := []string{"=", "!=", "<", "<=", ">", ">=", "prefix"}
	strs := []string{"", "a", "a1", "ab", "b", "z"}
	f.Add(uint8(0), []byte{}, []byte{})
	f.Add(uint8(0), []byte{0, 2, 3}, []byte{2, 0})
	f.Add(uint8(0), []byte{2, 6, 1, 1, 11, 5}, []byte{})
	f.Add(uint8(0), []byte{3, 16, 2, 3, 4, 0}, []byte{3, 3})
	f.Add(uint8(2), []byte{4, 0, 1}, []byte{4})
	f.Add(uint8(0), []byte{3, 6, 0}, []byte{})
	f.Add(uint8(0), []byte{2, 0, 9, 4, 0, 1}, []byte{0, 4})
	f.Add(uint8(3), []byte{}, []byte{})
	f.Add(uint8(0), []byte{}, []byte{2, 5, 2})
	f.Add(uint8(4), []byte{2, 0, 1}, []byte{})
	f.Fuzz(func(t *testing.T, table uint8, conds, cols []byte) {
		spec := ScanSpec{Table: tables[int(table)%len(tables)]}
		for k := 0; k+2 < len(conds) && k < 12; k += 3 {
			c := Cond{Col: names[int(conds[k])%len(names)], Op: ops[int(conds[k+1])%len(ops)]}
			v := int8(conds[k+2])
			switch kind := int(conds[k+1]) / len(ops) % 3; {
			case kind == 0 || c.Op == "prefix":
				c.Value = strs[int(conds[k+2])%len(strs)]
			case kind == 1:
				c.Value = int64(v % 6)
			default:
				c.Value = float64(v%12) / 2
			}
			spec.Conds = append(spec.Conds, c)
		}
		for k := 0; k < len(cols) && k < 5 && spec.Table != "d"; k++ {
			spec.Cols = append(spec.Cols, names[int(cols[k])%len(names)])
		}
		scan, sel := scanOutcomes(context.Background(), db, spec)
		if scan != sel {
			t.Fatalf("%s:\nScanColumns:\n%sSELECT:\n%s", selectText(spec), scan, sel)
		}
	})
}

// TestScanColumnsNames pins the output names of scans: a repeated column
// takes the first _N suffix no output name carries, and a dotted column
// name is one name, as a star SELECT names it.
func TestScanColumnsNames(t *testing.T) {
	db := NewDB()
	dup := dataframe.New("c", "c_2")
	dup.AppendRow(int64(1), int64(2))
	db.CreateTable("dup", dup)
	dotted := dataframe.New("k", "a.b")
	dotted.AppendRow(int64(1), "x")
	dotted.AppendRow(int64(2), "y")
	db.CreateTable("dotted", dotted)
	cases := []struct {
		spec ScanSpec
		want string
	}{
		{ScanSpec{Table: "dup", Cols: []string{"c", "c_2", "c"}}, "[c c_2 c_3]\nint64:1 int64:2 int64:1 \n"},
		{ScanSpec{Table: "dup", Cols: []string{"c", "c", "c_2"}}, "[c c_3 c_2]\nint64:1 int64:1 int64:2 \n"},
		{ScanSpec{Table: "dotted"}, "[k a.b]\nint64:1 string:x \nint64:2 string:y \n"},
		{ScanSpec{Table: "dotted", Conds: []Cond{{Col: "a.b", Op: "=", Value: "y"}}, Cols: []string{"a.b"}}, "[a.b]\nstring:y \n"},
	}
	for _, c := range cases {
		names, data, err := db.ScanColumns(context.Background(), c.spec)
		if got := outcomeText(names, data, err, nil); got != c.want {
			t.Errorf("%+v:\n got %q\nwant %q", c.spec, got, c.want)
		}
	}
	f, err := db.Query("SELECT * FROM dotted")
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Columns(); strings.Join(got, ",") != "k,a.b" {
		t.Errorf("SELECT * names %v, want [k a.b]", got)
	}
}

// TestPushdownProfileFramesMatchText requires ScanColumns to emit the exact
// frame tree of the equivalent SELECT text (sql.select > sql.scan >
// sql.filter), so explain-analyze output reads the same for both.
func TestPushdownProfileFramesMatchText(t *testing.T) {
	db := testDB()
	shape := func(run func(ctx context.Context) error) []string {
		t.Helper()
		prof := obs.NewProfile()
		ctx := obs.WithProfile(context.Background(), prof)
		if err := run(ctx); err != nil {
			t.Fatal(err)
		}
		var ops []string
		for _, fr := range prof.Flatten() {
			ops = append(ops, fmt.Sprintf("%d:%s:%d", fr.Depth, fr.Op, fr.Rows))
		}
		return ops
	}
	native := shape(func(ctx context.Context) error {
		_, _, err := db.ScanColumns(ctx, ScanSpec{
			Table: "edges", Conds: []Cond{{Col: "bytes", Op: ">", Value: int64(100)}},
		})
		return err
	})
	text := shape(func(ctx context.Context) error {
		_, err := db.QueryContext(ctx, "SELECT * FROM edges WHERE bytes > 100")
		return err
	})
	if strings.Join(native, ",") != strings.Join(text, ",") {
		t.Errorf("frame trees diverge:\n  native: %v\n  text:   %v", native, text)
	}
}
