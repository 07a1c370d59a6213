package sqldb

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataframe"
	"repro/internal/obs"
)

// frameOf converts a columnar pushdown result into a frame so it can be
// compared cell-for-cell against the text path's result frame.
func frameOf(names []string, data [][]any) *dataframe.Frame {
	f := dataframe.New(names...)
	n := 0
	if len(data) > 0 {
		n = len(data[0])
	}
	row := make([]any, len(names))
	for r := 0; r < n; r++ {
		for i := range names {
			row[i] = data[i][r]
		}
		f.AppendRow(row...)
	}
	return f
}

// TestScanColumnsMatchesSelect drives the native scan and the equivalent
// SELECT text over the same table and requires identical frames — the
// planner's contract for choosing the native path.
func TestScanColumnsMatchesSelect(t *testing.T) {
	db := testDB()
	ctx := context.Background()
	cases := []struct {
		spec ScanSpec
		sql  string
	}{
		{ScanSpec{Table: "edges"}, "SELECT * FROM edges"},
		{ScanSpec{Table: "edges", Conds: []Cond{{Col: "bytes", Op: ">", Value: int64(100)}}},
			"SELECT * FROM edges WHERE bytes > 100"},
		{ScanSpec{Table: "edges", Conds: []Cond{{Col: "bytes", Op: ">=", Value: int64(100)}, {Col: "src", Op: "!=", Value: "a"}}},
			"SELECT * FROM edges WHERE bytes >= 100 AND src != 'a'"},
		{ScanSpec{Table: "edges", Conds: []Cond{{Col: "src", Op: "=", Value: "a"}}, Cols: []string{"dst", "bytes"}},
			"SELECT dst, bytes FROM edges WHERE src = 'a'"},
		{ScanSpec{Table: "nodes", Conds: []Cond{{Col: "prefix", Op: "prefix", Value: "15."}}},
			"SELECT * FROM nodes WHERE prefix LIKE '15.%'"},
		{ScanSpec{Table: "nodes", Conds: []Cond{{Col: "load", Op: "<", Value: 0.6}}},
			"SELECT * FROM nodes WHERE load < 0.6"},
	}
	for _, c := range cases {
		names, data, err := db.ScanColumns(ctx, c.spec)
		if err != nil {
			t.Errorf("ScanColumns(%+v): %v", c.spec, err)
			continue
		}
		want := mustQuery(t, db, c.sql)
		if got := frameOf(names, data); !dataframe.Equal(got, want) {
			t.Errorf("native scan diverges from %q:\n  native: %v %v\n  text:   %v", c.sql, names, data, want)
		}
	}
}

// TestScanColumnsErrPushdown pins the shapes the native path must refuse
// (so the caller falls back to text and reproduces the canonical error).
func TestScanColumnsErrPushdown(t *testing.T) {
	db := testDB()
	ctx := context.Background()
	cases := []ScanSpec{
		{Table: "ghost"},
		{Table: "edges", Conds: []Cond{{Col: "ghost", Op: "=", Value: int64(1)}}},
		{Table: "edges", Conds: []Cond{{Col: "bytes", Op: "~", Value: int64(1)}}},
		{Table: "edges", Cols: []string{"src", "src"}},
		{Table: "edges", Cols: []string{"ghost"}},
	}
	for _, spec := range cases {
		if _, _, err := db.ScanColumns(ctx, spec); !errors.Is(err, ErrPushdown) {
			t.Errorf("ScanColumns(%+v): err = %v, want ErrPushdown", spec, err)
		}
	}
	// A non-string cell under prefix reproduces the LIKE error verbatim —
	// real user-facing errors pass through, never ErrPushdown.
	_, _, err := db.ScanColumns(ctx, ScanSpec{
		Table: "edges", Conds: []Cond{{Col: "bytes", Op: "prefix", Value: "1"}},
	})
	if err == nil || !strings.Contains(err.Error(), "LIKE requires strings") {
		t.Errorf("prefix over ints: err = %v, want LIKE type error", err)
	}
	_, werr := db.Query("SELECT * FROM edges WHERE bytes LIKE '1%'")
	if werr == nil || err.Error() != werr.Error() {
		t.Errorf("native LIKE error %q != text path %q", err, werr)
	}
}

// TestPushdownProfileFramesMatchText requires the native scan to emit the
// text path's exact frame tree (sql.select > sql.scan > sql.filter) so
// explain-analyze output cannot reveal which path served a query.
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
