package nqlbind

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataframe"
	"repro/internal/federate"
	"repro/internal/nql"
)

// rowsFrame returns a frame of three rows over ncols columns c0..c{n-1},
// cell (i, j) holding i*100+j. Past eight columns its row maps share a
// hash index through their shape.
func rowsFrame(ncols int) *dataframe.Frame {
	cols := make([]string, ncols)
	for j := range cols {
		cols[j] = fmt.Sprintf("c%d", j)
	}
	f := dataframe.New(cols...)
	for i := 0; i < 3; i++ {
		row := make([]any, ncols)
		for j := range row {
			row[j] = int64(i*100 + j)
		}
		f.AppendRow(row...)
	}
	return f
}

// builtRow is row i of f as a map built key by key, the way row maps were
// built before they shared a shape.
func builtRow(f *dataframe.Frame, i int) *nql.Map {
	m := nql.NewMapCap(f.NumCols())
	for _, c := range f.Columns() {
		v, _ := f.Cell(i, c)
		m.SetBoxed(c, federate.LiftValue(v))
	}
	return m
}

// TestShapedRowsMatchBuiltMaps pins that a shaped row map is an ordinary
// map to a program: Repr, ==, iteration order and key lookup equal those of
// a map built with NewMapCap/SetBoxed, below and past the index threshold.
func TestShapedRowsMatchBuiltMaps(t *testing.T) {
	for _, ncols := range []int{3, 8, 9, 12} {
		t.Run(fmt.Sprintf("cols=%d", ncols), func(t *testing.T) {
			f := rowsFrame(ncols)
			for i := 0; i < f.NumRows(); i++ {
				want := builtRow(f, i)
				got := runWithFrame(t, f, fmt.Sprintf("return df.records()[%d]", i)).(*nql.Map)
				if nql.Repr(got) != nql.Repr(want) {
					t.Errorf("row %d repr = %s, want %s", i, nql.Repr(got), nql.Repr(want))
				}
				if !nql.ValuesEqual(got, want) || !nql.ValuesEqual(want, got) {
					t.Errorf("row %d != built map", i)
				}
				if row := runWithFrame(t, f, fmt.Sprintf("return df.row(%d)", i)); !nql.ValuesEqual(row, want) {
					t.Errorf("df.row(%d) = %s, want %s", i, nql.Repr(row), nql.Repr(want))
				}
				for _, k := range want.Keys() {
					wv, _ := want.Get(k)
					if gv, ok := got.Get(k); !ok || !nql.ValuesEqual(gv, wv) {
						t.Errorf("row %d [%v] = %v, %v; want %v", i, k, gv, ok, wv)
					}
				}
			}
			// Iteration order as a program sees it.
			keys := runWithFrame(t, f, `
let out = []
for k in df.records()[1] { push(out, k) }
return out`)
			if got, want := nql.Repr(keys), nql.Repr(nql.NewList(builtRow(f, 1).Keys()...)); got != want {
				t.Errorf("iteration order = %s, want %s", got, want)
			}
		})
	}
}

// TestShapedRowsAreIsolated writes to one row of a records() list (overwrite
// an existing key, add a key, delete a key) and asserts its sibling rows,
// a fresh records() call and the frame itself are unchanged. The writes run
// both below and past the index threshold, where an added key rebuilds the
// row's own index instead of writing the shared one.
func TestShapedRowsAreIsolated(t *testing.T) {
	for _, ncols := range []int{3, 9, 12} {
		t.Run(fmt.Sprintf("cols=%d", ncols), func(t *testing.T) {
			f := rowsFrame(ncols)
			before := runWithFrame(t, f, "return df.records()")
			got := runWithFrame(t, f, `
let rs = df.records()
rs[0]["c0"] = -1
rs[0]["added"] = 5
rs[1]["extra"] = 7
delete(rs[1], "c1")
rs[2]["c2"] = -2
delete(rs[2], "c0")
rs[2]["c0"] = -3
return [rs, df.records(), rs[1]["extra"], rs[1]["c2"], rs[2]["c0"]]`).(*nql.List)

			rows := got.Items[0].(*nql.List).Items
			want0 := builtRow(f, 0)
			_ = want0.Set("c0", int64(-1))
			_ = want0.Set("added", int64(5))
			want1 := builtRow(f, 1)
			_ = want1.Set("extra", int64(7))
			want1.Delete("c1")
			want2 := builtRow(f, 2)
			_ = want2.Set("c2", int64(-2))
			want2.Delete("c0")
			_ = want2.Set("c0", int64(-3))
			for i, want := range []*nql.Map{want0, want1, want2} {
				if g, w := nql.Repr(rows[i]), nql.Repr(want); g != w {
					t.Errorf("row %d after writes = %s, want %s", i, g, w)
				}
			}
			if g, w := nql.Repr(got.Items[1]), nql.Repr(before); g != w {
				t.Errorf("fresh records() after row writes = %s, want %s", g, w)
			}
			if g := nql.Repr(nql.NewList(got.Items[2:]...)); g != "[7, 102, -3]" {
				t.Errorf("lookups after writes = %s, want [7, 102, -3]", g)
			}
			for i := 0; i < f.NumRows(); i++ {
				if v, _ := f.Cell(i, "c0"); v != int64(i*100) {
					t.Errorf("frame cell (%d, c0) = %v after row writes", i, v)
				}
			}
			if f.NumCols() != ncols {
				t.Errorf("frame has %d columns after row writes, want %d", f.NumCols(), ncols)
			}
		})
	}
}

// TestHeldRowIgnoresLaterFrameWrites mutates the frame while a program
// holds rows of it: a row is a snapshot of the cells at the time it was
// read, for records(), row() and filter callbacks alike.
func TestHeldRowIgnoresLaterFrameWrites(t *testing.T) {
	for _, ncols := range []int{3, 9} {
		t.Run(fmt.Sprintf("cols=%d", ncols), func(t *testing.T) {
			master := rowsFrame(ncols)
			master.Freeze()
			f := master.Clone() // copy-on-write, like an evaluation trial
			got := runWithFrame(t, f, `
let rs = df.records()
let r = df.row(1)
let held = []
func keep(x) {
  push(held, x)
  return true
}
df.filter(keep)
df.set_cell(0, "c0", 1000)
df.set_cell(1, "c1", 1001)
df.append_row(`+appendArgs(ncols)+`)
return [rs[0]["c0"], r["c1"], held[1]["c1"], len(rs), df.row(0)["c0"]]`)
			if g := nql.Repr(got); g != "[0, 101, 101, 3, 1000]" {
				t.Errorf("held rows after frame writes = %s, want [0, 101, 101, 3, 1000]", g)
			}
			if v, _ := master.Cell(0, "c0"); v != int64(0) {
				t.Errorf("frozen master changed: (0, c0) = %v", v)
			}
		})
	}
}

// appendArgs returns n zero arguments for append_row.
func appendArgs(n int) string {
	return strings.TrimSuffix(strings.Repeat("0, ", n), ", ")
}

// runBoth runs a program whose loops over df.records() the compiler puts in
// row form, and the same program with `if false { push([], r) }` added at
// the top of each such loop body, which keeps those loops materializing.
// Both runs start from a fresh frame that build returns.
func runBoth(t *testing.T, build func() *dataframe.Frame, src string) (rows, maps string) {
	t.Helper()
	run := func(src string) string {
		in := nql.NewInterp(nql.Limits{}, map[string]nql.Value{"df": NewFrameObject(build())})
		v, err := in.Run(src)
		if err != nil {
			return "error: " + err.Error()
		}
		return nql.Repr(v)
	}
	escaped := strings.ReplaceAll(src, "df.records() {", "df.records() { if false { push([], r) }")
	if escaped == src {
		t.Fatalf("no records() loop in %q", src)
	}
	return run(src), run(escaped)
}

// containerFrame returns a frame of two rows whose "tags" cells hold lists
// and whose "m" cells hold maps. A frame's own writes store such values as
// strings; the cells are placed directly so that the row form is checked
// not to rely on that.
func containerFrame() *dataframe.Frame {
	return dataframe.FromColumns([]string{"id", "tags", "m"}, [][]any{
		{int64(1), int64(2)},
		{[]any{"a"}, []any{"b", "c"}},
		{map[string]any{"y": int64(10)}, map[string]any{}},
	}, 2)
}

// TestRowFormOverFrames pins the row form over real frames, owned and
// copy-on-write, below and past the map index threshold: the body sees the
// frame as it was at loop start even when it appends rows and sets cells,
// break, continue and return leave the loop, and a missing key raises the
// map's error on its line. A list or map cell reads as one container for
// the whole iteration, so changes the body makes through r["k"] show in
// later reads of r["k"] and nowhere else. Each outcome equals the
// materializing path's.
func TestRowFormOverFrames(t *testing.T) {
	cases := []struct {
		src, want string
		frame     func() *dataframe.Frame
	}{
		{`let seen = []
for r in df.records() {
  push(seen, r["c0"])
  df.set_cell(2, "c0", -1)
  df.append_row(` + appendArgs(9) + `)
}
return [seen, df.num_rows(), df.row(2)["c0"]]`, "[[0, 100, 200], 6, -1]", nil},
		{`let out = []
for r in df.records() {
  if r["c1"] == 1 { continue }
  if r["c1"] == 201 { break }
  push(out, r["c2"])
}
return out`, "[102]", nil},
		{`func first_over(k) {
  for r in df.records() { if r["c0"] > k { return r["c3"] } }
  return nil
}
return [first_over(50), first_over(500)]`, "[103, nil]", nil},
		{`let s = 0
for r in df.records() {
  s = s + r["c0"]
  s = s + r["nope"]
}`, `error: nql index error on line 4: map has no key "nope"`, nil},
		{`let out = []
for r in df.records() {
  push(r["tags"], r["id"])
  r["m"]["x"] = len(r["tags"])
  let held = r["m"]
  held["z"] = r["id"] * 10
  push(out, [r["tags"], r["m"], r["m"]["x"]])
}
return [out, df.records()]`,
			`[[[["a", 1], {"y": 10, "x": 2, "z": 10}, 2], [["b", "c", 2], {"x": 3, "z": 20}, 3]], ` +
				`[{"id": 1, "tags": ["a"], "m": {"y": 10}}, {"id": 2, "tags": ["b", "c"], "m": {}}]]`,
			containerFrame},
		{`let s = 0
for r in df.records() {
  s = s + r["id"]
  s = s + r["nope"]
}`, `error: nql index error on line 4: map has no key "nope"`, containerFrame},
		{`df.append_row(3, ["x"], {"k": 1})
let out = []
for r in df.records() { push(out, r["tags"]) }
return out`, `[["a"], ["b", "c"], "[x]"]`, containerFrame},
	}
	for i, c := range cases {
		frame := c.frame
		if frame == nil {
			frame = func() *dataframe.Frame { return rowsFrame(9) }
		}
		owned := frame
		cow := func() *dataframe.Frame {
			m := frame()
			m.Freeze()
			return m.Clone()
		}
		for name, build := range map[string]func() *dataframe.Frame{"owned": owned, "cow": cow} {
			rows, maps := runBoth(t, build, c.src)
			if rows != c.want || maps != c.want {
				t.Errorf("case %d, %s frame: row form %s, materializing %s, want %s", i, name, rows, maps, c.want)
			}
		}
	}
}

// TestRowFormLeavesMasterAlone: a row-form loop over a frozen master (as
// a shared golden instance's frames may be) writes nothing to it, so
// concurrent loops over one master do not race.
func TestRowFormLeavesMasterAlone(t *testing.T) {
	m := rowsFrame(3)
	m.Freeze()
	done := make(chan nql.Value, 4)
	for w := 0; w < 4; w++ {
		go func() {
			in := nql.NewInterp(nql.Limits{}, map[string]nql.Value{"df": NewFrameObject(m)})
			v, err := in.Run(`let s = 0
for r in df.records() { s = s + r["c1"] }
return s`)
			if err != nil {
				v = err.Error()
			}
			done <- v
		}()
	}
	for w := 0; w < 4; w++ {
		if v := <-done; nql.Repr(v) != "303" {
			t.Errorf("sum = %s, want 303", nql.Repr(v))
		}
	}
}
