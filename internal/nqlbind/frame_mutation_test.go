package nqlbind

import (
	"testing"

	"repro/internal/dataframe"
	"repro/internal/nql"
)

func runWithFrame(t *testing.T, f *dataframe.Frame, src string) nql.Value {
	t.Helper()
	in := nql.NewInterp(nql.Limits{}, map[string]nql.Value{"df": NewFrameObject(f)})
	v, err := in.Run(src)
	if err != nil {
		t.Fatalf("run failed: %v\nsource:\n%s", err, src)
	}
	return v
}

// TestFilterPredicateSetCellStaysLive pins live-read semantics when a
// filter predicate mutates the frame it is filtering on a copy-on-write
// clone (the MALT dataset path): the ensureOwned column replacement must be
// visible to later rows, as it was when rows were read per-visit.
func TestFilterPredicateSetCellStaysLive(t *testing.T) {
	master := dataframe.New("a")
	master.AppendRow(int64(1))
	master.AppendRow(int64(2))
	master.Freeze()
	f := master.Clone()
	v := runWithFrame(t, f, `
let seen = []
func pred(r) {
  push(seen, r["a"])
  if r["a"] == 1 { df.set_cell(1, "a", 100) }
  return true
}
let out = df.filter(pred)
return [seen, out.column("a")]`)
	if got := nql.Repr(v); got != "[[1, 100], [1, 100]]" {
		t.Fatalf("stale column view: got %s, want [[1, 100], [1, 100]]", got)
	}
}

// TestFilterPredicateAppendRowVisitsNewRows pins that rows appended by the
// predicate are iterated without panicking on a stale column snapshot.
func TestFilterPredicateAppendRowVisitsNewRows(t *testing.T) {
	f := dataframe.New("a")
	f.AppendRow(int64(1))
	f.AppendRow(int64(2))
	v := runWithFrame(t, f, `
let seen = []
func pred(r) {
  push(seen, r["a"])
  if r["a"] == 1 { df.append_row(3) }
  return r["a"] != 2
}
let out = df.filter(pred)
return [seen, out.column("a")]`)
	if got := nql.Repr(v); got != "[[1, 2, 3], [1, 3]]" {
		t.Fatalf("appended row handling diverged: got %s, want [[1, 2, 3], [1, 3]]", got)
	}
}

// TestMutatePredicateSeesPriorMutation pins the same liveness for mutate().
func TestMutatePredicateSeesPriorMutation(t *testing.T) {
	master := dataframe.New("a")
	master.AppendRow(int64(1))
	master.AppendRow(int64(2))
	master.Freeze()
	f := master.Clone()
	v := runWithFrame(t, f, `
func fn2(r) {
  if r["a"] == 1 { df.set_cell(1, "a", 100) }
  return r["a"] * 2
}
let out = df.mutate("b", fn2)
return out.column("b")`)
	if got := nql.Repr(v); got != "[2, 200]" {
		t.Fatalf("mutate saw stale values: got %s, want [2, 200]", got)
	}
}

// TestFrameWritesRejectContainers: append_row, set_cell and a mutate or
// assign lambda's result refuse a list, dict or function, which a frame
// cell would hold only as its Go text, with an argument error naming the
// column, and leave the frame as it was.
func TestFrameWritesRejectContainers(t *testing.T) {
	for src, want := range map[string]string{
		`df.append_row(1, [2])`:      `nql argument error on line 1: append_row() value for column "b" must not be a list`,
		`df.append_row({"k": 1}, 2)`: `nql argument error on line 1: append_row() value for column "a" must not be a map`,
		`df.set_cell(0, "b", {})`:    `nql argument error on line 1: set_cell() value for column "b" must not be a map`,
		`func f(x) { return x }
df.set_cell(0, "a", f)`: `nql argument error on line 2: set_cell() value for column "a" must not be a function`,
		`df.set_cell(0, "a", len)`:             `nql argument error on line 1: set_cell() value for column "a" must not be a builtin`,
		`df.mutate("c", fn(r) => [r["a"], 2])`: `nql argument error on line 1: mutate() value for column "c" must not be a list`,
		`func g(r) { return {"k": r["a"]} }
df.assign("b", g)`: `nql argument error on line 2: assign() value for column "b" must not be a map`,
		`df.mutate("a", fn(r) => len)`: `nql argument error on line 1: mutate() value for column "a" must not be a builtin`,
	} {
		f := dataframe.New("a", "b")
		f.AppendRow(int64(1), "x")
		_, err := nql.NewInterp(nql.Limits{}, map[string]nql.Value{"df": NewFrameObject(f)}).Run(src)
		if err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", src, err, want)
		}
		if f.NumRows() != 1 || f.Row(0)["a"] != int64(1) || f.Row(0)["b"] != "x" {
			t.Errorf("%s: frame changed to %v", src, f.Records())
		}
	}
}
