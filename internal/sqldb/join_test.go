package sqldb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/dataframe"
)

// TestPropHashJoinMatchesNestedLoop cross-checks the hash-join fast path
// against a reference nested-loop join computed in Go, over random tables
// and mixed ON clauses (equality + residual inequality).
func TestPropHashJoinMatchesNestedLoop(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		left := dataframe.New("k", "v")
		nl := 1 + r.Intn(25)
		for i := 0; i < nl; i++ {
			left.AppendRow(fmt.Sprintf("k%d", r.Intn(6)), r.Intn(50))
		}
		right := dataframe.New("k", "w")
		nr := 1 + r.Intn(25)
		for i := 0; i < nr; i++ {
			right.AppendRow(fmt.Sprintf("k%d", r.Intn(6)), r.Intn(50))
		}
		db := NewDB()
		db.CreateTable("l", left)
		db.CreateTable("r", right)
		got, err := db.Query("SELECT l.k, l.v, r.w FROM l JOIN r ON l.k = r.k AND l.v < r.w")
		if err != nil {
			return false
		}
		// Reference: manual nested loop.
		want := 0
		lk, _ := left.Column("k")
		lv, _ := left.Column("v")
		rk, _ := right.Column("k")
		rw, _ := right.Column("w")
		for i := 0; i < left.NumRows(); i++ {
			for j := 0; j < right.NumRows(); j++ {
				if lk[i] == rk[j] && lv[i].(int64) < rw[j].(int64) {
					want++
				}
			}
		}
		if got.NumRows() != want {
			return false
		}
		// Every output row satisfies both conditions.
		for i := 0; i < got.NumRows(); i++ {
			row := got.Row(i)
			if row["v"].(int64) >= row["w"].(int64) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestJoinNoEquiFallback exercises the nested-loop fallback when the ON
// clause has no usable equality.
func TestJoinNoEquiFallback(t *testing.T) {
	db := NewDB()
	a := dataframe.New("x")
	a.AppendRow(1)
	a.AppendRow(5)
	b := dataframe.New("y")
	b.AppendRow(3)
	b.AppendRow(7)
	db.CreateTable("a", a)
	db.CreateTable("b", b)
	f, err := db.Query("SELECT a.x, b.y FROM a JOIN b ON a.x < b.y ORDER BY x, y")
	if err != nil {
		t.Fatal(err)
	}
	// pairs: (1,3) (1,7) (5,7)
	if f.NumRows() != 3 {
		t.Fatalf("rows = %d: %v", f.NumRows(), f.Records())
	}
}

// TestJoinEquiWithReversedOperands: "right.col = left.col" must also take
// the hash path and produce identical results.
func TestJoinEquiReversed(t *testing.T) {
	db := NewDB()
	l := dataframe.New("k", "v")
	l.AppendRow("a", 1)
	l.AppendRow("b", 2)
	r := dataframe.New("k", "w")
	r.AppendRow("a", 10)
	db.CreateTable("l", l)
	db.CreateTable("r", r)
	f1, err := db.Query("SELECT l.k, r.w FROM l JOIN r ON l.k = r.k")
	if err != nil {
		t.Fatal(err)
	}
	f2, err := db.Query("SELECT l.k, r.w FROM l JOIN r ON r.k = l.k")
	if err != nil {
		t.Fatal(err)
	}
	if !dataframe.Equal(f1, f2) {
		t.Fatal("operand order changed join result")
	}
	if f1.NumRows() != 1 {
		t.Fatalf("rows = %d", f1.NumRows())
	}
}

// TestJoinLeftWithResidual: a LEFT JOIN whose residual rejects a matching
// key must emit the null row.
func TestJoinLeftWithResidual(t *testing.T) {
	db := NewDB()
	l := dataframe.New("k", "v")
	l.AppendRow("a", 1)
	r := dataframe.New("k", "w")
	r.AppendRow("a", 0)
	db.CreateTable("l", l)
	db.CreateTable("r", r)
	f, err := db.Query("SELECT l.k, r.w FROM l LEFT JOIN r ON l.k = r.k AND r.w > 5")
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRows() != 1 {
		t.Fatalf("rows = %d", f.NumRows())
	}
	if f.Row(0)["w"] != nil {
		t.Fatalf("expected null-extended row, got %v", f.Row(0))
	}
}

// TestThreeWayJoin chains two hash joins.
func TestThreeWayJoin(t *testing.T) {
	db := NewDB()
	a := dataframe.New("id", "bid")
	a.AppendRow("a1", "b1")
	b := dataframe.New("id", "cid")
	b.AppendRow("b1", "c1")
	c := dataframe.New("id", "val")
	c.AppendRow("c1", 42)
	db.CreateTable("a", a)
	db.CreateTable("b", b)
	db.CreateTable("c", c)
	f, err := db.Query("SELECT a.id, c.val FROM a JOIN b ON a.bid = b.id JOIN c ON b.cid = c.id")
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRows() != 1 || f.Row(0)["val"] != int64(42) {
		t.Fatalf("rows = %v", f.Records())
	}
}

// endsAfter is a context whose Err reports Canceled from its (n+1)th call
// on, so a test can end a statement at a chosen poll whatever the host's
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

// TestCancelledJoinAllocatesByChunk ends a self-join of 4,000 rows on a
// constant key (16M output rows) at each of its first polls in turn. The
// join polls while it buckets the right side, per left row and every
// cancelCheckEvery output rows, so however late among those polls the end
// comes, the statement has allocated its bucket and a few checkpoints of
// output, not the hundreds of megabytes of the whole join.
func TestCancelledJoinAllocatesByChunk(t *testing.T) {
	f := dataframe.New("k", "v")
	for i := 0; i < 4000; i++ {
		f.AppendRow(int64(1), int64(i))
	}
	db := NewDB()
	db.CreateTable("big", f)
	const q = "SELECT a.v, b.v FROM big a JOIN big b ON a.k = b.k"
	for polls := 1; polls <= 12; polls++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := db.QueryContext(&endsAfter{Context: context.Background(), n: polls}, q)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("context ending at poll %d: err = %v, want context.Canceled", polls+1, err)
		}
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 4<<20 {
			t.Errorf("context ending at poll %d: the join allocated %d bytes", polls+1, bytes)
		}
	}
}
