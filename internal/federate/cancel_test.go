package federate

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/dataframe"
)

// heavyCatalog builds a frame whose self-join on a constant key explodes
// to rows² output rows — enough work that only a checkpoint can stop it.
func heavyCatalog(rows int) *Catalog {
	f := dataframe.New("k", "v")
	for i := 0; i < rows; i++ {
		f.AppendRow(int64(1), int64(i))
	}
	return &Catalog{Frames: map[string]*dataframe.Frame{"big": f}}
}

func selfJoin() Node {
	return &Join{
		Left:    &Scan{Source: SourceFrame, Table: "big"},
		Right:   &Scan{Source: SourceFrame, Table: "big"},
		LeftKey: "k", RightKey: "k",
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, testCatalog(), &Scan{Source: SourceFrame, Table: "edges"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want wrapped context.Canceled", err)
	}
}

// TestRunContextDeadlineStopsJoin arms a deadline far shorter than the
// quadratic self-join: the executor must abort at a row checkpoint, not
// run the join to completion.
func TestRunContextDeadlineStopsJoin(t *testing.T) {
	cat := heavyCatalog(2000) // 4M join output rows if left unchecked
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunContext(ctx, cat, selfJoin())
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want wrapped context.DeadlineExceeded", err)
	}
	if elapsed > time.Second {
		t.Fatalf("join abort took %v, want a prompt checkpoint return", elapsed)
	}
}

// TestCancelledJoinAllocatesByChunk ends a 4M-row self-join at each of
// its first polls in turn, with a context that reports the end from a
// chosen poll on, so the test does not depend on the host's speed. The
// join allocates its output a chunk at a time after the checkpoint that
// admits it, so however late the end comes among those polls, the run
// allocates a few megabytes (its key columns), not the 128 MB of the
// whole output.
func TestCancelledJoinAllocatesByChunk(t *testing.T) {
	cat := heavyCatalog(2000)
	plan := Prepare(cat, selfJoin())
	for polls := 1; polls <= 12; polls++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := plan.ExecuteContext(&endsAfter{Context: context.Background(), n: polls}, cat)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("context ending at poll %d: err = %v, want context.Canceled", polls+1, err)
		}
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 16<<20 {
			t.Errorf("context ending at poll %d: the join allocated %d bytes", polls+1, bytes)
		}
	}
}

// TestRunContextBackgroundUnchanged pins the no-deadline path: the same
// plan under a background context completes with the full cross product.
func TestRunContextBackgroundUnchanged(t *testing.T) {
	cat := heavyCatalog(40)
	rel, err := RunContext(context.Background(), cat, selfJoin())
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 40*40 {
		t.Fatalf("join produced %d rows, want %d", len(rel.Rows), 40*40)
	}
}

// TestCancelLeavesNoGoroutines is the hand-rolled leak check (goleak is
// not vendored): concurrently cancelled executions must return the process
// to its goroutine baseline — the executor is synchronous and must not
// strand anything.
func TestCancelLeavesNoGoroutines(t *testing.T) {
	cat := heavyCatalog(2000)
	before := runtime.NumGoroutine()
	const runs = 8
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+i)*time.Millisecond)
			defer cancel()
			if _, err := RunContext(ctx, cat, selfJoin()); err == nil {
				t.Error("quadratic join finished under a millisecond deadline")
			}
		}(i)
	}
	wg.Wait()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after cancelled runs: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
