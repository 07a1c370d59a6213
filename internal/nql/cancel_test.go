package nql

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// cancelSpin burns VM steps without allocating: long enough that its step
// budget outlives any test deadline, so only cancellation can stop it.
const cancelSpin = "let i = 0\nwhile i < 100000000 { i = i + 1 }\nreturn i"

// TestCancelledContextAbortsPromptly runs the spin loop under an
// already-cancelled context: the run must abort at its first
// dispatch-quantum checkpoint (well under a second), with the cancelled
// class wrapping context.Canceled.
func TestCancelledContextAbortsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := NewInterp(Limits{Context: ctx}, nil)
	start := time.Now()
	_, err := in.Run(cancelSpin)
	elapsed := time.Since(start)
	var re *RuntimeError
	if !errors.As(err, &re) || re.Class != ErrCancel {
		t.Fatalf("error = %v, want %s-class RuntimeError", err, ErrCancel)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancelled run took %v, want one dispatch quantum", elapsed)
	}
}

// TestContextDeadlineAbortsMidRun arms a deadline shorter than the spin
// loop: the abort must carry context.DeadlineExceeded and land within one
// quantum of the deadline, not at the loop's end.
func TestContextDeadlineAbortsMidRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	in := NewInterp(Limits{Context: ctx}, nil)
	start := time.Now()
	_, err := in.Run(cancelSpin)
	elapsed := time.Since(start)
	var re *RuntimeError
	if !errors.As(err, &re) || re.Class != ErrCancel {
		t.Fatalf("error = %v, want %s-class RuntimeError", err, ErrCancel)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error does not wrap context.DeadlineExceeded: %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("deadline abort took %v, want prompt return", elapsed)
	}
}

// TestCancelMessageEngineIdentical pins the exact error a cancelled run
// renders: the first dispatch-quantum checkpoint reports the cause.
func TestCancelMessageEngineIdentical(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewInterp(Limits{Context: ctx}, nil).Run(cancelSpin)
	const want = "nql cancelled error on line 2: query cancelled: context canceled"
	if err == nil || err.Error() != want {
		t.Fatalf("cancel error = %v, want %q", err, want)
	}
}

// TestNoLimitsContextStillEnforced confirms a nil Limits.Context keeps the
// historical behavior: the spin loop dies on the step budget, class limit.
func TestNoLimitsContextStillEnforced(t *testing.T) {
	in := NewInterp(Limits{MaxSteps: 10_000}, nil)
	_, err := in.Run(cancelSpin)
	var re *RuntimeError
	if !errors.As(err, &re) || re.Class != ErrLimit {
		t.Fatalf("error = %v, want %s-class RuntimeError", err, ErrLimit)
	}
}

// TestCancelLeavesNoGoroutines is a hand-rolled leak check (goleak is not
// vendored): a burst of concurrently cancelled runs must return the
// process to its goroutine baseline — the interpreter spawns nothing that
// can outlive Run.
func TestCancelLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	const runs = 16
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+i)*time.Millisecond)
			defer cancel()
			in := NewInterp(Limits{Context: ctx}, nil)
			if _, err := in.Run(cancelSpin); err == nil {
				t.Error("spin run under a millisecond deadline succeeded")
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
