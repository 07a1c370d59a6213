package nql

import (
	"errors"
	"testing"
	"time"
)

// fuzzLimits keep each fuzzed run small: generated programs loop forever,
// recurse without a base case and grow containers without bound.
var fuzzLimits = Limits{
	MaxSteps:    20_000,
	MaxDepth:    32,
	MaxAllocs:   20_000,
	MaxDuration: time.Second,
}

// FuzzRun executes arbitrary source on the VM. A run may fail, but only
// the way NQL defines failure: a syntax error, a compile error or a
// categorized *RuntimeError. It must not panic and must not report an
// internal-class error. Every program of the pinned corpora is a seed, so
// plain `go test` runs them.
func FuzzRun(f *testing.F) {
	for _, corpus := range [][]pinCase{semanticsCorpus, errorCorpus, globalsCorpus} {
		for _, c := range corpus {
			f.Add(c.src)
		}
	}
	for _, c := range limitCases {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("Parse returned %T (%v), want *SyntaxError", err, err)
			}
			return
		}
		if _, err := prog.Compiled(); err != nil {
			return
		}
		_, err = NewInterp(fuzzLimits, pinGlobals()).RunProgram(prog)
		if err == nil {
			return
		}
		var re *RuntimeError
		if !errors.As(err, &re) {
			t.Fatalf("Run returned %T (%v), want *RuntimeError", err, err)
		}
		if re.Class == ErrInternal {
			t.Fatalf("internal error: %v\nsource:\n%s", err, src)
		}
	})
}
