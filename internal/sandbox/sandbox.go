// Package sandbox executes LLM-generated NQL programs in isolation
// (framework box 5 in the paper). The sandbox owns the resource budget,
// captures stdout, recovers panics from host bindings, and — critically —
// runs code against *cloned* state so a buggy generated program can never
// corrupt the golden copies the evaluator compares against. Host I/O is
// impossible by construction: the interpreter has no file, network or
// process bindings.
package sandbox

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nql"
	"repro/internal/nql/analysis"
)

// Policy configures a sandboxed execution.
type Policy struct {
	MaxSteps    int
	MaxDepth    int
	MaxAllocs   int
	MaxDuration time.Duration

	// Context, when non-nil, propagates the caller's cancellation and
	// deadline into the run: the interpreter polls it at every dispatch
	// quantum and the cancellable host bindings (federated plans, SQL)
	// thread it through their own row-loop checkpoints. A cancelled run
	// fails with an nql.ErrCancel-class error wrapping ctx.Err().
	Context context.Context

	// Profile, when non-nil, collects the VM's opcode-class and builtin
	// time/alloc profile for this run (strictly opt-in; see
	// nql.VMProfile). Policy stays comparable — the field is a pointer.
	Profile *nql.VMProfile
}

// DefaultPolicy matches nql.DefaultLimits.
var DefaultPolicy = Policy{
	MaxSteps:    nql.DefaultLimits.MaxSteps,
	MaxDepth:    nql.DefaultLimits.MaxDepth,
	MaxAllocs:   nql.DefaultLimits.MaxAllocs,
	MaxDuration: nql.DefaultLimits.MaxDuration,
}

// Result captures one sandboxed run.
type Result struct {
	Value    nql.Value // script return value (nil when none)
	Stdout   string    // captured print() output
	Err      error     // nil on success
	ErrClass string    // categorized error class ("" on success)
	Duration time.Duration
	Steps    int // evaluation steps executed, on success and error alike
}

// OK reports whether the run completed without error.
func (r *Result) OK() bool { return r.Err == nil }

// progEntry is one cached prepare result: the parsed program (bytecode
// warmed) plus the surface-independent static diagnostics from the
// semantic analyzer. Parse, compile, and analyze each happen once per
// distinct source no matter how Compile/Vet/Run interleave.
type progEntry struct {
	prog  *nql.Program
	diags []analysis.Diagnostic
}

// progCache memoizes successful prepares keyed by source text. The
// evaluation matrix executes the same golden and generated programs
// hundreds of times (once per model × backend × trial cell); preparing
// each distinct source once removes the parser, the bytecode compiler
// (nql.Program.Compiled, warmed below) and the analyzer from the per-run
// cost entirely. Nothing writes a parsed program after Parse except its
// lazily compiled bytecode, which nql.Program guards with a sync.Once, so
// cached entries are shared freely across goroutines.
var (
	progMu    sync.Mutex
	progCache = map[string]*progEntry{}

	// Cumulative cache outcome counters, read by CacheStats for the service
	// metrics endpoint and diagnostic bundles. Atomics, not the mutex: the
	// hit path should stay one map probe plus one add.
	progHits   atomic.Uint64
	progMisses atomic.Uint64
)

// CacheStats reports cumulative program-cache hits and misses and the
// current entry count — the bytecode-cache analogue of the federated
// plan cache's Stats, exported on netqueryd's /metricsz.
func CacheStats() (hits, misses uint64, entries int) {
	progMu.Lock()
	n := len(progCache)
	progMu.Unlock()
	return progHits.Load(), progMisses.Load(), n
}

// progCacheMax bounds the cache so adversarial or size-swept workloads
// (e.g. Figure 4b's graph-scale sweep) cannot grow it without limit; at the
// cap, new programs still compile — they just are not retained.
const progCacheMax = 4096

// prepare is the single entry point behind Compile, Vet and CheckSyntax:
// parse, warm the bytecode, analyze, cache.
func prepare(src string) (*progEntry, error) {
	progMu.Lock()
	e, ok := progCache[src]
	progMu.Unlock()
	if ok {
		progHits.Add(1)
		return e, nil
	}
	progMisses.Add(1)
	prog, err := nql.Parse(src)
	if err != nil {
		return nil, err
	}
	// Warm the bytecode cache off the per-trial path; a (never expected)
	// compile failure is deferred to execution, which reports it as an
	// internal-class error.
	_, _ = prog.Compiled()
	// The surface-independent analysis: name resolution against concrete
	// backend globals is the caller's job (analysis.CheckNames); these
	// diagnostics hold for every surface.
	e = &progEntry{prog: prog, diags: analysis.Analyze(prog, analysis.Options{})}
	progMu.Lock()
	if len(progCache) < progCacheMax {
		progCache[src] = e
	}
	progMu.Unlock()
	return e, nil
}

// Compile parses src into an executable program, consulting and populating
// the shared program cache. The returned program is immutable and may be
// executed concurrently by any number of RunProgram calls.
func Compile(src string) (*nql.Program, error) {
	e, err := prepare(src)
	if err != nil {
		return nil, err
	}
	return e.prog, nil
}

// Vet parses and statically analyzes src, returning the analyzer's
// surface-independent diagnostics (cached alongside the compiled
// program). A parse failure is returned as the error; callers that want
// it as a diagnostic can wrap it with analysis.SyntaxDiagnostic. A nil
// error with zero diagnostics means the program is statically clean.
func Vet(src string) ([]analysis.Diagnostic, error) {
	e, err := prepare(src)
	if err != nil {
		return nil, err
	}
	return e.diags, nil
}

// Run executes src with the given host globals under the policy. The caller
// is responsible for passing cloned state in globals; Run never mutates the
// policy or retains the globals. Compilation goes through the program
// cache, so repeated runs of the same source parse it only once.
func Run(src string, globals map[string]nql.Value, policy Policy) *Result {
	prog, err := Compile(src)
	if err != nil {
		return &Result{Err: err, ErrClass: nql.ClassOf(err)}
	}
	return RunProgram(prog, globals, policy)
}

// RunProgram executes an already-compiled program under the policy. Use
// with Compile to hoist parsing out of a loop that executes the same
// program against many state clones.
func RunProgram(prog *nql.Program, globals map[string]nql.Value, policy Policy) *Result {
	res := &Result{}
	start := time.Now()
	defer func() {
		res.Duration = time.Since(start)
		if p := recover(); p != nil {
			res.Err = fmt.Errorf("sandbox: panic during execution: %v", p)
			res.ErrClass = string(nql.ErrInternal)
		}
	}()
	in := nql.NewInterp(nql.Limits{
		MaxSteps:    policy.MaxSteps,
		MaxDepth:    policy.MaxDepth,
		MaxAllocs:   policy.MaxAllocs,
		MaxDuration: policy.MaxDuration,
		Context:     policy.Context,
		Profile:     policy.Profile,
	}, globals)
	v, err := in.RunProgram(prog)
	res.Stdout = in.Stdout()
	res.Steps = in.Steps()
	if err != nil {
		res.Err = err
		res.ErrClass = nql.ClassOf(err)
		return res
	}
	res.Value = v
	return res
}

// CheckSyntax parses src without executing it; returns nil when the program
// is syntactically valid. The self-debug loop uses this to give fast
// feedback before paying for execution. Successful parses land in the
// program cache, so a syntax check followed by Run compiles only once.
func CheckSyntax(src string) error {
	_, err := Compile(src)
	return err
}
