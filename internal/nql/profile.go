package nql

import (
	"sort"
	"time"
)

// VMProfile collects an opcode-class and builtin execution profile for one
// VM run. It is attached via Limits.Profile and is strictly opt-in: the
// run loop hoists the pointer once and pays a single predictable nil
// branch per instruction when profiling is off (gated by
// BenchmarkObsOverhead and the NQLVM benchdiff watch).
//
// Opcode counts are exact. Time attribution is sampled: every SampleEvery
// instructions the profile reads the clock and charges the elapsed delta
// to the opcode class executing at the sample point — reading the clock
// per instruction would distort the measurement it reports. Builtin calls
// are measured exactly (time and allocation-budget charge around each
// call), since builtins are where NQL programs actually spend wall time.
//
// A VMProfile belongs to one run on one goroutine; it is not safe for
// concurrent use.
type VMProfile struct {
	// SampleEvery is the time-sampling stride in instructions; 0 means
	// DefaultProfileSample.
	SampleEvery int

	counts  [numOpClasses]int64
	timeNS  [numOpClasses]int64
	samples int64

	sinceSample int
	lastSample  time.Time

	builtins map[string]*builtinStat
}

type builtinStat struct {
	calls  int64
	ns     int64
	allocs int64
}

// DefaultProfileSample is the default instruction stride between clock
// samples: coarse enough to keep profiled runs near full speed, fine
// enough to place time within a dispatch quantum.
const DefaultProfileSample = 64

// NewVMProfile returns an empty profile with the default sampling stride.
func NewVMProfile() *VMProfile {
	return &VMProfile{SampleEvery: DefaultProfileSample, builtins: make(map[string]*builtinStat)}
}

// Opcode classes group the VM's opcodes by what they do, the granularity
// at which "where did the VM spend its time" is answerable from
// sampled deltas.
const (
	opClassLoad  = iota // constants, locals, cells, globals, stack shuffling
	opClassStore        // stores and cell binds
	opClassArith        // unary and binary operators
	opClassJump         // branches and unconditional jumps
	opClassAlloc        // list/map construction and alloc accounting
	opClassIndex        // indexing, attribute and member access
	opClassCall         // calls, closures, returns
	opClassIter         // iterator prep/next/pop
	numOpClasses
)

var opClassNames = [numOpClasses]string{
	"load", "store", "arith", "jump", "alloc", "index", "call", "iter",
}

// opClassTable maps every opcode to its class, built once from the enum
// layout in compile.go (contiguous ranges per class).
var opClassTable = func() [opRowNext + 1]uint8 {
	var t [opRowNext + 1]uint8
	for op := opConst; op <= opRowNext; op++ {
		var c uint8
		switch {
		case op <= opLoadGlobal:
			c = opClassLoad
		case op <= opLetCell:
			c = opClassStore
		case op <= opIn:
			c = opClassArith
		case op <= opJumpTruthy:
			c = opClassJump
		case op <= opMakeMap:
			c = opClassAlloc
		case op <= opRowIter:
			c = opClassIndex
		case op <= opReturnNil:
			c = opClassCall
		default:
			c = opClassIter
		}
		t[op] = c
	}
	return t
}()

// note records one executed instruction and, at the sampling stride,
// charges the elapsed wall time to the class at the sample point.
func (p *VMProfile) note(op opcode) {
	c := opClassTable[op]
	p.counts[c]++
	p.sinceSample++
	every := p.SampleEvery
	if every <= 0 {
		every = DefaultProfileSample
	}
	if p.sinceSample >= every {
		p.sinceSample = 0
		now := time.Now()
		if !p.lastSample.IsZero() {
			p.timeNS[c] += now.Sub(p.lastSample).Nanoseconds()
			p.samples++
		}
		p.lastSample = now
	}
}

// noteBuiltin records one builtin call with its exact duration and the
// allocation-budget elements it charged. Durations are inclusive: a
// builtin that re-enters the VM (sorted's key function, frame.apply)
// keeps the nested time.
func (p *VMProfile) noteBuiltin(name string, d time.Duration, allocs int) {
	if p.builtins == nil {
		p.builtins = make(map[string]*builtinStat)
	}
	st := p.builtins[name]
	if st == nil {
		st = &builtinStat{}
		p.builtins[name] = st
	}
	st.calls++
	st.ns += d.Nanoseconds()
	st.allocs += int64(allocs)
}

// OpClassStat is one opcode class in a report.
type OpClassStat struct {
	Class     string `json:"class"`
	Count     int64  `json:"count"`
	SampledNS int64  `json:"sampled_ns"`
}

// BuiltinStat is one builtin's exact totals in a report.
type BuiltinStat struct {
	Name   string `json:"name"`
	Calls  int64  `json:"calls"`
	NS     int64  `json:"ns"`
	Allocs int64  `json:"allocs"`
}

// VMProfileReport is the JSON shape attached to query responses.
type VMProfileReport struct {
	Opcodes  []OpClassStat `json:"opcodes,omitempty"`
	Builtins []BuiltinStat `json:"builtins,omitempty"`
	Samples  int64         `json:"samples"`
}

// Report summarizes the profile: opcode classes by descending count,
// builtins by descending exact time, both with deterministic name
// tie-breaks. Classes never executed are omitted.
func (p *VMProfile) Report() *VMProfileReport {
	if p == nil {
		return nil
	}
	r := &VMProfileReport{Samples: p.samples}
	for c := 0; c < numOpClasses; c++ {
		if p.counts[c] == 0 {
			continue
		}
		r.Opcodes = append(r.Opcodes, OpClassStat{Class: opClassNames[c], Count: p.counts[c], SampledNS: p.timeNS[c]})
	}
	sort.Slice(r.Opcodes, func(i, j int) bool {
		if r.Opcodes[i].Count != r.Opcodes[j].Count {
			return r.Opcodes[i].Count > r.Opcodes[j].Count
		}
		return r.Opcodes[i].Class < r.Opcodes[j].Class
	})
	for name, st := range p.builtins {
		r.Builtins = append(r.Builtins, BuiltinStat{Name: name, Calls: st.calls, NS: st.ns, Allocs: st.allocs})
	}
	sort.Slice(r.Builtins, func(i, j int) bool {
		if r.Builtins[i].NS != r.Builtins[j].NS {
			return r.Builtins[i].NS > r.Builtins[j].NS
		}
		return r.Builtins[i].Name < r.Builtins[j].Name
	})
	return r
}
