package nql

import (
	"sync"
	"time"

	"repro/internal/scalar"
)

// cell boxes a variable captured by a closure. The compiler promotes a
// binding to a cell when any nested function references it; a fresh cell is
// created every time its `let` executes, which gives loops per-iteration
// capture (each closure created in a loop iteration sees that iteration's
// value).
type cell struct{ v Value }

// frame is one activation record. Locals live on the shared value stack at
// [base, base+numSlots); retBase is where the return value lands (the
// callee slot for calls, the frame's own base for VM entries).
type frame struct {
	proto    *FuncProto
	cl       *Closure
	pc       int
	base     int
	retBase  int
	iterBase int
	depthInc bool // this frame holds one Interp.depth increment
}

// iterState is one active for-loop: a snapshot of the iterable, taken
// before the first iteration and held in machine-pooled buffers, or for a
// loop in row form (rows.go) the cursor over a host's row snapshot.
type iterState struct {
	items   []Value
	seconds []Value
	rows    *rowCursor
	i       int
}

// machine is the reusable VM state: one contiguous value stack holding
// every frame's locals and operands, the frame and iterator stacks, and the
// per-run global slot table. Machines are recycled through a sync.Pool so
// steady-state execution of cached programs performs no stack allocations.
type machine struct {
	stack  []Value
	sp     int
	frames []frame
	iters  []iterState
	bufs   [][]Value // free iterator-snapshot buffers

	// Global slots for the bound Code: resolved lazily per run, so each
	// distinct global name costs one map lookup per run instead of one per
	// access. gok distinguishes "unresolved" from a legitimately nil value.
	gcode  *Code
	gslots []Value
	gok    []uint8
}

var machinePool = sync.Pool{New: func() any { return new(machine) }}

func (m *machine) push(v Value) {
	if m.sp == len(m.stack) {
		m.stack = append(m.stack, v)
		m.sp++
		return
	}
	m.stack[m.sp] = v
	m.sp++
}

func (m *machine) bindGlobals(code *Code) {
	m.gcode = code
	n := len(code.globals)
	if cap(m.gslots) < n {
		m.gslots = make([]Value, n)
		m.gok = make([]uint8, n)
		return
	}
	m.gslots = m.gslots[:n]
	m.gok = m.gok[:n]
	for i := range m.gslots {
		m.gslots[i] = nil
		m.gok[i] = 0
	}
}

// reset clears every live reference so pooled machines never pin finished
// run state (and a machine recycled after a panic starts clean).
func (m *machine) reset() {
	for i := range m.stack {
		m.stack[i] = nil
	}
	m.sp = 0
	for i := range m.frames {
		m.frames[i] = frame{}
	}
	m.frames = m.frames[:0]
	for i := range m.iters {
		m.putBuf(m.iters[i].items)
		m.putBuf(m.iters[i].seconds)
		m.iters[i] = iterState{}
	}
	m.iters = m.iters[:0]
	m.gcode = nil
	for i := range m.gslots {
		m.gslots[i] = nil
		m.gok[i] = 0
	}
}

func (m *machine) getBuf(capHint int) []Value {
	if n := len(m.bufs); n > 0 {
		b := m.bufs[n-1]
		m.bufs = m.bufs[:n-1]
		return b
	}
	if capHint < 8 {
		capHint = 8
	}
	return make([]Value, 0, capHint)
}

func (m *machine) putBuf(b []Value) {
	if b == nil {
		return
	}
	for i := range b {
		b[i] = nil
	}
	m.bufs = append(m.bufs, b[:0])
}

func (m *machine) iterPop() {
	n := len(m.iters)
	st := &m.iters[n-1]
	m.putBuf(st.items)
	m.putBuf(st.seconds)
	*st = iterState{}
	m.iters = m.iters[:n-1]
}

// makeIter snapshots an iterable into pooled buffers. A list, a map's keys
// or a string's characters give one value per iteration; the two-variable
// form takes a map's keys and values, or the elements of a list of [a, b]
// pairs. A row cursor (rows.go) already holds its snapshot.
func (m *machine) makeIter(v Value, line int, wantPairs bool) (iterState, error) {
	switch x := v.(type) {
	case *List:
		if wantPairs {
			items, seconds := m.getBuf(len(x.Items)), m.getBuf(len(x.Items))
			for _, it := range x.Items {
				pair, ok := it.(*List)
				if !ok || len(pair.Items) != 2 {
					m.putBuf(items)
					m.putBuf(seconds)
					return iterState{}, errf(ErrOp, line, "two-variable for over a list requires [a, b] pairs, got %s", TypeName(it))
				}
				items = append(items, pair.Items[0])
				seconds = append(seconds, pair.Items[1])
			}
			return iterState{items: items, seconds: seconds}, nil
		}
		return iterState{items: append(m.getBuf(len(x.Items)), x.Items...)}, nil
	case *Map:
		items := append(m.getBuf(len(x.keys)), x.keys...)
		if wantPairs {
			return iterState{items: items, seconds: append(m.getBuf(len(x.vals)), x.vals...)}, nil
		}
		return iterState{items: items}, nil
	case string:
		if wantPairs {
			return iterState{}, errf(ErrOp, line, "cannot unpack string iteration into two variables")
		}
		items := m.getBuf(len(x))
		for _, r := range x {
			items = append(items, string(r))
		}
		return iterState{items: items}, nil
	case *rowCursor:
		return iterState{rows: x}, nil
	default:
		return iterState{}, errf(ErrOp, line, "value of type %s is not iterable", TypeName(v))
	}
}

// globalLoad resolves global idx of code, caching the resolution in the
// run's slot table. A value stored by a script on this Interp wins, then
// the injected host global, then the pre-bound builtin.
func (m *machine) globalLoad(in *Interp, code *Code, idx int32, line int32) (Value, error) {
	if code == m.gcode {
		if m.gok[idx] != 0 {
			return m.gslots[idx], nil
		}
		g := &code.globals[idx]
		// Stores written by a previous run on this Interp win over the
		// injected host globals: global state persists across runs.
		if in.xglobals != nil {
			if v, ok := in.xglobals[g.name]; ok {
				m.gslots[idx] = v
				m.gok[idx] = 1
				return v, nil
			}
		}
		if v, ok := in.host[g.name]; ok {
			m.gslots[idx] = v
			m.gok[idx] = 1
			return v, nil
		}
		if g.builtin != nil {
			m.gslots[idx] = g.builtin
			m.gok[idx] = 1
			return g.builtin, nil
		}
		return nil, errf(ErrName, int(line), "undefined name %q", g.name)
	}
	// A closure compiled under a different Code (a function value injected
	// through the globals, or kept from an earlier run) resolves uncached
	// against its own name table.
	g := &code.globals[idx]
	if v, ok := in.xglobals[g.name]; ok {
		return v, nil
	}
	if v, ok := in.host[g.name]; ok {
		return v, nil
	}
	if g.builtin != nil {
		return g.builtin, nil
	}
	return nil, errf(ErrName, int(line), "undefined name %q", g.name)
}

func (m *machine) globalStore(in *Interp, code *Code, idx int32, line int32, v Value) error {
	g := &code.globals[idx]
	if code == m.gcode {
		if m.gok[idx] == 0 {
			if _, ok := in.host[g.name]; !ok && g.builtin == nil {
				return errf(ErrName, int(line), "cannot assign to undefined variable %q (use let)", g.name)
			}
		}
		m.gslots[idx] = v
		m.gok[idx] = 1
	} else {
		if _, over := in.xglobals[g.name]; !over {
			if _, ok := in.host[g.name]; !ok && g.builtin == nil {
				return errf(ErrName, int(line), "cannot assign to undefined variable %q (use let)", g.name)
			}
		}
	}
	// Mirror the store into the Interp-level store map (never the caller's
	// globals map): slot tables die with the pooled machine at the end of
	// the run, but a later RunProgram on the same Interp must still observe
	// the assignment, and so must a closure compiled under another Code.
	if in.xglobals == nil {
		in.xglobals = map[string]Value{}
	}
	in.xglobals[g.name] = v
	return nil
}

// pushFrame enters a compiled closure whose nargs arguments sit on the
// stack at [base, base+nargs). Depth is checked before arity, matching
// Interp.Call's order.
func (m *machine) pushFrame(in *Interp, f *Closure, nargs, base, retBase, line int) error {
	in.depth++
	if in.depth > in.limits.MaxDepth {
		in.depth--
		return errf(ErrLimit, line, "call depth exceeded (%d)", in.limits.MaxDepth)
	}
	p := f.proto
	if nargs != p.nparams {
		in.depth--
		name := p.name
		if name == "" {
			name = "<lambda>"
		}
		return errf(ErrArg, line, "%s takes %d argument(s), got %d", name, p.nparams, nargs)
	}
	for m.sp < base+p.numSlots {
		m.push(nil)
	}
	for _, slot := range p.cellParams {
		m.stack[base+int(slot)] = &cell{v: m.stack[base+int(slot)]}
	}
	m.frames = append(m.frames, frame{
		proto:    p,
		cl:       f,
		base:     base,
		retBase:  retBase,
		iterBase: len(m.iters),
		depthInc: true,
	})
	return nil
}

// runCode executes a compiled program's top level on this Interp.
func (in *Interp) runCode(code *Code) (Value, error) {
	acquired := false
	if in.m == nil {
		in.m = machinePool.Get().(*machine)
		acquired = true
	}
	m := in.m
	if acquired {
		m.bindGlobals(code)
	}
	depth0 := in.depth
	entry := len(m.frames)
	base := m.sp
	m.frames = append(m.frames, frame{proto: code.main, base: base, retBase: base, iterBase: len(m.iters)})
	for m.sp < base+code.main.numSlots {
		m.push(nil)
	}
	v, err := m.run(in, entry)
	if err != nil {
		in.depth = depth0
	}
	if acquired {
		m.reset()
		machinePool.Put(m)
		in.m = nil
	}
	return v, err
}

// vmCall invokes a compiled closure from outside the instruction loop
// (builtins and host objects calling back through Interp.Call).
func (in *Interp) vmCall(f *Closure, args []Value, line int) (Value, error) {
	acquired := false
	if in.m == nil {
		in.m = machinePool.Get().(*machine)
		in.m.bindGlobals(f.proto.owner)
		acquired = true
	}
	m := in.m
	release := func() {
		if acquired {
			m.reset()
			machinePool.Put(m)
			in.m = nil
		}
	}
	entry := len(m.frames)
	base := m.sp
	depth0 := in.depth
	for _, a := range args {
		m.push(a)
	}
	if err := m.pushFrame(in, f, len(args), base, base, line); err != nil {
		for i := base; i < m.sp; i++ {
			m.stack[i] = nil
		}
		m.sp = base
		release()
		return nil, err
	}
	v, err := m.run(in, entry)
	if err != nil {
		in.depth = depth0
	}
	release()
	return v, err
}

// run executes frames until the frame stack shrinks back to entry. On
// error the frames above entry are abandoned; the caller restores depth and
// the top-level reset reclaims the stack.
func (m *machine) run(in *Interp, entry int) (Value, error) {
	fr := &m.frames[len(m.frames)-1]
	code := fr.proto.owner
	// Hoisted once: with profiling off this is a nil local and every
	// instruction pays exactly one predictable branch (the overhead gated
	// by BenchmarkObsOverhead/disabled and the NQLVM benchdiff watch).
	prof := in.limits.Profile
	for {
		ins := fr.proto.code[fr.pc]
		fr.pc++
		line := int(ins.line)
		if prof != nil {
			prof.note(ins.op)
		}

		// Resource accounting: one step per instruction, with the wall
		// clock and the host context sampled every 4096 steps (the
		// dispatch quantum that bounds how late a cancelled request can
		// return).
		in.steps++
		if in.steps > in.limits.MaxSteps {
			return nil, errf(ErrLimit, line, "step budget exceeded (%d steps)", in.limits.MaxSteps)
		}
		if in.steps&4095 == 0 {
			if err := in.checkpoint(line); err != nil {
				return nil, err
			}
		}

		switch ins.op {
		case opConst:
			m.push(code.consts[ins.a])
		case opNil:
			m.push(nil)
		case opTrue:
			m.push(true)
		case opFalse:
			m.push(false)
		case opPop:
			m.sp--
			m.stack[m.sp] = nil
		case opLoadLocal:
			m.push(m.stack[fr.base+int(ins.a)])
		case opLoadCell:
			m.push(m.stack[fr.base+int(ins.a)].(*cell).v)
		case opLoadFree:
			m.push(fr.cl.free[ins.a].v)
		case opLoadGlobal:
			v, err := m.globalLoad(in, code, ins.a, ins.line)
			if err != nil {
				return nil, err
			}
			m.push(v)
		case opStoreLocal:
			m.sp--
			m.stack[fr.base+int(ins.a)] = m.stack[m.sp]
			m.stack[m.sp] = nil
		case opStoreCell:
			m.sp--
			m.stack[fr.base+int(ins.a)].(*cell).v = m.stack[m.sp]
			m.stack[m.sp] = nil
		case opStoreFree:
			m.sp--
			fr.cl.free[ins.a].v = m.stack[m.sp]
			m.stack[m.sp] = nil
		case opStoreGlobal:
			m.sp--
			v := m.stack[m.sp]
			m.stack[m.sp] = nil
			if err := m.globalStore(in, code, ins.a, ins.line, v); err != nil {
				return nil, err
			}
		case opLetCell:
			m.sp--
			m.stack[fr.base+int(ins.a)] = &cell{v: m.stack[m.sp]}
			m.stack[m.sp] = nil
		case opNeg:
			switch n := m.stack[m.sp-1].(type) {
			case int64:
				// Subtracting two int64s cannot fail; -MinInt64 is 2^63.
				m.stack[m.sp-1], _ = scalar.Arith("-", int64(0), n)
			case float64:
				m.stack[m.sp-1] = -n
			default:
				return nil, errf(ErrOp, line, "cannot negate %s", TypeName(m.stack[m.sp-1]))
			}
		case opNot:
			m.stack[m.sp-1] = !Truthy(m.stack[m.sp-1])
		case opTruthy:
			m.stack[m.sp-1] = Truthy(m.stack[m.sp-1])
		case opAdd, opSub, opMul, opDiv, opMod, opEq, opNe, opLt, opLe, opGt, opGe, opIn:
			m.sp--
			r := m.stack[m.sp]
			m.stack[m.sp] = nil
			l := m.stack[m.sp-1]
			if ins.op == opAdd {
				if err := in.chargeConcat(l, r, line); err != nil {
					return nil, err
				}
			}
			v, err := binaryOp(binOpName[ins.op-opAdd], l, r, line)
			if err != nil {
				return nil, err
			}
			m.stack[m.sp-1] = v
		case opJump:
			fr.pc = int(ins.a)
		case opJumpFalsy:
			m.sp--
			v := m.stack[m.sp]
			m.stack[m.sp] = nil
			if !Truthy(v) {
				fr.pc = int(ins.a)
			}
		case opJumpTruthy:
			m.sp--
			v := m.stack[m.sp]
			m.stack[m.sp] = nil
			if Truthy(v) {
				fr.pc = int(ins.a)
			}
		case opAllocCheck:
			if err := in.alloc(line, int(ins.a)); err != nil {
				return nil, err
			}
		case opMakeList:
			n := int(ins.a)
			items := make([]Value, n)
			copy(items, m.stack[m.sp-n:m.sp])
			for i := m.sp - n; i < m.sp; i++ {
				m.stack[i] = nil
			}
			m.sp -= n
			m.push(&List{Items: items})
		case opMakeMap:
			n := int(ins.a)
			base := m.sp - 2*n
			mp := NewMapCap(n)
			for i := 0; i < n; i++ {
				if err := mp.Set(m.stack[base+2*i], m.stack[base+2*i+1]); err != nil {
					return nil, errf(ErrIndex, line, "%s", err)
				}
			}
			for i := base; i < m.sp; i++ {
				m.stack[i] = nil
			}
			m.sp = base
			m.push(mp)
		case opIndex:
			m.sp--
			idx := m.stack[m.sp]
			m.stack[m.sp] = nil
			v, err := indexValue(m.stack[m.sp-1], idx, line)
			if err != nil {
				return nil, err
			}
			m.stack[m.sp-1] = v
		case opSetIndex:
			idx := m.stack[m.sp-1]
			container := m.stack[m.sp-2]
			v := m.stack[m.sp-3]
			m.stack[m.sp-1], m.stack[m.sp-2], m.stack[m.sp-3] = nil, nil, nil
			m.sp -= 3
			if err := setIndex(container, idx, v, line); err != nil {
				return nil, err
			}
		case opSetAttr:
			container := m.stack[m.sp-1]
			v := m.stack[m.sp-2]
			m.stack[m.sp-1], m.stack[m.sp-2] = nil, nil
			m.sp -= 2
			setter, ok := container.(AttrSettable)
			if !ok {
				return nil, errf(ErrOp, line, "cannot assign attribute %q on %s", code.attrs[ins.a], TypeName(container))
			}
			if err := setter.SetMember(code.attrs[ins.a], v, line); err != nil {
				return nil, err
			}
		case opRowIter:
			if src, ok := m.stack[m.sp-1].(RowSource); ok {
				m.stack[m.sp-1] = rowsBuiltin(src, code.attrs[ins.a])
				break
			}
			fallthrough
		case opAttr:
			v, err := memberOf(m.stack[m.sp-1], code.attrs[ins.a], line)
			if err != nil {
				return nil, err
			}
			m.stack[m.sp-1] = v
		case opCall:
			n := int(ins.a)
			fnPos := m.sp - n - 1
			switch f := m.stack[fnPos].(type) {
			case *Builtin:
				in.depth++
				if in.depth > in.limits.MaxDepth {
					in.depth--
					return nil, errf(ErrLimit, line, "call depth exceeded (%d)", in.limits.MaxDepth)
				}
				var v Value
				var err error
				if prof != nil {
					t0 := time.Now()
					a0 := in.allocs
					v, err = f.Fn(in, line, m.stack[m.sp-n:m.sp])
					prof.noteBuiltin(f.Name, time.Since(t0), in.allocs-a0)
				} else {
					v, err = f.Fn(in, line, m.stack[m.sp-n:m.sp])
				}
				in.depth--
				// The builtin may have re-entered the VM (sorted's key
				// function, frame.apply, ...), growing the frame slice.
				fr = &m.frames[len(m.frames)-1]
				if err != nil {
					return nil, err
				}
				for i := fnPos; i < m.sp; i++ {
					m.stack[i] = nil
				}
				m.sp = fnPos
				m.push(v)
			case *Closure:
				if err := m.pushFrame(in, f, n, fnPos+1, fnPos, line); err != nil {
					return nil, err
				}
				fr = &m.frames[len(m.frames)-1]
				code = fr.proto.owner
			default:
				return nil, errf(ErrOp, line, "%s is not callable", TypeName(m.stack[fnPos]))
			}
		case opClosure:
			p := code.protos[ins.a]
			var free []*cell
			if len(p.captures) > 0 {
				free = make([]*cell, len(p.captures))
				for i, cp := range p.captures {
					if cp.fromLocal {
						free[i] = m.stack[fr.base+int(cp.idx)].(*cell)
					} else {
						free[i] = fr.cl.free[cp.idx]
					}
				}
			}
			m.push(&Closure{Name: p.name, proto: p, free: free})
		case opReturn, opReturnNil:
			var v Value
			if ins.op == opReturn {
				m.sp--
				v = m.stack[m.sp]
				m.stack[m.sp] = nil
			}
			nf := len(m.frames)
			top := &m.frames[nf-1]
			for i := top.retBase; i < m.sp; i++ {
				m.stack[i] = nil
			}
			m.sp = top.retBase
			for len(m.iters) > top.iterBase {
				m.iterPop()
			}
			if top.depthInc {
				in.depth--
			}
			m.frames[nf-1] = frame{}
			m.frames = m.frames[:nf-1]
			if nf-1 == entry {
				return v, nil
			}
			fr = &m.frames[nf-2]
			code = fr.proto.owner
			m.push(v)
		case opIterPrep:
			m.sp--
			it := m.stack[m.sp]
			m.stack[m.sp] = nil
			st, err := m.makeIter(it, line, ins.a == 1)
			if err != nil {
				return nil, err
			}
			m.iters = append(m.iters, st)
		case opRowNext:
			st := &m.iters[len(m.iters)-1]
			if c := st.rows; c != nil {
				if st.i >= c.n {
					m.iterPop()
					fr.pc = int(ins.a)
				} else {
					c.next(st.i)
					m.push(c)
					st.i++
				}
				break
			}
			fallthrough
		case opIterNext:
			st := &m.iters[len(m.iters)-1]
			if st.i >= len(st.items) {
				m.iterPop()
				fr.pc = int(ins.a)
			} else {
				m.push(st.items[st.i])
				st.i++
			}
		case opIterNextPair:
			st := &m.iters[len(m.iters)-1]
			if st.i >= len(st.items) {
				m.iterPop()
				fr.pc = int(ins.a)
			} else {
				m.push(st.items[st.i])
				m.push(st.seconds[st.i])
				st.i++
			}
		case opIterPop:
			m.iterPop()
		default:
			return nil, errf(ErrInternal, line, "unknown opcode %d", ins.op)
		}
	}
}

// chargeConcat charges the length of a string or list concatenation's
// result to the allocation budget. Without it a loop that doubles a value
// (`s = s + s`) exhausts memory long before the step budget runs out.
func (in *Interp) chargeConcat(l, r Value, line int) error {
	switch a := l.(type) {
	case string:
		if b, ok := r.(string); ok {
			return in.alloc(line, len(a)+len(b))
		}
	case *List:
		if b, ok := r.(*List); ok {
			return in.alloc(line, len(a.Items)+len(b.Items))
		}
	}
	return nil
}
