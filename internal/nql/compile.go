// Package nql implements the Network Query Language the framework's LLMs
// generate: lexer, parser, bytecode compiler and VM. A parsed Program is
// compiled once into slot-based bytecode (Program.Compiled, cached on the
// Program, which the sandbox in turn caches by source) and executed on a
// pooled stack VM (vm.go): identifiers resolve to frame-local slot indices
// at compile time, literals are boxed once into a constant pool, builtins
// are pre-bound per global reference, and the VM's stacks, frames and
// iterator snapshots are recycled via sync.Pool so steady-state execution
// of a cached program allocates almost nothing. The pinned corpora in
// vm_test.go and internal/nemoeval's golden pins define the language's
// observable behaviour: values, stdout, error strings and post-run state.
//
// Two layouts carry the hot paths of generated code. A Map keeps its keys
// and values in insertion order, which is all iteration and Repr read; past
// eight keys it adds an open-addressed index, a power-of-two []int32 whose
// slots hold an entry position plus one (0 is empty), probed linearly and
// rebuilt at half load, so no output depends on its hash seed. A for loop
// over x.records() or x.to_records() whose body reads its variable only as
// var["literal"] (never assigned, shadowed, written through, or mentioned
// in a lambda or func; rowForm in rows.go) compiles to a row form: when x
// is a RowSource the VM iterates a snapshot of its rows, taken at loop
// start like the list records() returns, and reads each field in place.
// It runs the same instructions as the materializing path, which any other
// receiver still takes, so Steps and every limit read the same.
package nql

import "fmt"

// opcode is one VM instruction kind.
type opcode uint8

const (
	opConst       opcode = iota // push consts[a]
	opNil                       // push nil
	opTrue                      // push true
	opFalse                     // push false
	opPop                       // drop top
	opLoadLocal                 // push locals[a]
	opLoadCell                  // push locals[a].(*cell).v
	opLoadFree                  // push closure.free[a].v
	opLoadGlobal                // push resolved global a
	opStoreLocal                // locals[a] = pop
	opStoreCell                 // locals[a].(*cell).v = pop
	opStoreFree                 // closure.free[a].v = pop
	opStoreGlobal               // global a = pop (must already be bound)
	opLetCell                   // locals[a] = &cell{v: pop} (fresh cell per execution)
	opNeg                       // top = -top
	opNot                       // top = !Truthy(top)
	opTruthy                    // top = Truthy(top)
	opAdd                       // binary operators: pop r, l; push l OP r
	opSub
	opMul
	opDiv
	opMod
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opIn
	opJump         // pc = a
	opJumpFalsy    // pop; if !Truthy pc = a
	opJumpTruthy   // pop; if Truthy pc = a
	opAllocCheck   // charge a container elements against the alloc budget
	opMakeList     // pop a items; push *List
	opMakeMap      // pop a key/value pairs; push *Map
	opIndex        // pop idx, c; push c[idx]
	opSetIndex     // pop idx, c, v; c[idx] = v
	opSetAttr      // pop c, v; c.<attrs[a]> = v
	opAttr         // pop c; push member c.<attrs[a]>
	opRowIter      // opAttr, or for a RowSource: push its records builtin, which returns a row cursor
	opCall         // pop a args + callee; push result (or enter frame)
	opClosure      // push closure over protos[a]
	opReturn       // pop v; leave frame with v
	opReturnNil    // leave frame with nil
	opIterPrep     // pop iterable; push iterator (a=1: two-variable form)
	opIterNext     // push next item, or pop iterator and jump to a
	opIterNextPair // push next item+second, or pop iterator and jump to a
	opIterPop      // discard innermost iterator (break out of a for loop)
	opRowNext      // opIterNext of a loop in row form: point the row cursor at the next row and push it
)

// binOpName maps opAdd..opIn to the operator spelling binaryOp takes and
// its error messages print.
var binOpName = [...]string{"+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "in"}

// instr is one VM instruction; line carries the source line for errors and
// resource accounting.
type instr struct {
	op   opcode
	a    int32
	line int32
}

// Code is a compiled program: the top-level function plus the tables every
// function proto of the program shares. A Code is immutable after
// compilation and safe for concurrent execution by any number of VMs.
type Code struct {
	main    *FuncProto
	consts  []Value // pre-boxed literal pool
	protos  []*FuncProto
	attrs   []string    // attribute names for opAttr/opSetAttr
	globals []globalRef // global name table with pre-bound builtins
}

// globalRef is one referenced global name. builtin holds the standard
// library binding pre-resolved at compile time (nil when the name is not a
// builtin); script stores and host globals are resolved per run and take
// precedence, in that order.
type globalRef struct {
	name    string
	builtin *Builtin
}

// FuncProto is the compiled form of one function body (or the top level).
type FuncProto struct {
	owner      *Code
	code       []instr
	name       string // "" for lambdas, "<main>" for the top level
	nparams    int
	numSlots   int       // frame size, params included
	cellParams []int32   // param slots that must be boxed into cells on entry
	captures   []capture // how to assemble the closure's free-variable cells
}

// capture tells opClosure where one free-variable cell comes from: the
// creating frame's locals (fromLocal) or the creating closure's own free
// list (a variable captured through an intermediate function).
type capture struct {
	fromLocal bool
	idx       int32
}

// Compiled returns the program's bytecode, compiling on first use. The
// result is cached on the Program, so the sandbox's source-keyed program
// cache transparently becomes a bytecode cache.
func (p *Program) Compiled() (*Code, error) {
	p.compileOnce.Do(func() {
		p.code, p.compileErr = compileProgram(p)
	})
	return p.code, p.compileErr
}

// compileError marks an internal compiler failure (a malformed AST); it is
// surfaced as an internal-class runtime error.
type compileError struct{ msg string }

func (e compileError) Error() string { return "nql: compile: " + e.msg }

func compilePanicf(format string, args ...any) compileError {
	return compileError{msg: fmt.Sprintf(format, args...)}
}

func compileProgram(p *Program) (code *Code, err error) {
	defer func() {
		if r := recover(); r != nil {
			ce, ok := r.(compileError)
			if !ok {
				panic(r)
			}
			code, err = nil, &RuntimeError{Class: ErrInternal, Line: 0, Msg: ce.Error()}
		}
	}()
	c := &compiler{
		code:     &Code{},
		constIdx: map[constKey]int32{},
		globIdx:  map[string]int32{},
		attrIdx:  map[string]int32{},
	}
	f := &fnc{c: c, proto: &FuncProto{owner: c.code, name: "<main>"}}
	f.pushBlock()
	f.compileBlock(p.Stmts)
	f.emit(opReturnNil, 0, lastLine(p.Stmts))
	c.code.main = f.proto
	return c.code, nil
}

func lastLine(stmts []Stmt) int {
	if len(stmts) == 0 {
		return 1
	}
	return stmts[len(stmts)-1].Pos()
}

// compiler holds the per-Code interning tables.
type compiler struct {
	code     *Code
	constIdx map[constKey]int32
	globIdx  map[string]int32
	attrIdx  map[string]int32
}

type constKey struct {
	kind byte // 'i', 'f' or 's'
	i    int64
	f    float64
	s    string
}

func (c *compiler) constIndex(v Value) int32 {
	var key constKey
	switch x := v.(type) {
	case int64:
		key = constKey{kind: 'i', i: x}
	case float64:
		key = constKey{kind: 'f', f: x}
	case string:
		key = constKey{kind: 's', s: x}
	default:
		panic(compilePanicf("unsupported constant %T", v))
	}
	if i, ok := c.constIdx[key]; ok {
		return i
	}
	i := int32(len(c.code.consts))
	c.code.consts = append(c.code.consts, v)
	c.constIdx[key] = i
	return i
}

func (c *compiler) globalIndex(name string) int32 {
	if i, ok := c.globIdx[name]; ok {
		return i
	}
	i := int32(len(c.code.globals))
	c.code.globals = append(c.code.globals, globalRef{name: name, builtin: builtins[name]})
	c.globIdx[name] = i
	return i
}

func (c *compiler) attrIndex(name string) int32 {
	if i, ok := c.attrIdx[name]; ok {
		return i
	}
	i := int32(len(c.code.attrs))
	c.code.attrs = append(c.code.attrs, name)
	c.attrIdx[name] = i
	return i
}

// binding is one declared variable within a function being compiled. sites
// records every instruction that touches it so that, when a nested function
// captures it later, those instructions are patched to their cell variants.
type binding struct {
	slot     int32
	captured bool
	sites    []site
}

type siteKind uint8

const (
	siteLoad siteKind = iota
	siteStore
	siteLet
)

type site struct {
	pc   int
	kind siteKind
}

type loopCtx struct {
	isFor  bool
	contPC int   // continue jump target
	breaks []int // opJump instructions to patch to the loop end
}

// fnc compiles one function body. Lexical blocks are compile-time only:
// each declaration gets a fresh frame slot, so shadowing needs no runtime
// scope chain. Name resolution is lexical and sequential: a reference binds
// to the declaration that textually precedes it, so a closure naming a
// variable that an enclosing block declares only after the closure
// resolves that name as a global.
type fnc struct {
	c      *compiler
	parent *fnc
	proto  *FuncProto
	blocks []map[string]*binding
	params []*binding
	frees  []string
	loops  []loopCtx
}

func (f *fnc) emit(op opcode, a int32, line int) int {
	f.proto.code = append(f.proto.code, instr{op: op, a: a, line: int32(line)})
	return len(f.proto.code) - 1
}

// patch points a forward jump at the next instruction to be emitted.
func (f *fnc) patch(pc int) { f.proto.code[pc].a = int32(len(f.proto.code)) }

func (f *fnc) pushBlock() { f.blocks = append(f.blocks, map[string]*binding{}) }
func (f *fnc) popBlock()  { f.blocks = f.blocks[:len(f.blocks)-1] }

// declare binds name in the innermost block; reused reports that the block
// already declared it (re-let overwrites the same storage).
func (f *fnc) declare(name string) (b *binding, reused bool) {
	blk := f.blocks[len(f.blocks)-1]
	if b, ok := blk[name]; ok {
		return b, true
	}
	b = &binding{slot: int32(f.proto.numSlots)}
	f.proto.numSlots++
	blk[name] = b
	return b, false
}

func (f *fnc) lookupLocal(name string) *binding {
	for i := len(f.blocks) - 1; i >= 0; i-- {
		if b, ok := f.blocks[i][name]; ok {
			return b
		}
	}
	return nil
}

// markCaptured flags a binding as cell-backed and rewrites every
// already-emitted instruction touching it to the cell variant.
func (f *fnc) markCaptured(b *binding) {
	if b.captured {
		return
	}
	b.captured = true
	for _, s := range b.sites {
		in := &f.proto.code[s.pc]
		switch s.kind {
		case siteLoad:
			in.op = opLoadCell
		case siteStore:
			in.op = opStoreCell
		case siteLet:
			in.op = opLetCell
		}
	}
	for _, pb := range f.params {
		if pb == b {
			f.proto.cellParams = append(f.proto.cellParams, b.slot)
		}
	}
}

// resolveFree resolves name as a captured variable of this function,
// threading the capture through intermediate functions as needed.
func (f *fnc) resolveFree(name string) (int32, bool) {
	for i, n := range f.frees {
		if n == name {
			return int32(i), true
		}
	}
	if f.parent == nil {
		return 0, false
	}
	if b := f.parent.lookupLocal(name); b != nil {
		f.parent.markCaptured(b)
		f.frees = append(f.frees, name)
		f.proto.captures = append(f.proto.captures, capture{fromLocal: true, idx: b.slot})
		return int32(len(f.frees) - 1), true
	}
	if idx, ok := f.parent.resolveFree(name); ok {
		f.frees = append(f.frees, name)
		f.proto.captures = append(f.proto.captures, capture{fromLocal: false, idx: idx})
		return int32(len(f.frees) - 1), true
	}
	return 0, false
}

func (f *fnc) emitLoad(name string, line int) {
	if b := f.lookupLocal(name); b != nil {
		op := opLoadLocal
		if b.captured {
			op = opLoadCell
		}
		pc := f.emit(op, b.slot, line)
		b.sites = append(b.sites, site{pc: pc, kind: siteLoad})
		return
	}
	if idx, ok := f.resolveFree(name); ok {
		f.emit(opLoadFree, idx, line)
		return
	}
	f.emit(opLoadGlobal, f.c.globalIndex(name), line)
}

// emitStore compiles assignment to an existing binding (never declares).
func (f *fnc) emitStore(name string, line int) {
	if b := f.lookupLocal(name); b != nil {
		op := opStoreLocal
		if b.captured {
			op = opStoreCell
		}
		pc := f.emit(op, b.slot, line)
		b.sites = append(b.sites, site{pc: pc, kind: siteStore})
		return
	}
	if idx, ok := f.resolveFree(name); ok {
		f.emit(opStoreFree, idx, line)
		return
	}
	f.emit(opStoreGlobal, f.c.globalIndex(name), line)
}

// emitLet compiles `let name = <top of stack>`. A fresh declaration of a
// captured variable creates a new cell per execution — that is what gives
// loop bodies their per-iteration capture semantics.
func (f *fnc) emitLet(name string, line int) {
	b, reused := f.declare(name)
	kind := siteLet
	op := opStoreLocal
	switch {
	case reused && b.captured:
		kind, op = siteStore, opStoreCell
	case reused:
		kind = siteStore
	case b.captured:
		// Unreachable in practice (a fresh binding cannot be captured yet),
		// kept for safety.
		op = opLetCell
	}
	pc := f.emit(op, b.slot, line)
	b.sites = append(b.sites, site{pc: pc, kind: kind})
}

func (f *fnc) compileBlock(stmts []Stmt) {
	for _, st := range stmts {
		f.compileStmt(st)
	}
}

func (f *fnc) compileStmt(st Stmt) {
	switch s := st.(type) {
	case *LetStmt:
		f.compileExpr(s.Init)
		f.emitLet(s.Name, s.Line)
	case *AssignStmt:
		// The assigned value is evaluated before the target's container
		// and index.
		f.compileExpr(s.Value)
		switch t := s.Target.(type) {
		case *Ident:
			f.emitStore(t.Name, s.Line)
		case *IndexExpr:
			f.compileExpr(t.X)
			f.compileExpr(t.Index)
			f.emit(opSetIndex, 0, s.Line)
		case *AttrExpr:
			f.compileExpr(t.X)
			f.emit(opSetAttr, f.c.attrIndex(t.Name), s.Line)
		default:
			panic(compilePanicf("bad assignment target %T", s.Target))
		}
	case *ExprStmt:
		f.compileExpr(s.X)
		f.emit(opPop, 0, s.Line)
	case *IfStmt:
		f.compileExpr(s.Cond)
		jElse := f.emit(opJumpFalsy, 0, s.Line)
		f.pushBlock()
		f.compileBlock(s.Then)
		f.popBlock()
		if s.Else == nil {
			f.patch(jElse)
			return
		}
		jEnd := f.emit(opJump, 0, s.Line)
		f.patch(jElse)
		f.pushBlock()
		f.compileBlock(s.Else)
		f.popBlock()
		f.patch(jEnd)
	case *WhileStmt:
		start := len(f.proto.code)
		f.compileExpr(s.Cond)
		jEnd := f.emit(opJumpFalsy, 0, s.Line)
		f.loops = append(f.loops, loopCtx{contPC: start})
		f.pushBlock()
		f.compileBlock(s.Body)
		f.popBlock()
		f.emit(opJump, int32(start), s.Line)
		lp := f.loops[len(f.loops)-1]
		f.loops = f.loops[:len(f.loops)-1]
		f.patch(jEnd)
		for _, br := range lp.breaks {
			f.patch(br)
		}
	case *ForStmt:
		attr, rowLoop := rowForm(s)
		if rowLoop {
			f.compileExpr(attr.X)
			f.emit(opRowIter, f.c.attrIndex(attr.Name), attr.Line)
			f.emit(opCall, 0, s.Iter.Pos())
		} else {
			f.compileExpr(s.Iter)
		}
		pairs := int32(0)
		if s.Var2 != "" {
			pairs = 1
		}
		f.emit(opIterPrep, pairs, s.Line)
		next := len(f.proto.code)
		f.pushBlock()
		var jEnd int
		if s.Var2 != "" {
			jEnd = f.emit(opIterNextPair, 0, s.Line)
			f.emitLet(s.Var2, s.Line) // second value is on top
			f.emitLet(s.Var, s.Line)
		} else {
			op := opIterNext
			if rowLoop {
				op = opRowNext
			}
			jEnd = f.emit(op, 0, s.Line)
			f.emitLet(s.Var, s.Line)
		}
		f.loops = append(f.loops, loopCtx{isFor: true, contPC: next})
		f.compileBlock(s.Body)
		f.popBlock()
		f.emit(opJump, int32(next), s.Line)
		lp := f.loops[len(f.loops)-1]
		f.loops = f.loops[:len(f.loops)-1]
		f.patch(jEnd)
		for _, br := range lp.breaks {
			f.patch(br)
		}
	case *FuncStmt:
		// Bind the name before compiling the body so recursion resolves to
		// this binding; seed the slot with nil, then overwrite with the
		// closure. The two stores are patched to cell variants when the body
		// (or a later closure) captures the function itself.
		f.emit(opNil, 0, s.Line)
		f.emitLet(s.Name, s.Line)
		idx := f.compileFunction(s.Name, s.Params, s.Body, nil, s.Line)
		f.emit(opClosure, idx, s.Line)
		f.emitStore(s.Name, s.Line)
	case *ReturnStmt:
		if s.Value == nil {
			f.emit(opReturnNil, 0, s.Line)
			return
		}
		f.compileExpr(s.Value)
		f.emit(opReturn, 0, s.Line)
	case *BreakStmt:
		if len(f.loops) == 0 {
			// break or continue outside a loop ends the function (or the
			// script) with nil.
			f.emit(opReturnNil, 0, s.Line)
			return
		}
		lp := &f.loops[len(f.loops)-1]
		if lp.isFor {
			f.emit(opIterPop, 0, s.Line)
		}
		lp.breaks = append(lp.breaks, f.emit(opJump, 0, s.Line))
	case *ContinueStmt:
		if len(f.loops) == 0 {
			f.emit(opReturnNil, 0, s.Line)
			return
		}
		f.emit(opJump, int32(f.loops[len(f.loops)-1].contPC), s.Line)
	default:
		panic(compilePanicf("unknown statement %T", st))
	}
}

func (f *fnc) compileFunction(name string, params []string, body []Stmt, expr Expr, line int) int32 {
	nf := &fnc{
		c:      f.c,
		parent: f,
		proto:  &FuncProto{owner: f.c.code, name: name, nparams: len(params)},
	}
	nf.pushBlock()
	for i, p := range params {
		// Every parameter owns its positional slot; a repeated name rebinds
		// to the later slot (the last duplicate argument wins).
		b := &binding{slot: int32(i)}
		nf.blocks[0][p] = b
		nf.params = append(nf.params, b)
	}
	nf.proto.numSlots = len(params)
	if expr != nil { // lambda
		nf.compileExpr(expr)
		nf.emit(opReturn, 0, line)
	} else {
		nf.compileBlock(body)
		nf.emit(opReturnNil, 0, lastLine(body))
	}
	f.c.code.protos = append(f.c.code.protos, nf.proto)
	return int32(len(f.c.code.protos) - 1)
}

func (f *fnc) compileExpr(e Expr) {
	switch x := e.(type) {
	case *IntLit:
		f.emit(opConst, f.c.constIndex(x.Value), x.Line)
	case *FloatLit:
		f.emit(opConst, f.c.constIndex(x.Value), x.Line)
	case *StringLit:
		f.emit(opConst, f.c.constIndex(x.Value), x.Line)
	case *BoolLit:
		if x.Value {
			f.emit(opTrue, 0, x.Line)
		} else {
			f.emit(opFalse, 0, x.Line)
		}
	case *NilLit:
		f.emit(opNil, 0, x.Line)
	case *Ident:
		f.emitLoad(x.Name, x.Line)
	case *ListLit:
		// The alloc budget is charged before the items are evaluated, so a
		// budget error wins over any error the items raise.
		f.emit(opAllocCheck, int32(len(x.Items)), x.Line)
		for _, it := range x.Items {
			f.compileExpr(it)
		}
		f.emit(opMakeList, int32(len(x.Items)), x.Line)
	case *MapLit:
		f.emit(opAllocCheck, int32(len(x.Keys)), x.Line)
		for i := range x.Keys {
			f.compileExpr(x.Keys[i])
			f.compileExpr(x.Values[i])
		}
		f.emit(opMakeMap, int32(len(x.Keys)), x.Line)
	case *UnaryExpr:
		f.compileExpr(x.X)
		switch x.Op {
		case "-":
			f.emit(opNeg, 0, x.Line)
		case "not":
			f.emit(opNot, 0, x.Line)
		default:
			panic(compilePanicf("unknown unary op %q", x.Op))
		}
	case *BinaryExpr:
		switch x.Op {
		case "and":
			f.compileExpr(x.Left)
			jFalse := f.emit(opJumpFalsy, 0, x.Line)
			f.compileExpr(x.Right)
			f.emit(opTruthy, 0, x.Line)
			jEnd := f.emit(opJump, 0, x.Line)
			f.patch(jFalse)
			f.emit(opFalse, 0, x.Line)
			f.patch(jEnd)
		case "or":
			f.compileExpr(x.Left)
			jTrue := f.emit(opJumpTruthy, 0, x.Line)
			f.compileExpr(x.Right)
			f.emit(opTruthy, 0, x.Line)
			jEnd := f.emit(opJump, 0, x.Line)
			f.patch(jTrue)
			f.emit(opTrue, 0, x.Line)
			f.patch(jEnd)
		default:
			f.compileExpr(x.Left)
			f.compileExpr(x.Right)
			f.emit(binOpcode(x.Op), 0, x.Line)
		}
	case *IndexExpr:
		f.compileExpr(x.X)
		f.compileExpr(x.Index)
		f.emit(opIndex, 0, x.Line)
	case *AttrExpr:
		f.compileExpr(x.X)
		f.emit(opAttr, f.c.attrIndex(x.Name), x.Line)
	case *CallExpr:
		f.compileExpr(x.Fn)
		for _, a := range x.Args {
			f.compileExpr(a)
		}
		f.emit(opCall, int32(len(x.Args)), x.Line)
	case *LambdaExpr:
		idx := f.compileFunction("", x.Params, nil, x.Body, x.Line)
		f.emit(opClosure, idx, x.Line)
	default:
		panic(compilePanicf("unknown expression %T", e))
	}
}

func binOpcode(op string) opcode {
	switch op {
	case "+":
		return opAdd
	case "-":
		return opSub
	case "*":
		return opMul
	case "/":
		return opDiv
	case "%":
		return opMod
	case "==":
		return opEq
	case "!=":
		return opNe
	case "<":
		return opLt
	case "<=":
		return opLe
	case ">":
		return opGt
	case ">=":
		return opGe
	case "in":
		return opIn
	}
	panic(compilePanicf("unknown operator %q", op))
}
