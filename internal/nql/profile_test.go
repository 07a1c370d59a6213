package nql

import "testing"

const profileSrc = `
let total = 0
let xs = []
for i in range(2000) {
	push(xs, i * 2)
}
for x in xs {
	if x % 3 == 0 {
		total = total + x
	}
}
return total
`

func TestVMProfileCollects(t *testing.T) {
	prof := NewVMProfile()
	in := NewInterp(Limits{Profile: prof}, nil)
	v, err := in.Run(profileSrc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep := prof.Report()
	classes := map[string]OpClassStat{}
	var totalOps int64
	for _, c := range rep.Opcodes {
		classes[c.Class] = c
		totalOps += c.Count
	}
	for _, want := range []string{"load", "arith", "jump", "iter", "call", "store"} {
		if classes[want].Count == 0 {
			t.Fatalf("class %q never counted; report: %+v", want, rep.Opcodes)
		}
	}
	if totalOps < 2000 {
		t.Fatalf("total opcode count = %d, implausibly low for the loop program", totalOps)
	}
	builtins := map[string]BuiltinStat{}
	for _, b := range rep.Builtins {
		builtins[b.Name] = b
	}
	if got := builtins["push"].Calls; got != 2000 {
		t.Fatalf("push calls = %d, want 2000", got)
	}
	if got := builtins["range"].Calls; got != 1 {
		t.Fatalf("range calls = %d, want 1", got)
	}
	if builtins["range"].Allocs == 0 {
		t.Fatal("range charged no allocation budget in the profile")
	}
	// Same result with profiling off: the hooks must not change semantics.
	plain := NewInterp(Limits{}, nil)
	v2, err := plain.Run(profileSrc)
	if err != nil {
		t.Fatalf("unprofiled Run: %v", err)
	}
	if v != v2 {
		t.Fatalf("profiled result %v != unprofiled %v", v, v2)
	}
}

// TestCallBuiltinProfile covers builtins a builtin calls back through
// Interp.Call (here len as sorted's key function): they are profiled like
// builtins the VM calls directly.
func TestCallBuiltinProfile(t *testing.T) {
	prof := NewVMProfile()
	in := NewInterp(Limits{Profile: prof}, nil)
	v, err := in.Run(`return sorted([[1, 2], [3], []], len)`)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if Repr(v) != "[[], [3], [1, 2]]" {
		t.Fatalf("got %s", Repr(v))
	}
	names := map[string]int64{}
	for _, b := range prof.Report().Builtins {
		names[b.Name] = b.Calls
	}
	if names["sorted"] != 1 || names["len"] != 3 {
		t.Fatalf("builtin profile calls = %v, want sorted once and len three times", names)
	}
}

func TestVMProfileReportDeterministicOrder(t *testing.T) {
	prof := NewVMProfile()
	in := NewInterp(Limits{Profile: prof}, nil)
	if _, err := in.Run(profileSrc); err != nil {
		t.Fatalf("Run: %v", err)
	}
	a, b := prof.Report(), prof.Report()
	if len(a.Opcodes) != len(b.Opcodes) || len(a.Builtins) != len(b.Builtins) {
		t.Fatal("report lengths differ between calls")
	}
	for i := range a.Opcodes {
		if a.Opcodes[i] != b.Opcodes[i] {
			t.Fatalf("opcode order not deterministic at %d: %+v vs %+v", i, a.Opcodes[i], b.Opcodes[i])
		}
	}
	for i := range a.Builtins {
		if a.Builtins[i] != b.Builtins[i] {
			t.Fatalf("builtin order not deterministic at %d", i)
		}
	}
	if (*VMProfile)(nil).Report() != nil {
		t.Fatal("nil profile report not nil")
	}
}
