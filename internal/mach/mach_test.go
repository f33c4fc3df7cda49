package mach

import (
	"strings"
	"testing"

	"selgen/internal/x86"
)

const w = 8

func TestBuildAndExec(t *testing.T) {
	p := NewProgram("f", w, 2)
	add := x86.AddInstr()
	sum := p.NewValue()
	p.Append(add, []Value{0, 1}, []Value{sum})
	neg := x86.Neg()
	out := p.NewValue()
	p.Append(neg, []Value{sum}, []Value{out})
	p.Rets = []Value{out}

	res, err := p.Exec([]uint64{10, 20}, nil)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	want := uint64(256 - 30) // -(10+20) mod 256
	if res.Values[0] != want {
		t.Fatalf("got %#x, want %#x", res.Values[0], want)
	}
	if res.Cycles != add.CostOrDefault()+neg.CostOrDefault() {
		t.Fatalf("cycles: %d", res.Cycles)
	}
	if p.Size() != 2 {
		t.Fatalf("size: %d", p.Size())
	}
}

func TestImmediateOperands(t *testing.T) {
	p := NewProgram("f", w, 1)
	addi := x86.Imm(x86.AddInstr())
	out := p.NewValue()
	p.Append(addi, []Value{0, 0}, []Value{out}, Imm{Arg: 1, Val: 5})
	p.Rets = []Value{out}
	res, err := p.Exec([]uint64{37}, nil)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	if res.Values[0] != 42 {
		t.Fatalf("got %d", res.Values[0])
	}
}

func TestMemoryInstructions(t *testing.T) {
	p := NewProgram("f", w, 2) // p0 = address, p1 = value
	am := x86.AM{Base: true}
	st := x86.MovStore(am)
	mem0 := p.NewValue()
	mem1 := p.NewValue()
	p.Append(st, []Value{mem0, 0, 1}, []Value{mem1})
	ld := x86.MovLoad(am)
	mem2 := p.NewValue()
	out := p.NewValue()
	p.Append(ld, []Value{mem1, 0}, []Value{mem2, out})
	p.Rets = []Value{out}

	res, err := p.Exec([]uint64{0x30, 0x77}, nil)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	if res.Values[0] != 0x77 {
		t.Fatalf("store/load round trip: %#x", res.Values[0])
	}
	if res.Mem[0x30] != 0x77 {
		t.Fatalf("final memory: %#x", res.Mem[0x30])
	}
}

func TestUndefinedValueFails(t *testing.T) {
	p := NewProgram("f", w, 0)
	out := p.NewValue()
	bogus := p.NewValue()
	p.Append(x86.Neg(), []Value{bogus}, []Value{out})
	p.Rets = []Value{out}
	if _, err := p.Exec(nil, nil); err == nil {
		t.Fatalf("use of undefined value must fail")
	}
}

func TestParamMismatchFails(t *testing.T) {
	p := NewProgram("f", w, 2)
	if _, err := p.Exec([]uint64{1}, nil); err == nil {
		t.Fatalf("param count mismatch must fail")
	}
}

func TestStringRendering(t *testing.T) {
	p := NewProgram("f", w, 1)
	out := p.NewValue()
	p.Append(x86.Imm(x86.AddInstr()), []Value{0, 0}, []Value{out}, Imm{Arg: 1, Val: 9})
	p.Rets = []Value{out}
	s := p.String()
	if !strings.Contains(s, "add.imm") || !strings.Contains(s, "$9") {
		t.Fatalf("rendering: %s", s)
	}
}

// TestTwoImmediates pins both operands of one instruction, listed out
// of argument order: Exec and String must both read each immediate by
// its argument index.
func TestTwoImmediates(t *testing.T) {
	p := NewProgram("f", w, 0)
	out := p.NewValue()
	p.Append(x86.SubInstr(), []Value{0, 0}, []Value{out}, Imm{Arg: 1, Val: 4}, Imm{Arg: 0, Val: 9})
	p.Rets = []Value{out}
	res, err := p.Exec(nil, nil)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	if res.Values[0] != 5 {
		t.Fatalf("sub $9 $4: got %d, want 5", res.Values[0])
	}
	want := "program f (0 params) {\n  sub $9 $4 -> r0\n  ret r0\n}"
	if s := p.String(); s != want {
		t.Fatalf("rendering:\n%s\nwant:\n%s", s, want)
	}
	if _, ok := p.Imm(0, 2); ok {
		t.Fatalf("argument 2 has no immediate")
	}
}
