package sem

import (
	"testing"

	"selgen/internal/bv"
)

func TestKindCompatibility(t *testing.T) {
	if !KindImm.Compatible(KindValue) || !KindValue.Compatible(KindImm) {
		t.Fatalf("Imm and Value must be compatible")
	}
	if KindMem.Compatible(KindValue) || KindBool.Compatible(KindValue) {
		t.Fatalf("Mem/Bool must not unify with Value")
	}
	if !KindMem.Compatible(KindMem) {
		t.Fatalf("kinds are self-compatible")
	}
	if KindValue.String() != "Value" || KindMem.String() != "M" ||
		KindBool.String() != "Bool" || KindImm.String() != "Imm" {
		t.Fatalf("kind names wrong")
	}
}

func testAdd() *Instr {
	return &Instr{
		Name:    "t.add",
		Args:    []Kind{KindValue, KindValue},
		Results: []Kind{KindValue},
		Sem: func(ctx *Ctx, va, vi []*bv.Term) Effect {
			return Effect{Results: []*bv.Term{ctx.B.BvAdd(va[0], va[1])}}
		},
	}
}

func TestApplyArityChecks(t *testing.T) {
	b := bv.NewBuilder()
	ctx := &Ctx{B: b, Width: 8}
	in := testAdd()
	defer func() {
		if recover() == nil {
			t.Fatalf("wrong arity must panic")
		}
	}()
	in.Apply(ctx, []*bv.Term{b.Const(1, 8)}, nil)
}

func TestCtxSorts(t *testing.T) {
	b := bv.NewBuilder()
	ctx := &Ctx{B: b, Width: 16}
	if ctx.WordSort().Width != 16 {
		t.Fatalf("word sort")
	}
	if ctx.SortOf(KindBool) != bv.Bool {
		t.Fatalf("bool sort")
	}
	if ctx.SortOf(KindImm).Width != 16 {
		t.Fatalf("imm sort")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("KindMem without model must panic")
		}
	}()
	ctx.SortOf(KindMem)
}

func TestInstrHelpers(t *testing.T) {
	in := testAdd()
	if in.AccessesMemory() || in.HasKind(KindBool) {
		t.Fatalf("pure add misclassified")
	}
	if in.CostOrDefault() != 1 {
		t.Fatalf("default cost")
	}
	in.Cost = 3
	if in.CostOrDefault() != 3 {
		t.Fatalf("explicit cost")
	}
	if in.String() != "t.add" {
		t.Fatalf("string")
	}
	b := bv.NewBuilder()
	ctx := &Ctx{B: b, Width: 8}
	args := in.FreshArgs(ctx, "q")
	if len(args) != 2 || args[0].Name != "q0" || args[1].Sort.Width != 8 {
		t.Fatalf("fresh args: %v", args)
	}
	if n := len(in.FreshInternals(ctx, "i")); n != 0 {
		t.Fatalf("internals: %d", n)
	}
}

func TestConcreteMem(t *testing.T) {
	b := bv.NewBuilder()
	cm := NewConcreteMem(b, 8, nil)
	m := b.Const(0, 1)
	m1, _ := cm.St(m, b.Const(0x10, 8), b.Const(0xAB, 8))
	_, v, valid := cm.Ld(m1, b.Const(0x10, 8))
	if bv.Eval(v, nil) != 0xAB || bv.Eval(valid, nil) != 1 {
		t.Fatalf("round trip: %#x", bv.Eval(v, nil))
	}
	if cm.Loads != 1 || cm.Stores != 1 {
		t.Fatalf("access counters: %d %d", cm.Loads, cm.Stores)
	}
	// Unwritten cells read zero.
	_, v2, _ := cm.Ld(m, b.Const(0x77, 8))
	if bv.Eval(v2, nil) != 0 {
		t.Fatalf("default cell: %#x", bv.Eval(v2, nil))
	}
	if cm.ByteWidth() != 8 || cm.Sort().Width != 1 {
		t.Fatalf("metadata")
	}
}

func TestConcreteMemRejectsSymbolicPointer(t *testing.T) {
	b := bv.NewBuilder()
	cm := NewConcreteMem(b, 8, nil)
	p := b.Var("p", bv.BitVec(8))
	defer func() {
		if recover() == nil {
			t.Fatalf("symbolic pointer must panic")
		}
	}()
	cm.Ld(b.Const(0, 1), p)
}
