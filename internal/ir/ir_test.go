package ir

import (
	"testing"
	"testing/quick"

	"selgen/internal/bv"
	"selgen/internal/memmodel"
	"selgen/internal/sem"
)

const w = 8

func ctxNoMem(b *bv.Builder) *sem.Ctx { return &sem.Ctx{B: b, Width: w} }

// evalOp applies op to constant arguments and evaluates the result.
func evalOp(t *testing.T, op *sem.Instr, args []uint64, internals []uint64) uint64 {
	t.Helper()
	b := bv.NewBuilder()
	ctx := ctxNoMem(b)
	va := make([]*bv.Term, len(args))
	for i, a := range args {
		va[i] = b.Const(a, w)
	}
	vi := make([]*bv.Term, len(internals))
	for i, a := range internals {
		vi[i] = b.Const(a, w)
	}
	eff := op.Apply(ctx, va, vi)
	return bv.Eval(eff.Results[0], nil)
}

func TestArithmeticSemantics(t *testing.T) {
	cases := []struct {
		op   *sem.Instr
		args []uint64
		want uint64
	}{
		{Add(), []uint64{200, 100}, 44},
		{Sub(), []uint64{5, 7}, 254},
		{Mul(), []uint64{16, 17}, 16},
		{And(), []uint64{0xf0, 0x3c}, 0x30},
		{Or(), []uint64{0xf0, 0x0f}, 0xff},
		{Xor(), []uint64{0xff, 0x0f}, 0xf0},
		{Not(), []uint64{0x0f}, 0xf0},
		{Minus(), []uint64{1}, 255},
		{Shl(), []uint64{1, 7}, 128},
		{Shr(), []uint64{0x80, 7}, 1},
		{Shrs(), []uint64{0x80, 7}, 0xff},
	}
	for _, tc := range cases {
		if got := evalOp(t, tc.op, tc.args, nil); got != tc.want {
			t.Errorf("%s%v = %#x, want %#x", tc.op.Name, tc.args, got, tc.want)
		}
	}
}

func TestShiftPrecondition(t *testing.T) {
	b := bv.NewBuilder()
	ctx := ctxNoMem(b)
	op := Shl()
	eff := op.Apply(ctx, []*bv.Term{b.Const(1, w), b.Const(9, w)}, nil)
	if eff.Pre == nil {
		t.Fatalf("shift must have a precondition")
	}
	if bv.Eval(eff.Pre, nil) != 0 {
		t.Fatalf("amount 9 at width 8 must violate the precondition")
	}
	eff = op.Apply(ctx, []*bv.Term{b.Const(1, w), b.Const(7, w)}, nil)
	if bv.Eval(eff.Pre, nil) != 1 {
		t.Fatalf("amount 7 must satisfy the precondition")
	}
}

func TestConstUsesInternal(t *testing.T) {
	if got := evalOp(t, Const(), nil, []uint64{0x42}); got != 0x42 {
		t.Fatalf("Const internal: got %#x", got)
	}
}

func TestCmpAllRelations(t *testing.T) {
	type tc struct {
		rel  int
		x, y uint64
		want uint64
	}
	cases := []tc{
		{RelEq, 3, 3, 1}, {RelEq, 3, 4, 0},
		{RelNe, 3, 4, 1}, {RelNe, 4, 4, 0},
		{RelSlt, 0xff, 0, 1}, // -1 < 0
		{RelSlt, 0, 0xff, 0},
		{RelSle, 5, 5, 1},
		{RelSgt, 0, 0xff, 1},
		{RelSge, 0, 0, 1},
		{RelUlt, 0, 0xff, 1}, {RelUlt, 0xff, 0, 0},
		{RelUle, 7, 7, 1},
		{RelUgt, 0xff, 0, 1},
		{RelUge, 3, 4, 0},
	}
	b := bv.NewBuilder()
	ctx := ctxNoMem(b)
	op := Cmp()
	for _, c := range cases {
		eff := op.Apply(ctx, []*bv.Term{b.Const(c.x, w), b.Const(c.y, w)},
			[]*bv.Term{b.Const(uint64(c.rel), w)})
		if got := bv.Eval(eff.Results[0], nil); got != c.want {
			t.Errorf("Cmp[%s](%d,%d) = %d, want %d", RelationName(c.rel), c.x, c.y, got, c.want)
		}
		if bv.Eval(eff.Pre, nil) != 1 {
			t.Errorf("relation %d should satisfy the domain precondition", c.rel)
		}
	}
	// Out-of-domain relation code violates the precondition.
	eff := op.Apply(ctx, []*bv.Term{b.Const(1, w), b.Const(2, w)},
		[]*bv.Term{b.Const(uint64(NumRelations), w)})
	if bv.Eval(eff.Pre, nil) != 0 {
		t.Fatalf("out-of-domain relation must violate the precondition")
	}
}

func TestCmpTermMatchesGoSemantics(t *testing.T) {
	b := bv.NewBuilder()
	x := b.Var("x", bv.BitVec(w))
	y := b.Var("y", bv.BitVec(w))
	f := func(xv, yv uint8) bool {
		m := bv.Model{"x": uint64(xv), "y": uint64(yv)}
		sx, sy := int8(xv), int8(yv)
		checks := []struct {
			rel  int
			want bool
		}{
			{RelEq, xv == yv}, {RelNe, xv != yv},
			{RelSlt, sx < sy}, {RelSle, sx <= sy},
			{RelSgt, sx > sy}, {RelSge, sx >= sy},
			{RelUlt, xv < yv}, {RelUle, xv <= yv},
			{RelUgt, xv > yv}, {RelUge, xv >= yv},
		}
		for _, c := range checks {
			got := bv.Eval(CmpTerm(b, c.rel, x, y), m) == 1
			if got != c.want {
				return false
			}
			if neg := bv.Eval(CmpTerm(b, NegateRelation(c.rel), x, y), m) == 1; neg == c.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMux(t *testing.T) {
	b := bv.NewBuilder()
	ctx := ctxNoMem(b)
	op := Mux()
	eff := op.Apply(ctx, []*bv.Term{b.BoolConst(true), b.Const(1, w), b.Const(2, w)}, nil)
	if bv.Eval(eff.Results[0], nil) != 1 {
		t.Fatalf("Mux(true) should select first value")
	}
	eff = op.Apply(ctx, []*bv.Term{b.BoolConst(false), b.Const(1, w), b.Const(2, w)}, nil)
	if bv.Eval(eff.Results[0], nil) != 2 {
		t.Fatalf("Mux(false) should select second value")
	}
}

func TestLoadStoreThroughModel(t *testing.T) {
	b := bv.NewBuilder()
	p := b.Var("p", bv.BitVec(w))
	model := memmodel.New(b, w, []*bv.Term{p})
	ctx := &sem.Ctx{B: b, Width: w, Mem: model}

	m0 := b.Var("m0", model.Sort())
	// Store 0x7e at p, then load it back.
	st := Store()
	ld := Load()
	effSt := st.Apply(ctx, []*bv.Term{m0, p, b.Const(0x7e, w)}, nil)
	effLd := ld.Apply(ctx, []*bv.Term{effSt.Results[0], p}, nil)

	env := bv.Model{"p": 0x10, "m0": 0}
	if got := bv.Eval(effLd.Results[1], env); got != 0x7e {
		t.Fatalf("load after store: got %#x", got)
	}
	// The load must set the access flag (change the M-value).
	before := bv.Eval(effSt.Results[0], env)
	after := bv.Eval(effLd.Results[0], env)
	if before == after {
		t.Fatalf("load must change the M-value via the access flag")
	}
	// Validity predicates hold since p is the valid pointer.
	if bv.Eval(effSt.MemOK, env) != 1 || bv.Eval(effLd.MemOK, env) != 1 {
		t.Fatalf("valid pointers must satisfy MemOK")
	}
}

func TestOpsInventory(t *testing.T) {
	ops := Ops()
	if len(ops) != 16 {
		t.Fatalf("expected 16 IR operations, got %d", len(ops))
	}
	if ByName(ops, "Add") == nil || ByName(ops, "Store") == nil {
		t.Fatalf("ByName lookup failed")
	}
	if ByName(ops, "nope") != nil {
		t.Fatalf("ByName should return nil for unknown names")
	}
	for _, o := range ops {
		if o.Name == "" || o.Sem == nil {
			t.Fatalf("op %q incomplete", o.Name)
		}
	}
	arith := ArithOps()
	for _, o := range arith {
		if o.AccessesMemory() {
			t.Fatalf("ArithOps must not access memory: %s", o.Name)
		}
		if o.HasKind(sem.KindBool) {
			t.Fatalf("ArithOps must not involve Bool: %s", o.Name)
		}
	}
}
