package bv

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSorts(t *testing.T) {
	if !Bool.IsBool() {
		t.Fatalf("Bool should be bool")
	}
	if BitVec(32).Width != 32 || BitVec(32).IsBool() {
		t.Fatalf("BitVec(32) wrong")
	}
	if Bool.String() != "Bool" {
		t.Fatalf("Bool string: %s", Bool.String())
	}
	if BitVec(8).String() != "(_ BitVec 8)" {
		t.Fatalf("BitVec string: %s", BitVec(8).String())
	}
}

func TestBadWidthPanics(t *testing.T) {
	for _, w := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("BitVec(%d) should panic", w)
				}
			}()
			BitVec(w)
		}()
	}
}

func TestInterning(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", BitVec(8))
	y := b.Var("y", BitVec(8))
	if b.BvAdd(x, y) != b.BvAdd(x, y) {
		t.Fatalf("structurally equal terms not interned")
	}
	// Commutative ops canonicalize argument order.
	if b.BvAdd(x, y) != b.BvAdd(y, x) {
		t.Fatalf("bvadd not canonicalized for commutativity")
	}
	if b.BvMul(x, y) != b.BvMul(y, x) || b.BvAnd(x, y) != b.BvAnd(y, x) ||
		b.BvOr(x, y) != b.BvOr(y, x) || b.BvXor(x, y) != b.BvXor(y, x) ||
		b.Eq(x, y) != b.Eq(y, x) {
		t.Fatalf("commutative canonicalization incomplete")
	}
	if b.BvSub(x, y) == b.BvSub(y, x) {
		t.Fatalf("bvsub must not be canonicalized")
	}
}

func TestVarSortConsistency(t *testing.T) {
	b := NewBuilder()
	b.Var("x", BitVec(8))
	defer func() {
		if recover() == nil {
			t.Fatalf("redeclaring x at another sort should panic")
		}
	}()
	b.Var("x", BitVec(16))
}

func TestConstFolding(t *testing.T) {
	b := NewBuilder()
	c := func(v uint64) *Term { return b.Const(v, 8) }
	cases := []struct {
		got  *Term
		want uint64
	}{
		{b.BvAdd(c(200), c(100)), 44}, // wraps mod 256
		{b.BvSub(c(1), c(2)), 255},
		{b.BvMul(c(16), c(16)), 0},
		{b.BvNot(c(0x0f)), 0xf0},
		{b.BvAnd(c(0xf0), c(0x3c)), 0x30},
		{b.BvOr(c(0xf0), c(0x0f)), 0xff},
		{b.BvXor(c(0xff), c(0x0f)), 0xf0},
		{b.BvNeg(c(1)), 255},
		{b.BvShl(c(1), c(7)), 128},
		{b.BvShl(c(1), c(8)), 0}, // out-of-range
		{b.BvLshr(c(128), c(7)), 1},
		{b.BvAshr(c(128), c(7)), 255}, // sign fill
		{b.BvAshr(c(128), c(100)), 255},
		{b.BvUdiv(c(7), c(2)), 3},
		{b.BvUdiv(c(7), c(0)), 255}, // SMT-LIB convention
		{b.BvUrem(c(7), c(2)), 1},
		{b.BvUrem(c(7), c(0)), 7},
		{b.Extract(c(0xab), 7, 4), 0xa},
		{b.Concat(b.Const(0xa, 4), b.Const(0xb, 4)), 0xab},
		{b.Zext(b.Const(0x80, 8), 16), 0x80},
		{b.Sext(b.Const(0x80, 8), 16), 0xff80},
	}
	for i, tc := range cases {
		if !tc.got.IsConst() {
			t.Fatalf("case %d: not folded to constant: %v", i, tc.got)
		}
		if tc.got.ConstValue() != tc.want&Mask(tc.got.Sort.Width) {
			t.Fatalf("case %d: got %#x want %#x", i, tc.got.ConstValue(), tc.want)
		}
	}
}

func TestBoolFolding(t *testing.T) {
	b := NewBuilder()
	tt, ff := b.BoolConst(true), b.BoolConst(false)
	p := b.Var("p", Bool)
	if b.And(tt, p) != p || b.And(p, tt) != p {
		t.Fatalf("and-true identity")
	}
	if b.And(ff, p) != ff {
		t.Fatalf("and-false annihilator")
	}
	if b.Or(ff, p) != p || b.Or(p, tt) != tt {
		t.Fatalf("or identities")
	}
	if b.Not(b.Not(p)) != p {
		t.Fatalf("double negation")
	}
	if b.Xor(p, p) != ff {
		t.Fatalf("xor self")
	}
	if b.And(p, b.Not(p)) != ff || b.Or(p, b.Not(p)) != tt {
		t.Fatalf("complement laws")
	}
	if b.Implies(ff, p) != tt {
		t.Fatalf("ex falso")
	}
	if b.Iff(p, p) != tt {
		t.Fatalf("iff reflexivity")
	}
}

func TestComparisonFolding(t *testing.T) {
	b := NewBuilder()
	c := func(v uint64) *Term { return b.Const(v, 8) }
	if b.Ult(c(1), c(2)).ConstValue() != 1 || b.Ult(c(2), c(1)).ConstValue() != 0 {
		t.Fatalf("ult folding")
	}
	// 0x80 is -128 signed, so 0x80 <s 1.
	if b.Slt(c(0x80), c(1)).ConstValue() != 1 {
		t.Fatalf("slt folding with sign")
	}
	if b.Sle(c(0xff), c(0)).ConstValue() != 1 { // -1 <= 0
		t.Fatalf("sle folding")
	}
	if b.Ule(c(5), c(5)).ConstValue() != 1 {
		t.Fatalf("ule reflexive")
	}
	x := b.Var("x", BitVec(8))
	if b.Eq(x, x).ConstValue() != 1 {
		t.Fatalf("eq reflexive")
	}
	if b.Ult(x, x).ConstValue() != 0 {
		t.Fatalf("ult irreflexive")
	}
}

func TestIdentitySimplifications(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", BitVec(8))
	z := b.Const(0, 8)
	ones := b.Const(0xff, 8)
	if b.BvAdd(x, z) != x || b.BvSub(x, z) != x {
		t.Fatalf("additive identities")
	}
	if b.BvAnd(x, ones) != x || b.BvOr(x, z) != x || b.BvXor(x, z) != x {
		t.Fatalf("bitwise identities")
	}
	if b.BvAnd(x, z) != z || b.BvMul(x, z) != z {
		t.Fatalf("annihilators")
	}
	if b.BvMul(x, b.Const(1, 8)) != x {
		t.Fatalf("multiplicative identity")
	}
	if b.BvXor(x, ones) != b.BvNot(x) {
		t.Fatalf("xor all-ones = not")
	}
	if b.BvNot(b.BvNot(x)) != x || b.BvNeg(b.BvNeg(x)) != x {
		t.Fatalf("involutions")
	}
	if b.BvSub(x, x) != z {
		t.Fatalf("x - x = 0")
	}
	if b.BvXor(x, x) != z {
		t.Fatalf("x ^ x = 0")
	}
}

func TestIteSimplify(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", BitVec(8))
	y := b.Var("y", BitVec(8))
	p := b.Var("p", Bool)
	if b.Ite(b.BoolConst(true), x, y) != x || b.Ite(b.BoolConst(false), x, y) != y {
		t.Fatalf("ite constant condition")
	}
	if b.Ite(p, x, x) != x {
		t.Fatalf("ite same branches")
	}
}

func TestSimplifyDisabled(t *testing.T) {
	b := NewBuilder()
	b.Simplify = false
	c1, c2 := b.Const(1, 8), b.Const(2, 8)
	s := b.BvAdd(c1, c2)
	if s.IsConst() {
		t.Fatalf("folding should be off")
	}
	if Eval(s, nil) != 3 {
		t.Fatalf("unsimplified term evaluates wrong")
	}
}

func TestEvalAgainstSemantics(t *testing.T) {
	// Randomized differential test: term evaluation must agree with
	// direct uint64 arithmetic at each width.
	rng := rand.New(rand.NewSource(7))
	for _, w := range []int{1, 7, 8, 16, 32, 64} {
		b := NewBuilder()
		x := b.Var("x", BitVec(w))
		y := b.Var("y", BitVec(w))
		for trial := 0; trial < 50; trial++ {
			xv := rng.Uint64() & Mask(w)
			yv := rng.Uint64() & Mask(w)
			m := Model{"x": xv, "y": yv}
			sh := yv
			var shl, lshr, ashr uint64
			if sh >= uint64(w) {
				shl, lshr = 0, 0
				ashr = uint64(int64(SignExtendTo64(xv, w))>>(w-1)) & Mask(w)
			} else {
				shl = xv << sh & Mask(w)
				lshr = xv >> sh
				ashr = uint64(int64(SignExtendTo64(xv, w))>>sh) & Mask(w)
			}
			checks := []struct {
				t    *Term
				want uint64
			}{
				{b.BvAdd(x, y), (xv + yv) & Mask(w)},
				{b.BvSub(x, y), (xv - yv) & Mask(w)},
				{b.BvMul(x, y), (xv * yv) & Mask(w)},
				{b.BvAnd(x, y), xv & yv},
				{b.BvOr(x, y), xv | yv},
				{b.BvXor(x, y), xv ^ yv},
				{b.BvNot(x), ^xv & Mask(w)},
				{b.BvNeg(x), -xv & Mask(w)},
				{b.BvShl(x, y), shl},
				{b.BvLshr(x, y), lshr},
				{b.BvAshr(x, y), ashr},
			}
			for i, c := range checks {
				if got := Eval(c.t, m); got != c.want {
					t.Fatalf("w=%d trial=%d check=%d: got %#x want %#x (x=%#x y=%#x)",
						w, trial, i, got, c.want, xv, yv)
				}
			}
			ltu := uint64(0)
			if xv < yv {
				ltu = 1
			}
			if Eval(b.Ult(x, y), m) != ltu {
				t.Fatalf("ult mismatch")
			}
			lts := uint64(0)
			if int64(SignExtendTo64(xv, w)) < int64(SignExtendTo64(yv, w)) {
				lts = 1
			}
			if Eval(b.Slt(x, y), m) != lts {
				t.Fatalf("slt mismatch at w=%d x=%#x y=%#x", w, xv, yv)
			}
		}
	}
}

func TestEvalStructure(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", BitVec(16))
	m := Model{"x": 0xabcd}
	if Eval(b.Extract(x, 15, 8), m) != 0xab {
		t.Fatalf("extract high byte")
	}
	if Eval(b.Extract(x, 7, 0), m) != 0xcd {
		t.Fatalf("extract low byte")
	}
	lo := b.Extract(x, 7, 0)
	hi := b.Extract(x, 15, 8)
	if Eval(b.Concat(lo, hi), m) != 0xcdab {
		t.Fatalf("byte swap via concat")
	}
	if Eval(b.Zext(b.Extract(x, 15, 8), 16), m) != 0x00ab {
		t.Fatalf("zext")
	}
	if Eval(b.Sext(b.Extract(x, 15, 8), 16), m) != 0xffab {
		t.Fatalf("sext")
	}
}

func TestDistinct(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", BitVec(4))
	y := b.Var("y", BitVec(4))
	z := b.Var("z", BitVec(4))
	d := b.Distinct(x, y, z)
	if Eval(d, Model{"x": 1, "y": 2, "z": 3}) != 1 {
		t.Fatalf("distinct of distinct values")
	}
	if Eval(d, Model{"x": 1, "y": 2, "z": 1}) != 0 {
		t.Fatalf("distinct with duplicate")
	}
	if b.Distinct().ConstValue() != 1 || b.Distinct(x).ConstValue() != 1 {
		t.Fatalf("vacuous distinct")
	}
}

func TestString(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", BitVec(8))
	s := b.BvAdd(x, b.Const(1, 8)).String()
	if s != "(bvadd #x01 x)" && s != "(bvadd x #x01)" {
		t.Fatalf("unexpected rendering: %s", s)
	}
	if b.BoolConst(true).String() != "true" {
		t.Fatalf("true rendering")
	}
	ex := b.Extract(x, 7, 4).String()
	if ex != "((_ extract 7 4) x)" {
		t.Fatalf("extract rendering: %s", ex)
	}
}

func TestVarsAndSize(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", BitVec(8))
	y := b.Var("y", BitVec(8))
	tm := b.BvAdd(b.BvMul(x, y), x)
	vs := Vars(tm)
	if len(vs) != 2 {
		t.Fatalf("want 2 vars, got %d", len(vs))
	}
	if Size(tm) != 4 { // x, y, mul, add
		t.Fatalf("size = %d, want 4", Size(tm))
	}
}

func TestSignHelpers(t *testing.T) {
	if !SignBit(0x80, 8) || SignBit(0x7f, 8) {
		t.Fatalf("SignBit")
	}
	if SignExtendTo64(0x80, 8) != 0xffffffffffffff80 {
		t.Fatalf("SignExtendTo64 negative")
	}
	if SignExtendTo64(0x7f, 8) != 0x7f {
		t.Fatalf("SignExtendTo64 positive")
	}
	if PopCount(0xff) != 8 {
		t.Fatalf("PopCount")
	}
}

// Property: simplified and unsimplified builders agree on evaluation.
func TestQuickSimplifierSoundness(t *testing.T) {
	bs := NewBuilder()
	bu := NewBuilder()
	bu.Simplify = false
	const w = 16
	xs, ys := bs.Var("x", BitVec(w)), bs.Var("y", BitVec(w))
	xu, yu := bu.Var("x", BitVec(w)), bu.Var("y", BitVec(w))

	build := func(b *Builder, x, y *Term) *Term {
		// A moderately deep expression exercising many ops.
		s := b.BvAdd(b.BvMul(x, y), b.BvNot(b.BvXor(x, b.Const(0xff, w))))
		sh := b.BvLshr(s, b.BvAnd(y, b.Const(0xf, w)))
		return b.Ite(b.Slt(x, y), sh, b.BvSub(sh, x))
	}
	ts := build(bs, xs, ys)
	tu := build(bu, xu, yu)

	f := func(x, y uint16) bool {
		m := Model{"x": uint64(x), "y": uint64(y)}
		return Eval(ts, m) == Eval(tu, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan over bit-vectors holds in the evaluator.
func TestQuickDeMorgan(t *testing.T) {
	b := NewBuilder()
	const w = 32
	x := b.Var("x", BitVec(w))
	y := b.Var("y", BitVec(w))
	lhs := b.BvNot(b.BvAnd(x, y))
	rhs := b.BvOr(b.BvNot(x), b.BvNot(y))
	f := func(xv, yv uint32) bool {
		m := Model{"x": uint64(xv), "y": uint64(yv)}
		return Eval(lhs, m) == Eval(rhs, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestInternHitAllocatesNothing: a constructor looks its term up by
// structural key before allocating, so rebuilding terms that are
// already interned allocates nothing and creates no term.
func TestInternHitAllocatesNothing(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", BitVec(8))
	y := b.Var("y", BitVec(8))
	c := b.Var("c", Bool)
	build := func() {
		b.Var("x", BitVec(8))
		s := b.BvAdd(x, y)
		b.Ite(c, b.Extract(s, 3, 0), b.Zext(b.Extract(y, 1, 0), 4))
		b.Eq(b.BvMul(x, b.Const(3, 8)), b.BvNeg(y))
		b.And(c, b.Not(b.Ult(x, y)), b.Xor(c, b.Sle(y, x)))
	}
	build()
	n := b.NumTerms()
	if allocs := testing.AllocsPerRun(50, build); allocs != 0 {
		t.Errorf("rebuilding interned terms allocates %v times per call", allocs)
	}
	if b.NumTerms() != n {
		t.Errorf("rebuilding interned terms grew the builder from %d to %d terms", n, b.NumTerms())
	}
}

// TestBuilderEval: the builder's memoized Eval agrees with Eval and,
// once its memo covers the builder, allocates nothing.
func TestBuilderEval(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", BitVec(8))
	y := b.Var("y", BitVec(8))
	s := b.BvAdd(x, y)
	f := b.Or(b.Ult(b.BvMul(s, s), x), b.Eq(b.BvLshr(s, y), b.BvAnd(x, b.BvNot(y))))
	m := Model{}
	for xv := uint64(0); xv < 256; xv += 7 {
		for yv := uint64(0); yv < 256; yv += 5 {
			m["x"], m["y"] = xv, yv
			if got, want := b.Eval(f, m), Eval(f, m); got != want {
				t.Fatalf("x=%d y=%d: Builder.Eval %d, Eval %d", xv, yv, got, want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(50, func() { b.Eval(f, m) }); allocs != 0 {
		t.Errorf("warm Builder.Eval allocates %v times per call", allocs)
	}
	other := NewBuilder()
	defer func() {
		if recover() == nil {
			t.Errorf("Builder.Eval of another builder's term should panic")
		}
	}()
	b.Eval(other.Var("x", BitVec(8)), m)
}
