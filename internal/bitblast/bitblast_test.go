package bitblast

import (
	"math/rand"
	"slices"
	"testing"

	"selgen/internal/bv"
	"selgen/internal/sat"
)

// checkEquivalence asserts lhs != rhs and expects Unsat (i.e. the two
// terms are semantically equal).
func checkEquivalence(t *testing.T, b *bv.Builder, lhs, rhs *bv.Term) {
	t.Helper()
	s := sat.New()
	bb := New(b, s)
	bb.Assert(b.Not(b.Eq(lhs, rhs)))
	st, err := s.Solve(sat.Options{})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if st != sat.Unsat {
		// Extract counterexample for the failure message.
		var desc string
		for _, v := range bv.Vars(lhs) {
			desc += v.Name + "=?"
		}
		t.Fatalf("terms differ (%v vs %v): sat %s", lhs, rhs, desc)
	}
}

// checkSatAndModel asserts the formula, expects Sat, and returns a model
// over the given variables.
func checkSatAndModel(t *testing.T, b *bv.Builder, f *bv.Term, vars []*bv.Term) bv.Model {
	t.Helper()
	s := sat.New()
	bb := New(b, s)
	bb.Assert(f)
	st, err := s.Solve(sat.Options{})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if st != sat.Sat {
		t.Fatalf("expected sat, got %v for %v", st, f)
	}
	m := make(bv.Model)
	for _, v := range vars {
		ls := bb.VarLits(v.Name, v.Sort)
		var val uint64
		for i, l := range ls {
			bit := s.Model(l.Var())
			if l.Neg() {
				bit = !bit
			}
			if bit {
				val |= 1 << i
			}
		}
		m[v.Name] = val
	}
	return m
}

func TestConstants(t *testing.T) {
	b := bv.NewBuilder()
	x := b.Var("x", bv.BitVec(8))
	m := checkSatAndModel(t, b, b.Eq(x, b.Const(0xa5, 8)), []*bv.Term{x})
	if m["x"] != 0xa5 {
		t.Fatalf("x = %#x, want 0xa5", m["x"])
	}
}

func TestAdditionModels(t *testing.T) {
	b := bv.NewBuilder()
	x := b.Var("x", bv.BitVec(8))
	y := b.Var("y", bv.BitVec(8))
	f := b.And(
		b.Eq(b.BvAdd(x, y), b.Const(100, 8)),
		b.Eq(x, b.Const(42, 8)),
	)
	m := checkSatAndModel(t, b, f, []*bv.Term{x, y})
	if m["y"] != 58 {
		t.Fatalf("y = %d, want 58", m["y"])
	}
}

func TestUnsatArithmetic(t *testing.T) {
	b := bv.NewBuilder()
	x := b.Var("x", bv.BitVec(8))
	// x + 1 = x is unsat.
	s := sat.New()
	bb := New(b, s)
	bb.Assert(b.Eq(b.BvAdd(x, b.Const(1, 8)), x))
	st, _ := s.Solve(sat.Options{})
	if st != sat.Unsat {
		t.Fatalf("x+1=x should be unsat, got %v", st)
	}
}

// TestOpsAgainstEvaluator cross-checks every operator: for random
// constant inputs the blasted circuit must force the evaluator's output.
func TestOpsAgainstEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, w := range []int{1, 3, 8, 13} {
		b := bv.NewBuilder()
		x := b.Var("x", bv.BitVec(w))
		y := b.Var("y", bv.BitVec(w))
		binops := []func(*bv.Term, *bv.Term) *bv.Term{
			b.BvAdd, b.BvSub, b.BvMul, b.BvAnd, b.BvOr, b.BvXor,
			b.BvShl, b.BvLshr, b.BvAshr, b.BvUdiv, b.BvUrem,
		}
		preds := []func(*bv.Term, *bv.Term) *bv.Term{
			b.Eq, b.Ult, b.Ule, b.Slt, b.Sle,
		}
		for trial := 0; trial < 6; trial++ {
			xv := rng.Uint64() & bv.Mask(w)
			yv := rng.Uint64() & bv.Mask(w)
			model := bv.Model{"x": xv, "y": yv}
			for oi, op := range binops {
				term := op(x, y)
				want := bv.Eval(term, model)
				// Assert x=xv, y=yv, term != want: must be unsat.
				s := sat.New()
				bb := New(b, s)
				bb.Assert(b.Eq(x, b.Const(xv, w)))
				bb.Assert(b.Eq(y, b.Const(yv, w)))
				bb.Assert(b.Not(b.Eq(term, b.Const(want, w))))
				st, err := s.Solve(sat.Options{})
				if err != nil {
					t.Fatalf("solve: %v", err)
				}
				if st != sat.Unsat {
					t.Fatalf("w=%d op#%d x=%#x y=%#x: circuit disagrees with evaluator (want %#x)",
						w, oi, xv, yv, want)
				}
			}
			for pi, op := range preds {
				term := op(x, y)
				want := bv.Eval(term, model) == 1
				s := sat.New()
				bb := New(b, s)
				bb.Assert(b.Eq(x, b.Const(xv, w)))
				bb.Assert(b.Eq(y, b.Const(yv, w)))
				lit := bb.Blast(term)[0]
				if want {
					s.AddClause(lit.Not())
				} else {
					s.AddClause(lit)
				}
				st, err := s.Solve(sat.Options{})
				if err != nil {
					t.Fatalf("solve: %v", err)
				}
				if st != sat.Unsat {
					t.Fatalf("w=%d pred#%d x=%#x y=%#x: circuit disagrees (want %v)",
						w, pi, xv, yv, want)
				}
			}
		}
	}
}

func TestStructureOps(t *testing.T) {
	b := bv.NewBuilder()
	x := b.Var("x", bv.BitVec(16))
	// Splitting and re-concatenating is the identity.
	lo := b.Extract(x, 7, 0)
	hi := b.Extract(x, 15, 8)
	checkEquivalence(t, b, b.Concat(hi, lo), x)
	// zext then extract low bits is the identity.
	y := b.Var("y", bv.BitVec(8))
	checkEquivalence(t, b, b.Extract(b.Zext(y, 16), 7, 0), y)
	// sext preserves signed comparisons with 0.
	z16 := b.Const(0, 16)
	z8 := b.Const(0, 8)
	s := sat.New()
	bb := New(b, s)
	bb.Assert(b.Not(b.Iff(b.Slt(b.Sext(y, 16), z16), b.Slt(y, z8))))
	st, _ := s.Solve(sat.Options{})
	if st != sat.Unsat {
		t.Fatalf("sext sign preservation violated")
	}
}

func TestIteCircuit(t *testing.T) {
	b := bv.NewBuilder()
	p := b.Var("p", bv.Bool)
	x := b.Var("x", bv.BitVec(8))
	y := b.Var("y", bv.BitVec(8))
	ite := b.Ite(p, x, y)
	// p & (ite != x) unsat.
	s := sat.New()
	bb := New(b, s)
	bb.Assert(p)
	bb.Assert(b.Not(b.Eq(ite, x)))
	if st, _ := s.Solve(sat.Options{}); st != sat.Unsat {
		t.Fatalf("ite under true cond must equal then-branch")
	}
}

// Known bit-twiddling identities from Hacker's Delight (the benchmark
// source used by Gulwani et al. and the reproduced paper).
func TestHackersDelightIdentities(t *testing.T) {
	b := bv.NewBuilder()
	const w = 8
	x := b.Var("x", bv.BitVec(w))
	y := b.Var("y", bv.BitVec(w))
	one := b.Const(1, w)

	// x & (x-1) clears the lowest set bit == x - (x & -x).
	lhs := b.BvAnd(x, b.BvSub(x, one))
	rhs := b.BvSub(x, b.BvAnd(x, b.BvNeg(x)))
	checkEquivalence(t, b, lhs, rhs)

	// ~x & y == y - (x & y)  (the andn identities from the paper's intro)
	checkEquivalence(t, b,
		b.BvAnd(b.BvNot(x), y),
		b.BvSub(y, b.BvAnd(x, y)))
	// ~x & y == x ^ (x | y)
	checkEquivalence(t, b,
		b.BvAnd(b.BvNot(x), y),
		b.BvXor(x, b.BvOr(x, y)))
	// ~x & y == y ^ (x & y)
	checkEquivalence(t, b,
		b.BvAnd(b.BvNot(x), y),
		b.BvXor(y, b.BvAnd(x, y)))

	// Average without overflow: (x & y) + ((x ^ y) >> 1) == (x + y) >> 1
	// only when no carry out; check the simpler (x | y) - (x ^ y)/2 ... skip;
	// instead: x ^ y == (x | y) - (x & y).
	checkEquivalence(t, b,
		b.BvXor(x, y),
		b.BvSub(b.BvOr(x, y), b.BvAnd(x, y)))

	// x + y == (x ^ y) + 2*(x & y).
	checkEquivalence(t, b,
		b.BvAdd(x, y),
		b.BvAdd(b.BvXor(x, y), b.BvShl(b.BvAnd(x, y), one)))
}

func TestShiftByWideAmounts(t *testing.T) {
	b := bv.NewBuilder()
	const w = 8
	x := b.Var("x", bv.BitVec(w))
	// Shifting by >= w gives 0 for shl/lshr.
	for _, amt := range []uint64{8, 9, 200} {
		checkEquivalence(t, b, b.BvShl(x, b.Const(amt, w)), b.Const(0, w))
		checkEquivalence(t, b, b.BvLshr(x, b.Const(amt, w)), b.Const(0, w))
	}
	// ashr by >= w replicates the sign bit.
	signFill := b.Ite(b.Slt(x, b.Const(0, w)), b.Const(0xff, w), b.Const(0, w))
	checkEquivalence(t, b, b.BvAshr(x, b.Const(9, w)), signFill)
}

func TestDivisionCircuit(t *testing.T) {
	b := bv.NewBuilder()
	const w = 6
	x := b.Var("x", bv.BitVec(w))
	y := b.Var("y", bv.BitVec(w))
	q := b.BvUdiv(x, y)
	r := b.BvUrem(x, y)
	// For y != 0: x == q*y + r and r < y.
	s := sat.New()
	bb := New(b, s)
	nz := b.Not(b.Eq(y, b.Const(0, w)))
	ident := b.Eq(x, b.BvAdd(b.BvMul(q, y), r))
	rless := b.Ult(r, y)
	bb.Assert(b.Not(b.Implies(nz, b.And(ident, rless))))
	if st, _ := s.Solve(sat.Options{}); st != sat.Unsat {
		t.Fatalf("division identity violated")
	}
	// Division by zero convention.
	checkEquivalence(t, b, b.BvUdiv(x, b.Const(0, w)), b.Const(bv.Mask(w), w))
	checkEquivalence(t, b, b.BvUrem(x, b.Const(0, w)), x)
}

func TestValueReadback(t *testing.T) {
	b := bv.NewBuilder()
	x := b.Var("x", bv.BitVec(8))
	sum := b.BvAdd(x, b.Const(1, 8))
	s := sat.New()
	bb := New(b, s)
	bb.Assert(b.Eq(sum, b.Const(0x10, 8)))
	if st, _ := s.Solve(sat.Options{}); st != sat.Sat {
		t.Fatalf("should be sat")
	}
	if v := bb.Value(sum); v != 0x10 {
		t.Fatalf("sum value %#x", v)
	}
	if v := bb.Value(x); v != 0x0f {
		t.Fatalf("x value %#x", v)
	}
}

func TestBooleanConnectives(t *testing.T) {
	b := bv.NewBuilder()
	p := b.Var("p", bv.Bool)
	q := b.Var("q", bv.Bool)
	// (p => q) & p & !q unsat.
	s := sat.New()
	bb := New(b, s)
	bb.Assert(b.Implies(p, q))
	bb.Assert(p)
	bb.Assert(b.Not(q))
	if st, _ := s.Solve(sat.Options{}); st != sat.Unsat {
		t.Fatalf("modus ponens violated")
	}
	// Iff is xor-negation.
	b2 := bv.NewBuilder()
	p2 := b2.Var("p", bv.Bool)
	q2 := b2.Var("q", bv.Bool)
	checkEquivalenceBool(t, b2, b2.Iff(p2, q2), b2.Not(b2.Xor(p2, q2)))
}

func checkEquivalenceBool(t *testing.T, b *bv.Builder, lhs, rhs *bv.Term) {
	t.Helper()
	s := sat.New()
	bb := New(b, s)
	bb.Assert(b.Xor(lhs, rhs))
	st, _ := s.Solve(sat.Options{})
	if st != sat.Unsat {
		t.Fatalf("boolean terms differ: %v vs %v", lhs, rhs)
	}
}

func TestNegIsSubFromZero(t *testing.T) {
	b := bv.NewBuilder()
	x := b.Var("x", bv.BitVec(8))
	checkEquivalence(t, b, b.BvNeg(x), b.BvSub(b.Const(0, 8), x))
}

func TestMulCommutesWithCircuit(t *testing.T) {
	b := bv.NewBuilder()
	b.Simplify = false // prevent term-level canonicalization
	x := b.Var("x", bv.BitVec(6))
	y := b.Var("y", bv.BitVec(6))
	checkEquivalence(t, b, b.BvMul(x, y), b.BvMul(y, x))
}

// TestForeignTermPanics: the term cache is indexed by id, so a term of
// another builder, whose id aliases one of this builder's, must be
// refused rather than given that term's literals.
func TestForeignTermPanics(t *testing.T) {
	b, other := bv.NewBuilder(), bv.NewBuilder()
	bb := New(b, sat.New())
	bb.Blast(b.Var("x", bv.BitVec(8)))
	y := other.Var("y", bv.BitVec(8))
	defer func() {
		if recover() == nil {
			t.Fatal("blasting another builder's term did not panic")
		}
	}()
	bb.Blast(y)
}

// TestVarLitsBeforeBlast: literals VarLits allocates for a variable no
// Blast has reached are the ones blasting it later adopts (a cache
// miss), and such a variable can no longer be bound.
func TestVarLitsBeforeBlast(t *testing.T) {
	b := bv.NewBuilder()
	x := b.Var("x", bv.BitVec(4))
	y := b.Var("y", bv.BitVec(4))
	bb := New(b, sat.New())
	early := bb.VarLits("x", x.Sort)
	if got := bb.Blast(x); !slices.Equal(got, early) {
		t.Errorf("Blast(x) = %v, VarLits allocated %v", got, early)
	}
	if bb.Hits != 0 || bb.Misses != 1 {
		t.Errorf("hits/misses %d/%d, want 0/1", bb.Hits, bb.Misses)
	}
	bb.VarLits("y", y.Sort)
	if bb.Bind(y, b.Const(3, 4)) {
		t.Error("bound a variable VarLits already gave literals")
	}
	if !bb.Bind(b.Var("z", bv.BitVec(4)), b.BvAdd(x, y)) {
		t.Error("declined to bind a fresh variable")
	}
}
