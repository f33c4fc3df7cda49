package bitblast

import (
	"testing"

	"selgen/internal/bv"
	"selgen/internal/sat"
)

// rawBuilder returns a builder that keeps every term as written, so
// constant mux inputs and double negations reach the blaster.
func rawBuilder() *bv.Builder {
	b := bv.NewBuilder()
	b.Simplify = false
	return b
}

// checkExhaustive solves under every assignment of the Bool variables
// vs and compares each blasted term's model value with bv.Eval.
func checkExhaustive(t *testing.T, bb *Blaster, vs []*bv.Term, terms ...*bv.Term) {
	t.Helper()
	for _, tm := range terms {
		bb.Blast(tm)
	}
	for m := 0; m < 1<<len(vs); m++ {
		model := bv.Model{}
		var assume []sat.Lit
		for i, v := range vs {
			model[v.Name] = uint64(m >> i & 1)
			l := bb.VarLits(v.Name, v.Sort)[0]
			if m>>i&1 == 0 {
				l = l.Not()
			}
			assume = append(assume, l)
		}
		st, err := bb.S.Solve(sat.Options{}, assume...)
		if err != nil || st != sat.Sat {
			t.Fatalf("assignment %v: %v %v", model, st, err)
		}
		for _, tm := range terms {
			if got, want := bb.Value(tm), bv.Eval(tm, model); got != want {
				t.Fatalf("%v under %v: circuit %d, Eval %d", tm, model, got, want)
			}
		}
	}
}

// TestMuxFolding checks the six constant-data-input cases: each mux
// folds into the gate (or literal) its equivalent formula blasts to,
// allocating no mux variable, and agrees with bv.Eval everywhere.
func TestMuxFolding(t *testing.T) {
	b := rawBuilder()
	c, x := b.Var("c", bv.Bool), b.Var("x", bv.Bool)
	tt, ff := b.BoolConst(true), b.BoolConst(false)
	cases := []struct {
		name      string
		mux, want *bv.Term
	}{
		{"c?1:x = c|x", b.Ite(c, tt, x), b.Or(c, x)},
		{"c?0:x = ~c&x", b.Ite(c, ff, x), b.And(b.Not(c), x)},
		{"c?x:1 = ~c|x", b.Ite(c, x, tt), b.Or(b.Not(c), x)},
		{"c?x:0 = c&x", b.Ite(c, x, ff), b.And(c, x)},
		{"c?1:0 = c", b.Ite(c, tt, ff), c},
		{"c?0:1 = ~c", b.Ite(c, ff, tt), b.Not(c)},
	}
	for _, tc := range cases {
		bb := New(b, sat.New())
		bb.Blast(tt) // the constant's own variable
		want := bb.Blast(tc.want)[0]
		n := bb.S.NumVars()
		if got := bb.Blast(tc.mux)[0]; got != want {
			t.Errorf("%s: mux blasts to %v, the equivalent gate to %v", tc.name, got, want)
		}
		if bb.S.NumVars() != n {
			t.Errorf("%s: folding allocated %d variables", tc.name, bb.S.NumVars()-n)
		}
		checkExhaustive(t, bb, []*bv.Term{c, x}, tc.mux, tc.want)
	}
}

// TestXorNegationNormalization: input negations move to the output, so
// all four sign patterns of x ^ y (and x <-> y) share one gate.
func TestXorNegationNormalization(t *testing.T) {
	b := rawBuilder()
	x, y := b.Var("x", bv.Bool), b.Var("y", bv.Bool)
	bb := New(b, sat.New())
	g := bb.Blast(b.Xor(x, y))[0]
	n := bb.S.NumVars()
	for _, tc := range []struct {
		t    *bv.Term
		want sat.Lit
	}{
		{b.Xor(b.Not(x), y), g.Not()},
		{b.Xor(x, b.Not(y)), g.Not()},
		{b.Xor(b.Not(x), b.Not(y)), g},
		{b.Xor(y, x), g},
		{b.Iff(x, y), g.Not()},
		{b.Iff(b.Not(x), y), g},
	} {
		if got := bb.Blast(tc.t)[0]; got != tc.want {
			t.Errorf("%v blasts to %v, want %v", tc.t, got, tc.want)
		}
		checkExhaustive(t, bb, []*bv.Term{x, y}, tc.t)
	}
	if bb.S.NumVars() != n {
		t.Fatalf("sign variants allocated %d new variables", bb.S.NumVars()-n)
	}
}

// TestMuxNegationNormalization: a negated condition swaps the data
// inputs, so ~c ? x : y is the gate of c ? y : x.
func TestMuxNegationNormalization(t *testing.T) {
	b := rawBuilder()
	c, x, y := b.Var("c", bv.Bool), b.Var("x", bv.Bool), b.Var("y", bv.Bool)
	bb := New(b, sat.New())
	g := bb.Blast(b.Ite(c, y, x))[0]
	n := bb.S.NumVars()
	neg := b.Ite(b.Not(c), x, y)
	if got := bb.Blast(neg)[0]; got != g {
		t.Fatalf("~c?x:y blasts to %v, c?y:x to %v", got, g)
	}
	if bb.S.NumVars() != n {
		t.Fatalf("negated condition allocated %d new variables", bb.S.NumVars()-n)
	}
	checkExhaustive(t, bb, []*bv.Term{c, x, y}, neg, b.Ite(c, y, x))
}

// TestGateStructureSharing: a second, distinct term whose circuit has
// the same gates over the same literals allocates no SAT variable.
func TestGateStructureSharing(t *testing.T) {
	b := rawBuilder()
	x, y := b.Var("x", bv.BitVec(8)), b.Var("y", bv.BitVec(8))
	for _, tc := range []struct {
		name          string
		first, second *bv.Term
	}{
		{"adder", b.BvAdd(x, y), b.BvAdd(x, b.BvNot(b.BvNot(y)))},
		{"xor", b.BvXor(x, y), b.BvXor(b.BvNot(x), b.BvNot(y))},
		{"de morgan", b.BvAnd(x, y), b.BvNot(b.BvOr(b.BvNot(x), b.BvNot(y)))},
		{"comparison", b.Ult(x, y), b.Ult(b.BvNot(b.BvNot(x)), y)},
	} {
		bb := New(b, sat.New())
		bb.Blast(tc.first)
		n, m := bb.S.NumVars(), bb.S.NumClauses()
		bb.Blast(tc.second)
		if bb.S.NumVars() != n || bb.S.NumClauses() != m {
			t.Errorf("%s: second term added %d variables and %d clauses",
				tc.name, bb.S.NumVars()-n, bb.S.NumClauses()-m)
		}
	}
}
