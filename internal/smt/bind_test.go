package smt

import (
	"fmt"
	"slices"
	"testing"

	"selgen/internal/bv"
)

// bound reports whether v shares u's literals, i.e. Assert(v = u) bound
// v instead of emitting an equality circuit.
func bound(s *Solver, v, u *bv.Term) bool {
	return slices.Equal(s.bb.Blast(v), s.bb.Blast(u))
}

func mustCheck(t *testing.T, s *Solver, want Result) {
	t.Helper()
	if res, err := s.Check(Options{}); res != want {
		t.Fatalf("check: %v (%v), want %v", res, err, want)
	}
}

// TestFrameEqualityNeverBinds: an equation inside a frame is retracted
// by Pop, so it must not have aliased the variable.
func TestFrameEqualityNeverBinds(t *testing.T) {
	b := bv.NewBuilder()
	s := NewSolver(b)
	v, x := b.Var("v", bv.BitVec(8)), b.Var("x", bv.BitVec(8))
	u := b.BvAdd(x, b.Const(3, 8))
	s.Push()
	s.Assert(b.Eq(v, u))
	mustCheck(t, s, Sat)
	s.Pop()
	s.Assert(b.Not(b.Eq(v, u)))
	mustCheck(t, s, Sat)
	if m := s.Model([]*bv.Term{v, x}); bv.Eval(u, m) == m["v"] {
		t.Fatalf("model %v still satisfies the popped equation", m)
	}
}

// TestBoundVariableModelValue: a depth-0 equation binds its fresh
// variable, whose model value is then its term's value.
func TestBoundVariableModelValue(t *testing.T) {
	b := bv.NewBuilder()
	s := NewSolver(b)
	v, x, y := b.Var("v", bv.BitVec(8)), b.Var("x", bv.BitVec(8)), b.Var("y", bv.BitVec(8))
	u := b.BvMul(b.BvAdd(x, y), b.Const(5, 8))
	s.Assert(b.Eq(v, u))
	if !bound(s, v, u) {
		t.Fatal("depth-0 equation with a fresh variable did not bind")
	}
	s.Assert(b.Ult(x, y))
	s.Assert(b.Eq(b.BvAnd(v, b.Const(1, 8)), b.Const(1, 8)))
	mustCheck(t, s, Sat)
	m := s.Model([]*bv.Term{v, x, y})
	if want := bv.Eval(u, m); m["v"] != want {
		t.Fatalf("bound v = %d, its term evaluates to %d under %v", m["v"], want, m)
	}
	if m["v"]&1 != 1 || m["x"] >= m["y"] {
		t.Fatalf("model %v violates the other assertions", m)
	}

	// A Bool equation binds too.
	p, q := b.Var("p", bv.Bool), b.Var("q", bv.Bool)
	s.Assert(b.Eq(p, b.Not(q)))
	if !bound(s, p, b.Not(q)) {
		t.Fatal("Bool equation did not bind")
	}
	mustCheck(t, s, Sat)
	if s.ModelValue("p", bv.Bool) == s.ModelValue("q", bv.Bool) {
		t.Fatal("bound p equals q, want its negation")
	}
}

// TestRebuildKeepsBoundEquation: a GarbageLimit rebuild replays the
// equation, which must still hold afterwards.
func TestRebuildKeepsBoundEquation(t *testing.T) {
	b := bv.NewBuilder()
	s := NewSolver(b)
	s.GarbageLimit = 16
	v, x := b.Var("v", bv.BitVec(16)), b.Var("x", bv.BitVec(16))
	u := b.BvSub(b.Const(1000, 16), x)
	s.Assert(b.Eq(v, u))
	for i := 0; i < 4; i++ {
		s.Push()
		y := b.Var(fmt.Sprintf("y%d", i), bv.BitVec(16))
		s.Assert(b.Eq(b.BvMul(y, y), b.Const(uint64(i*i), 16)))
		mustCheck(t, s, Sat)
		s.Pop()
	}
	if s.Stats.Resets == 0 {
		t.Fatal("garbage limit never triggered a rebuild")
	}
	if !bound(s, v, u) {
		t.Fatal("replayed equation did not bind")
	}
	s.Push()
	s.Assert(b.Not(b.Eq(v, u)))
	mustCheck(t, s, Unsat)
	s.Pop()
	s.Assert(b.Eq(x, b.Const(7, 16)))
	mustCheck(t, s, Sat)
	if got := s.ModelValue("v", v.Sort); got != 993 {
		t.Fatalf("v = %d after rebuild, want 993", got)
	}
}

// TestEqualityFallsBackToCircuit: an already-blasted variable, or one
// its own definition reaches, gets the equality circuit instead.
func TestEqualityFallsBackToCircuit(t *testing.T) {
	b := bv.NewBuilder()
	s := NewSolver(b)
	v, x := b.Var("v", bv.BitVec(8)), b.Var("x", bv.BitVec(8))
	s.Assert(b.Ult(v, b.Const(10, 8)))
	u := b.BvAdd(x, x)
	s.Assert(b.Eq(v, u))
	if bound(s, v, u) {
		t.Fatal("already-blasted variable was rebound")
	}
	mustCheck(t, s, Sat)
	m := s.Model([]*bv.Term{v, x})
	if m["v"] >= 10 || m["v"] != bv.Eval(u, m) {
		t.Fatalf("model %v violates v < 10 ∧ v = x+x", m)
	}

	// v = v+1 has no solution; binding v to its own successor's
	// literals would make it vacuously true.
	w := b.Var("w", bv.BitVec(8))
	s2 := NewSolver(b)
	s2.Assert(b.Eq(w, b.BvAdd(w, b.Const(1, 8))))
	mustCheck(t, s2, Unsat)

	// z = z & x holds exactly when z's bits are a subset of x's.
	z := b.Var("z", bv.BitVec(8))
	s3 := NewSolver(b)
	s3.Assert(b.Eq(z, b.BvAnd(z, x)))
	s3.Assert(b.Eq(z, b.Const(0x81, 8)))
	mustCheck(t, s3, Sat)
	if got := s3.ModelValue("x", x.Sort); got&0x81 != 0x81 {
		t.Fatalf("x = %#x does not cover z = 0x81", got)
	}
}
