package bitblast

import (
	"testing"

	"selgen/internal/bv"
	"selgen/internal/sat"
)

// equivalence-checks two bit-twiddling formulations at the given width.
func benchEquivalence(b *testing.B, w int) {
	for i := 0; i < b.N; i++ {
		builder := bv.NewBuilder()
		x := builder.Var("x", bv.BitVec(w))
		y := builder.Var("y", bv.BitVec(w))
		lhs := builder.BvAnd(builder.BvNot(x), y)
		rhs := builder.BvSub(y, builder.BvAnd(x, y))
		s := sat.New()
		bb := New(builder, s)
		bb.Assert(builder.Not(builder.Eq(lhs, rhs)))
		st, err := s.Solve(sat.Options{})
		if err != nil || st != sat.Unsat {
			b.Fatalf("got %v %v", st, err)
		}
	}
}

func BenchmarkEquivalence8(b *testing.B)  { benchEquivalence(b, 8) }
func BenchmarkEquivalence32(b *testing.B) { benchEquivalence(b, 32) }

func BenchmarkMultiplierEquivalence(b *testing.B) {
	// (x+y)^2 == x^2 + 2xy + y^2 at width 8 — multiplication-heavy.
	for i := 0; i < b.N; i++ {
		builder := bv.NewBuilder()
		const w = 8
		x := builder.Var("x", bv.BitVec(w))
		y := builder.Var("y", bv.BitVec(w))
		sum := builder.BvAdd(x, y)
		lhs := builder.BvMul(sum, sum)
		two := builder.Const(2, w)
		rhs := builder.BvAdd(builder.BvAdd(builder.BvMul(x, x), builder.BvMul(two, builder.BvMul(x, y))), builder.BvMul(y, y))
		s := sat.New()
		bb := New(builder, s)
		bb.Assert(builder.Not(builder.Eq(lhs, rhs)))
		st, err := s.Solve(sat.Options{})
		if err != nil || st != sat.Unsat {
			b.Fatalf("got %v %v", st, err)
		}
	}
}
