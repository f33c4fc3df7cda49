package smt

import (
	"testing"

	"selgen/internal/bv"
)

// fuzzTerm interprets fuzz bytes as a stack program over two
// bit-vector variables "a" and "b", returning a boolean predicate. The
// first byte picks the width (1, 2, 4, or 8 — small enough that the
// oracle can enumerate every input), each following byte applies one
// operation to the top of the stack, and the final byte selects the
// comparison that turns the remaining bit-vector terms into the
// predicate. An equality predicate between a variable and a term
// without it is the depth-0 equation Assert binds instead of blasting.
func fuzzTerm(b *bv.Builder, data []byte) (pred *bv.Term, w int) {
	w = []int{1, 2, 4, 8}[int(data[0])&3]
	va := b.Var("a", bv.BitVec(w))
	vb := b.Var("b", bv.BitVec(w))
	stack := []*bv.Term{va, vb}
	pop := func() *bv.Term {
		if len(stack) == 0 {
			return va
		}
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return t
	}
	push := func(t *bv.Term) { stack = append(stack, t) }

	ops := data[1:]
	if len(ops) > 48 {
		ops = ops[:48]
	}
	for _, op := range ops {
		switch int(op) % 14 {
		case 0:
			push(b.BvAdd(pop(), pop()))
		case 1:
			push(b.BvSub(pop(), pop()))
		case 2:
			push(b.BvMul(pop(), pop()))
		case 3:
			push(b.BvAnd(pop(), pop()))
		case 4:
			push(b.BvOr(pop(), pop()))
		case 5:
			push(b.BvXor(pop(), pop()))
		case 6:
			push(b.BvNot(pop()))
		case 7:
			push(b.BvNeg(pop()))
		case 8:
			push(b.BvShl(pop(), pop()))
		case 9:
			push(b.BvLshr(pop(), pop()))
		case 10:
			push(b.BvAshr(pop(), pop()))
		case 11:
			push(b.BvUdiv(pop(), pop()))
		case 12:
			// Op bytes from 128 push 0 or all ones, each of whose bits
			// folds a mux it feeds into an AND or an OR.
			v := uint64(op)
			if op >= 128 {
				v = 0
				if op/14%2 == 1 {
					v = ^v
				}
			}
			push(b.Const(v, w))
		default:
			x, y := pop(), pop()
			if op < 128 {
				push(b.Ite(b.Ult(x, y), y, x))
			} else {
				// A constant data input: the blaster folds every bit.
				push(b.Ite(b.Slt(x, y), b.Const(uint64(op), w), y))
			}
		}
	}

	x, y := pop(), pop()
	var sel byte
	if len(data) > 1 {
		sel = data[len(data)-1]
	}
	switch int(sel) % 4 {
	case 0:
		pred = b.Eq(x, y)
	case 1:
		pred = b.Ult(x, y)
	case 2:
		pred = b.Slt(x, y)
	default:
		pred = b.Not(b.Eq(x, b.Const(uint64(sel), w)))
	}
	return pred, w
}

// FuzzCheck cross-checks the SMT facade (bit-blasting + CDCL search +
// model decoding) against exhaustive evaluation: for a random QF_BV
// predicate over two variables at width ≤ 8, Check must report Sat
// exactly when some input satisfies the predicate under bv.Eval, and
// the decoded model must actually satisfy it.
func FuzzCheck(f *testing.F) {
	// a+b == a (sat), a < a (unsat), shifted xor vs slt; the checked-in
	// corpus under testdata/fuzz/FuzzCheck adds deeper terms.
	f.Add([]byte{3, 0, 0})
	f.Add([]byte{0, 1})
	f.Add([]byte{7, 5, 8, 2, 9, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		b := bv.NewBuilder()
		pred, w := fuzzTerm(b, data)

		// Exhaustive oracle over every (a, b) input.
		exists := false
		m := bv.Model{}
		for x := uint64(0); x < 1<<w && !exists; x++ {
			for y := uint64(0); y < 1<<w; y++ {
				m["a"], m["b"] = x, y
				if bv.Eval(pred, m) == 1 {
					exists = true
					break
				}
			}
		}
		want := Unsat
		if exists {
			want = Sat
		}

		s := NewSolver(b)
		s.Assert(pred)
		res, err := s.Check(Options{})
		if err != nil {
			t.Fatalf("Check: %v", err)
		}
		if res != want {
			t.Fatalf("verdict %v, oracle says %v (w=%d data=%v)", res, want, w, data)
		}
		if res == Sat {
			m["a"] = s.ModelValue("a", bv.BitVec(w))
			m["b"] = s.ModelValue("b", bv.BitVec(w))
			if bv.Eval(pred, m) != 1 {
				t.Fatalf("decoded model %v does not satisfy the predicate (w=%d data=%v)", m, w, data)
			}
		}
	})
}
