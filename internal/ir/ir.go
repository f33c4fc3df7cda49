// Package ir defines the semantic models of the compiler IR operations
// (the set I of the paper, §4): a libFirm-like SSA operation set over
// one word width, with memory access threaded through M-values and
// comparisons carrying their relation as a synthesized internal
// attribute.
package ir

import (
	"fmt"

	"selgen/internal/bv"
	"selgen/internal/sem"
)

// Relation codes for the Cmp operation's internal attribute.
const (
	RelEq = iota
	RelNe
	RelSlt
	RelSle
	RelSgt
	RelSge
	RelUlt
	RelUle
	RelUgt
	RelUge
	// NumRelations bounds the internal-attribute domain of Cmp.
	NumRelations
)

// RelationName returns a mnemonic for a relation code.
func RelationName(r int) string {
	names := []string{"eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge"}
	if r < 0 || r >= len(names) {
		return fmt.Sprintf("rel%d", r)
	}
	return names[r]
}

// negatedRelation[r] is the relation that holds exactly where r does
// not: the ten relations are closed under negation.
var negatedRelation = [NumRelations]int{
	RelEq: RelNe, RelNe: RelEq,
	RelSlt: RelSge, RelSge: RelSlt,
	RelSle: RelSgt, RelSgt: RelSle,
	RelUlt: RelUge, RelUge: RelUlt,
	RelUle: RelUgt, RelUgt: RelUle,
}

// NegateRelation returns the relation code whose Cmp is the negation
// of rel's on every input. It panics on a code outside the domain.
func NegateRelation(rel int) int { return negatedRelation[rel] }

// CmpTerm builds the boolean term for relation code rel applied to x, y.
func CmpTerm(b *bv.Builder, rel int, x, y *bv.Term) *bv.Term {
	switch rel {
	case RelEq:
		return b.Eq(x, y)
	case RelNe:
		return b.Not(b.Eq(x, y))
	case RelSlt:
		return b.Slt(x, y)
	case RelSle:
		return b.Sle(x, y)
	case RelSgt:
		return b.Slt(y, x)
	case RelSge:
		return b.Sle(y, x)
	case RelUlt:
		return b.Ult(x, y)
	case RelUle:
		return b.Ule(x, y)
	case RelUgt:
		return b.Ult(y, x)
	case RelUge:
		return b.Ule(y, x)
	}
	panic(fmt.Sprintf("ir: unknown relation %d", rel))
}

// binop builds a two-operand value instruction with the given cycle
// cost.
func binop(name string, cost int, f func(b *bv.Builder, x, y *bv.Term) *bv.Term) *sem.Instr {
	return &sem.Instr{
		Name:    name,
		Args:    []sem.Kind{sem.KindValue, sem.KindValue},
		Results: []sem.Kind{sem.KindValue},
		Cost:    cost,
		Sem: func(ctx *sem.Ctx, va, vi []*bv.Term) sem.Effect {
			return sem.Effect{Results: []*bv.Term{f(ctx.B, va[0], va[1])}}
		},
	}
}

// unop builds a one-operand value instruction with the given cycle
// cost.
func unop(name string, cost int, f func(b *bv.Builder, x *bv.Term) *bv.Term) *sem.Instr {
	return &sem.Instr{
		Name:    name,
		Args:    []sem.Kind{sem.KindValue},
		Results: []sem.Kind{sem.KindValue},
		Cost:    cost,
		Sem: func(ctx *sem.Ctx, va, vi []*bv.Term) sem.Effect {
			return sem.Effect{Results: []*bv.Term{f(ctx.B, va[0])}}
		},
	}
}

// shift builds a shift instruction with the C/libFirm precondition that
// the amount is in range (behaviour is undefined otherwise, §4 Ex. 1).
func shift(name string, f func(b *bv.Builder, x, amt *bv.Term) *bv.Term) *sem.Instr {
	return &sem.Instr{
		Name:    name,
		Args:    []sem.Kind{sem.KindValue, sem.KindValue},
		Results: []sem.Kind{sem.KindValue},
		Cost:    1,
		Sem: func(ctx *sem.Ctx, va, vi []*bv.Term) sem.Effect {
			b := ctx.B
			pre := b.Ult(va[1], b.Const(uint64(ctx.Width), ctx.Width))
			return sem.Effect{
				Results: []*bv.Term{f(b, va[0], va[1])},
				Pre:     pre,
			}
		},
	}
}

// Add returns the addition operation.
func Add() *sem.Instr { return binop("Add", 1, (*bv.Builder).BvAdd) }

// Sub returns the subtraction operation.
func Sub() *sem.Instr { return binop("Sub", 1, (*bv.Builder).BvSub) }

// Mul returns the multiplication operation. Multiplies cost more than
// simple ALU operations in the cycle model, mirroring imul's latency on
// the modeled x86 subset.
func Mul() *sem.Instr { return binop("Mul", 3, (*bv.Builder).BvMul) }

// And returns the bitwise conjunction operation.
func And() *sem.Instr { return binop("And", 1, (*bv.Builder).BvAnd) }

// Or returns the bitwise disjunction operation.
func Or() *sem.Instr { return binop("Or", 1, (*bv.Builder).BvOr) }

// Xor returns the bitwise exclusive-or operation.
func Xor() *sem.Instr { return binop("Eor", 1, (*bv.Builder).BvXor) }

// Not returns the bitwise complement operation.
func Not() *sem.Instr { return unop("Not", 1, (*bv.Builder).BvNot) }

// Minus returns the arithmetic negation operation.
func Minus() *sem.Instr { return unop("Minus", 1, (*bv.Builder).BvNeg) }

// Shl returns the left-shift operation (amount must be < W).
func Shl() *sem.Instr { return shift("Shl", (*bv.Builder).BvShl) }

// Shr returns the logical right shift (amount must be < W).
func Shr() *sem.Instr { return shift("Shr", (*bv.Builder).BvLshr) }

// Shrs returns the arithmetic right shift (amount must be < W).
func Shrs() *sem.Instr { return shift("Shrs", (*bv.Builder).BvAshr) }

// Const returns the constant operation: no arguments, one internal
// attribute (the constant's value, chosen at synthesis time), one
// result.
func Const() *sem.Instr {
	return &sem.Instr{
		Name:      "Const",
		Args:      nil,
		Internals: []sem.Kind{sem.KindValue},
		Results:   []sem.Kind{sem.KindValue},
		Cost:      1,
		Sem: func(ctx *sem.Ctx, va, vi []*bv.Term) sem.Effect {
			return sem.Effect{Results: []*bv.Term{vi[0]}}
		},
	}
}

// Cmp returns the comparison operation. The relation is an internal
// attribute (encoded 0..NumRelations-1 in the low bits of vi[0]); the
// synthesizer picks it, which keeps |I| small (one Cmp component covers
// all relations).
func Cmp() *sem.Instr {
	return &sem.Instr{
		Name:      "Cmp",
		Args:      []sem.Kind{sem.KindValue, sem.KindValue},
		Internals: []sem.Kind{sem.KindValue},
		Results:   []sem.Kind{sem.KindBool},
		Cost:      1,
		Sem: func(ctx *sem.Ctx, va, vi []*bv.Term) sem.Effect {
			b := ctx.B
			// ite chain over the relation code; code ≥ NumRelations is
			// ruled out by the internal-domain constraint below.
			res := CmpTerm(b, RelEq, va[0], va[1])
			for r := 1; r < NumRelations; r++ {
				hit := b.Eq(vi[0], b.Const(uint64(r), ctx.Width))
				res = b.Ite(hit, CmpTerm(b, r, va[0], va[1]), res)
			}
			pre := b.Ult(vi[0], b.Const(uint64(NumRelations), ctx.Width))
			return sem.Effect{Results: []*bv.Term{res}, Pre: pre}
		},
	}
}

// Mux returns the conditional select operation (libFirm's Mux,
// LLVM's select). A conditional select costs more than a plain ALU
// operation, mirroring cmov in the x86 cycle model.
func Mux() *sem.Instr {
	return &sem.Instr{
		Name:    "Mux",
		Args:    []sem.Kind{sem.KindBool, sem.KindValue, sem.KindValue},
		Results: []sem.Kind{sem.KindValue},
		Cost:    2,
		Sem: func(ctx *sem.Ctx, va, vi []*bv.Term) sem.Effect {
			return sem.Effect{Results: []*bv.Term{ctx.B.Ite(va[0], va[1], va[2])}}
		},
	}
}

// Load returns the memory load: M × Ptr → M × Value. The M result
// carries the access flag of the touched address (§4.1), forcing loads
// into the memory chain.
func Load() *sem.Instr {
	return &sem.Instr{
		Name:    "Load",
		Args:    []sem.Kind{sem.KindMem, sem.KindValue},
		Results: []sem.Kind{sem.KindMem, sem.KindValue},
		Cost:    2,
		Sem: func(ctx *sem.Ctx, va, vi []*bv.Term) sem.Effect {
			mOut, val, valid := ctx.Mem.Ld(va[0], va[1])
			return sem.Effect{Results: []*bv.Term{mOut, val}, MemOK: valid}
		},
	}
}

// Store returns the memory store: M × Ptr × Value → M.
func Store() *sem.Instr {
	return &sem.Instr{
		Name:    "Store",
		Args:    []sem.Kind{sem.KindMem, sem.KindValue, sem.KindValue},
		Results: []sem.Kind{sem.KindMem},
		Cost:    2,
		Sem: func(ctx *sem.Ctx, va, vi []*bv.Term) sem.Effect {
			mOut, valid := ctx.Mem.St(va[0], va[1], va[2])
			return sem.Effect{Results: []*bv.Term{mOut}, MemOK: valid}
		},
	}
}

// Ops returns the full IR operation set (fresh instances).
func Ops() []*sem.Instr {
	return []*sem.Instr{
		Add(), Sub(), Mul(), And(), Or(), Xor(),
		Not(), Minus(),
		Shl(), Shr(), Shrs(),
		Const(), Cmp(), Mux(),
		Load(), Store(),
	}
}

// ArithOps returns the integer operation subset without memory,
// comparison, and Mux — the workhorse set for arithmetic goals.
func ArithOps() []*sem.Instr {
	return []*sem.Instr{
		Add(), Sub(), Mul(), And(), Or(), Xor(),
		Not(), Minus(),
		Shl(), Shr(), Shrs(),
		Const(),
	}
}

// ByName looks an operation up in ops.
func ByName(ops []*sem.Instr, name string) *sem.Instr {
	for _, o := range ops {
		if o.Name == name {
			return o
		}
	}
	return nil
}
