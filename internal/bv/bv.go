// Package bv implements a quantifier-free bit-vector (QF_BV) term
// language: hash-consed term DAGs over boolean and fixed-width bit-vector
// sorts, a rewriting simplifier with constant folding, a concrete
// evaluator, and an SMT-LIB-flavoured printer.
//
// Terms are created through a Builder, which interns structurally equal
// terms so that equality of *Term pointers coincides with structural
// equality. All semantic models in internal/ir and internal/x86 are
// expressed as bv terms, and internal/bitblast lowers them to CNF.
package bv

import (
	"fmt"
	"math/bits"
	"strings"
)

// Sort describes the type of a term: Bool, or a BitVec of a given width.
type Sort struct {
	// Width is 0 for Bool, otherwise the bit-vector width (1..64).
	Width int
}

// Bool is the boolean sort.
var Bool = Sort{Width: 0}

// BitVec returns the bit-vector sort of width w (1..64).
func BitVec(w int) Sort {
	if w < 1 || w > 64 {
		panic(fmt.Sprintf("bv: unsupported bit-vector width %d", w))
	}
	return Sort{Width: w}
}

// IsBool reports whether the sort is boolean.
func (s Sort) IsBool() bool { return s.Width == 0 }

func (s Sort) String() string {
	if s.IsBool() {
		return "Bool"
	}
	return fmt.Sprintf("(_ BitVec %d)", s.Width)
}

// Op enumerates term constructors.
type Op int

const (
	// OpConst is a constant; Term.Val holds the value (for Bool, 0 or 1).
	OpConst Op = iota
	// OpVar is a free variable; Term.Name holds its name.
	OpVar

	// Boolean connectives (args are Bool, result Bool).
	OpNot
	OpAnd
	OpOr
	OpXor
	OpImplies
	OpIff

	// Bit-vector bitwise ops (args and result share a BitVec sort).
	OpBvNot
	OpBvAnd
	OpBvOr
	OpBvXor

	// Bit-vector arithmetic.
	OpBvNeg
	OpBvAdd
	OpBvSub
	OpBvMul
	OpBvUdiv
	OpBvUrem

	// Shifts: second argument is the shift amount (same width).
	OpBvShl
	OpBvLshr
	OpBvAshr

	// Predicates (args BitVec, result Bool).
	OpEq
	OpUlt
	OpUle
	OpSlt
	OpSle

	// Structure.
	OpIte     // ite(Bool, T, T) : T (T is Bool or BitVec)
	OpExtract // extract[Hi:Lo](bv)
	OpConcat  // concat(hi, lo)
	OpZext    // zero-extend to Term.Hi bits
	OpSext    // sign-extend to Term.Hi bits
)

var opNames = map[Op]string{
	OpConst: "const", OpVar: "var",
	OpNot: "not", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpImplies: "=>", OpIff: "iff",
	OpBvNot: "bvnot", OpBvAnd: "bvand", OpBvOr: "bvor", OpBvXor: "bvxor",
	OpBvNeg: "bvneg", OpBvAdd: "bvadd", OpBvSub: "bvsub", OpBvMul: "bvmul",
	OpBvUdiv: "bvudiv", OpBvUrem: "bvurem",
	OpBvShl: "bvshl", OpBvLshr: "bvlshr", OpBvAshr: "bvashr",
	OpEq: "=", OpUlt: "bvult", OpUle: "bvule", OpSlt: "bvslt", OpSle: "bvsle",
	OpIte: "ite", OpExtract: "extract", OpConcat: "concat",
	OpZext: "zero_extend", OpSext: "sign_extend",
}

func (o Op) String() string { return opNames[o] }

// Term is an immutable, interned term node. Compare with ==.
type Term struct {
	Op   Op
	Sort Sort
	Args []*Term
	// Val is the constant value for OpConst (truncated to Sort.Width bits).
	Val uint64
	// Name is the variable name for OpVar.
	Name string
	// Hi, Lo parameterize OpExtract (bit range) and OpZext/OpSext (Hi =
	// target width).
	Hi, Lo int

	id int // dense per builder, in creation order: see Builder.terms
}

// ID returns the term's id: unique within its builder, dense from 0,
// and assigned in creation order, so it can index a slice.
func (t *Term) ID() int { return t.id }

// IsConst reports whether t is a constant.
func (t *Term) IsConst() bool { return t.Op == OpConst }

// ConstValue returns the constant's value. Panics if t is not a constant.
func (t *Term) ConstValue() uint64 {
	if t.Op != OpConst {
		panic("bv: ConstValue of non-constant")
	}
	return t.Val
}

// Builder interns terms. The zero value is not usable; call NewBuilder.
type Builder struct {
	// terms[id] is the term with that id. Ids are dense and assigned in
	// creation order, so a term's arguments always have smaller ids
	// than the term itself.
	terms []*Term
	// slots is an open-addressing hash table over every non-variable
	// term's termKey. A constructor probes it before allocating
	// anything; only a miss allocates the new term.
	slots []slot
	// vars interns variables by name; they are not in slots.
	vars map[string]*Term
	// evalMemo backs Builder.Eval, reused from call to call.
	evalMemo evaluator

	// Simplify controls whether constructors apply rewriting rules.
	// Enabled by default; disable for the simplifier ablation experiment.
	Simplify bool
}

// slot is one entry of Builder.slots: the key's hash, which filters
// probes without touching the term, and the term's id+1 (0 marks an
// empty slot).
type slot struct {
	hash uint32
	id1  int32
}

// termKey is a term's structural identity: everything but a
// variable's name, which Builder.vars interns instead.
type termKey struct {
	op     Op
	sort   Sort
	args   [3]*Term
	nargs  int
	val    uint64
	hi, lo int
}

// hash mixes the key's fields, with the arguments by id.
func (k *termKey) hash() uint32 {
	var ids [3]uint32
	for i := 0; i < k.nargs; i++ {
		ids[i] = uint32(k.args[i].id)
	}
	x := uint64(k.op) | uint64(k.sort.Width)<<8 | uint64(k.hi)<<16 | uint64(k.lo)<<24 | uint64(ids[2])<<32
	y := uint64(ids[0]) | uint64(ids[1])<<32
	h := mum(x^0xa0761d6478bd642f, y^0xe7037ed1a0b428db)
	return uint32(mum(h^0x8ebc6af09c88c6e3, k.val^0x589965cc75374cc3))
}

// mum is wyhash's multiply-and-fold mixing step.
func mum(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// matches reports whether t has the key's structure.
func (k *termKey) matches(t *Term) bool {
	if t.Op != k.op || t.Sort != k.sort || t.Val != k.val || t.Hi != k.hi || t.Lo != k.lo || len(t.Args) != k.nargs {
		return false
	}
	for i, a := range t.Args {
		if a != k.args[i] {
			return false
		}
	}
	return true
}

// NewBuilder returns an empty term builder with simplification enabled.
func NewBuilder() *Builder {
	return &Builder{slots: make([]slot, 64), vars: make(map[string]*Term), Simplify: true}
}

// intern returns the term with k's structure, creating it on a miss.
func (b *Builder) intern(k *termKey) *Term {
	h := k.hash()
	mask := uint32(len(b.slots) - 1)
	i := h & mask
	for ; b.slots[i].id1 != 0; i = (i + 1) & mask {
		if s := b.slots[i]; s.hash == h {
			if t := b.terms[s.id1-1]; k.matches(t) {
				return t
			}
		}
	}
	t := b.newTerm(k)
	b.slots[i] = slot{hash: h, id1: int32(t.id + 1)}
	if 2*len(b.terms) > len(b.slots) {
		b.growSlots()
	}
	return t
}

// newTerm creates the term for k under the next id.
func (b *Builder) newTerm(k *termKey) *Term {
	t := &Term{Op: k.op, Sort: k.sort, Val: k.val, Hi: k.hi, Lo: k.lo, id: len(b.terms)}
	if k.nargs > 0 {
		t.Args = append([]*Term(nil), k.args[:k.nargs]...)
	}
	b.terms = append(b.terms, t)
	return t
}

// growSlots doubles the hash table, re-placing entries by their stored
// hashes. Variables occupy ids but no slots, so the load stays below
// one half.
func (b *Builder) growSlots() {
	old := b.slots
	b.slots = make([]slot, 2*len(old))
	mask := uint32(len(b.slots) - 1)
	for _, s := range old {
		if s.id1 == 0 {
			continue
		}
		i := s.hash & mask
		for b.slots[i].id1 != 0 {
			i = (i + 1) & mask
		}
		b.slots[i] = s
	}
}

// app1 interns the unary application op(a).
func (b *Builder) app1(op Op, s Sort, a *Term) *Term {
	return b.intern(&termKey{op: op, sort: s, args: [3]*Term{a}, nargs: 1})
}

// app2 interns the binary application op(x, y).
func (b *Builder) app2(op Op, s Sort, x, y *Term) *Term {
	return b.intern(&termKey{op: op, sort: s, args: [3]*Term{x, y}, nargs: 2})
}

// Owns reports whether t was created by b. A table indexed by term id
// (as bitblast's term cache is) is only valid for one builder's terms.
func (b *Builder) Owns(t *Term) bool { return t.id < len(b.terms) && b.terms[t.id] == t }

// LookupVar returns the variable of the given name, or nil if b has
// none.
func (b *Builder) LookupVar(name string) *Term { return b.vars[name] }

// NumTerms returns the number of distinct interned terms.
func (b *Builder) NumTerms() int { return len(b.terms) }

func mask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// Mask returns the all-ones value of width w. Exposed for model decoding.
func Mask(w int) uint64 { return mask(w) }

// SignBit reports whether the width-w value v has its sign bit set.
func SignBit(v uint64, w int) bool { return v>>(w-1)&1 == 1 }

// SignExtendTo64 interprets v as a w-bit two's-complement value and
// returns it sign-extended to 64 bits.
func SignExtendTo64(v uint64, w int) uint64 {
	if w == 64 || !SignBit(v, w) {
		return v
	}
	return v | ^mask(w)
}

// --- Leaf constructors ---

// Const returns the constant v truncated to width w.
func (b *Builder) Const(v uint64, w int) *Term {
	return b.intern(&termKey{op: OpConst, sort: BitVec(w), val: v & mask(w)})
}

// BoolConst returns the boolean constant.
func (b *Builder) BoolConst(v bool) *Term {
	val := uint64(0)
	if v {
		val = 1
	}
	return b.intern(&termKey{op: OpConst, sort: Bool, val: val})
}

// Var returns the free variable of the given name and sort. Two calls
// with the same name must use the same sort.
func (b *Builder) Var(name string, s Sort) *Term {
	if ex, ok := b.vars[name]; ok {
		if ex.Sort != s {
			panic(fmt.Sprintf("bv: variable %q redeclared with sort %v (was %v)", name, s, ex.Sort))
		}
		return ex
	}
	t := &Term{Op: OpVar, Sort: s, Name: name, id: len(b.terms)}
	b.terms = append(b.terms, t)
	b.vars[name] = t
	return t
}

func (b *Builder) checkBV(op Op, args ...*Term) int {
	w := args[0].Sort.Width
	if w == 0 {
		panic(fmt.Sprintf("bv: %v applied to Bool argument", op))
	}
	for _, a := range args[1:] {
		if a.Sort.Width != w {
			panic(fmt.Sprintf("bv: %v width mismatch: %d vs %d", op, w, a.Sort.Width))
		}
	}
	return w
}

func (b *Builder) checkBool(op Op, args ...*Term) {
	for _, a := range args {
		if !a.Sort.IsBool() {
			panic(fmt.Sprintf("bv: %v applied to non-Bool argument", op))
		}
	}
}

// --- Boolean connectives ---

// Not returns the boolean negation of a.
func (b *Builder) Not(a *Term) *Term {
	b.checkBool(OpNot, a)
	if b.Simplify {
		if a.IsConst() {
			return b.BoolConst(a.Val == 0)
		}
		if a.Op == OpNot {
			return a.Args[0]
		}
	}
	return b.app1(OpNot, Bool, a)
}

// And returns the conjunction of the given boolean terms. And() is true.
func (b *Builder) And(args ...*Term) *Term {
	b.checkBool(OpAnd, args...)
	acc := b.BoolConst(true)
	for _, a := range args {
		acc = b.and2(acc, a)
	}
	return acc
}

func (b *Builder) and2(x, y *Term) *Term {
	if b.Simplify {
		if x.IsConst() {
			if x.Val == 0 {
				return x
			}
			return y
		}
		if y.IsConst() {
			if y.Val == 0 {
				return y
			}
			return x
		}
		if x == y {
			return x
		}
		if (x.Op == OpNot && x.Args[0] == y) || (y.Op == OpNot && y.Args[0] == x) {
			return b.BoolConst(false)
		}
	}
	x, y = orderPair(x, y)
	return b.app2(OpAnd, Bool, x, y)
}

// Or returns the disjunction of the given boolean terms. Or() is false.
func (b *Builder) Or(args ...*Term) *Term {
	b.checkBool(OpOr, args...)
	acc := b.BoolConst(false)
	for _, a := range args {
		acc = b.or2(acc, a)
	}
	return acc
}

func (b *Builder) or2(x, y *Term) *Term {
	if b.Simplify {
		if x.IsConst() {
			if x.Val == 1 {
				return x
			}
			return y
		}
		if y.IsConst() {
			if y.Val == 1 {
				return y
			}
			return x
		}
		if x == y {
			return x
		}
		if (x.Op == OpNot && x.Args[0] == y) || (y.Op == OpNot && y.Args[0] == x) {
			return b.BoolConst(true)
		}
	}
	x, y = orderPair(x, y)
	return b.app2(OpOr, Bool, x, y)
}

// Xor returns the exclusive-or of two boolean terms.
func (b *Builder) Xor(x, y *Term) *Term {
	b.checkBool(OpXor, x, y)
	if b.Simplify {
		if x.IsConst() && y.IsConst() {
			return b.BoolConst(x.Val != y.Val)
		}
		if x == y {
			return b.BoolConst(false)
		}
		if x.IsConst() {
			if x.Val == 0 {
				return y
			}
			return b.Not(y)
		}
		if y.IsConst() {
			if y.Val == 0 {
				return x
			}
			return b.Not(x)
		}
	}
	x, y = orderPair(x, y)
	return b.app2(OpXor, Bool, x, y)
}

// Implies returns x => y.
func (b *Builder) Implies(x, y *Term) *Term {
	b.checkBool(OpImplies, x, y)
	return b.Or(b.Not(x), y)
}

// Iff returns x <=> y.
func (b *Builder) Iff(x, y *Term) *Term {
	b.checkBool(OpIff, x, y)
	return b.Not(b.Xor(x, y))
}

// --- Bit-vector operations ---

func orderPair(x, y *Term) (*Term, *Term) {
	if y.id < x.id {
		return y, x
	}
	return x, y
}

// BvNot returns the bitwise complement.
func (b *Builder) BvNot(a *Term) *Term {
	w := b.checkBV(OpBvNot, a)
	if b.Simplify {
		if a.IsConst() {
			return b.Const(^a.Val, w)
		}
		if a.Op == OpBvNot {
			return a.Args[0]
		}
	}
	return b.app1(OpBvNot, a.Sort, a)
}

// BvAnd returns the bitwise conjunction.
func (b *Builder) BvAnd(x, y *Term) *Term {
	w := b.checkBV(OpBvAnd, x, y)
	if b.Simplify {
		if x.IsConst() && y.IsConst() {
			return b.Const(x.Val&y.Val, w)
		}
		if x == y {
			return x
		}
		if x.IsConst() {
			if x.Val == 0 {
				return x
			}
			if x.Val == mask(w) {
				return y
			}
		}
		if y.IsConst() {
			if y.Val == 0 {
				return y
			}
			if y.Val == mask(w) {
				return x
			}
		}
	}
	x, y = orderPair(x, y)
	return b.app2(OpBvAnd, x.Sort, x, y)
}

// BvOr returns the bitwise disjunction.
func (b *Builder) BvOr(x, y *Term) *Term {
	w := b.checkBV(OpBvOr, x, y)
	if b.Simplify {
		if x.IsConst() && y.IsConst() {
			return b.Const(x.Val|y.Val, w)
		}
		if x == y {
			return x
		}
		if x.IsConst() {
			if x.Val == 0 {
				return y
			}
			if x.Val == mask(w) {
				return x
			}
		}
		if y.IsConst() {
			if y.Val == 0 {
				return x
			}
			if y.Val == mask(w) {
				return y
			}
		}
	}
	x, y = orderPair(x, y)
	return b.app2(OpBvOr, x.Sort, x, y)
}

// BvXor returns the bitwise exclusive-or.
func (b *Builder) BvXor(x, y *Term) *Term {
	w := b.checkBV(OpBvXor, x, y)
	if b.Simplify {
		if x.IsConst() && y.IsConst() {
			return b.Const(x.Val^y.Val, w)
		}
		if x == y {
			return b.Const(0, w)
		}
		if x.IsConst() && x.Val == 0 {
			return y
		}
		if y.IsConst() && y.Val == 0 {
			return x
		}
		if x.IsConst() && x.Val == mask(w) {
			return b.BvNot(y)
		}
		if y.IsConst() && y.Val == mask(w) {
			return b.BvNot(x)
		}
	}
	x, y = orderPair(x, y)
	return b.app2(OpBvXor, x.Sort, x, y)
}

// BvNeg returns the two's-complement negation.
func (b *Builder) BvNeg(a *Term) *Term {
	w := b.checkBV(OpBvNeg, a)
	if b.Simplify {
		if a.IsConst() {
			return b.Const(-a.Val, w)
		}
		if a.Op == OpBvNeg {
			return a.Args[0]
		}
	}
	return b.app1(OpBvNeg, a.Sort, a)
}

// BvAdd returns the sum modulo 2^w.
func (b *Builder) BvAdd(x, y *Term) *Term {
	w := b.checkBV(OpBvAdd, x, y)
	if b.Simplify {
		if x.IsConst() && y.IsConst() {
			return b.Const(x.Val+y.Val, w)
		}
		if x.IsConst() && x.Val == 0 {
			return y
		}
		if y.IsConst() && y.Val == 0 {
			return x
		}
	}
	x, y = orderPair(x, y)
	return b.app2(OpBvAdd, x.Sort, x, y)
}

// BvSub returns the difference modulo 2^w.
func (b *Builder) BvSub(x, y *Term) *Term {
	w := b.checkBV(OpBvSub, x, y)
	if b.Simplify {
		if x.IsConst() && y.IsConst() {
			return b.Const(x.Val-y.Val, w)
		}
		if y.IsConst() && y.Val == 0 {
			return x
		}
		if x == y {
			return b.Const(0, w)
		}
	}
	return b.app2(OpBvSub, x.Sort, x, y)
}

// BvMul returns the product modulo 2^w.
func (b *Builder) BvMul(x, y *Term) *Term {
	w := b.checkBV(OpBvMul, x, y)
	if b.Simplify {
		if x.IsConst() && y.IsConst() {
			return b.Const(x.Val*y.Val, w)
		}
		if x.IsConst() {
			if x.Val == 0 {
				return x
			}
			if x.Val == 1 {
				return y
			}
		}
		if y.IsConst() {
			if y.Val == 0 {
				return y
			}
			if y.Val == 1 {
				return x
			}
		}
	}
	x, y = orderPair(x, y)
	return b.app2(OpBvMul, x.Sort, x, y)
}

// BvUdiv returns unsigned division; division by zero yields all-ones
// (the SMT-LIB convention).
func (b *Builder) BvUdiv(x, y *Term) *Term {
	w := b.checkBV(OpBvUdiv, x, y)
	if b.Simplify && x.IsConst() && y.IsConst() {
		if y.Val == 0 {
			return b.Const(mask(w), w)
		}
		return b.Const(x.Val/y.Val, w)
	}
	return b.app2(OpBvUdiv, x.Sort, x, y)
}

// BvUrem returns the unsigned remainder; remainder by zero yields x
// (the SMT-LIB convention).
func (b *Builder) BvUrem(x, y *Term) *Term {
	b.checkBV(OpBvUrem, x, y)
	if b.Simplify && x.IsConst() && y.IsConst() {
		if y.Val == 0 {
			return x
		}
		return b.Const(x.Val%y.Val, x.Sort.Width)
	}
	return b.app2(OpBvUrem, x.Sort, x, y)
}

// BvShl returns x shifted left by y; shifts ≥ w yield zero.
func (b *Builder) BvShl(x, y *Term) *Term {
	w := b.checkBV(OpBvShl, x, y)
	if b.Simplify {
		if x.IsConst() && y.IsConst() {
			if y.Val >= uint64(w) {
				return b.Const(0, w)
			}
			return b.Const(x.Val<<y.Val, w)
		}
		if y.IsConst() && y.Val == 0 {
			return x
		}
	}
	return b.app2(OpBvShl, x.Sort, x, y)
}

// BvLshr returns the logical right shift; shifts ≥ w yield zero.
func (b *Builder) BvLshr(x, y *Term) *Term {
	w := b.checkBV(OpBvLshr, x, y)
	if b.Simplify {
		if x.IsConst() && y.IsConst() {
			if y.Val >= uint64(w) {
				return b.Const(0, w)
			}
			return b.Const((x.Val&mask(w))>>y.Val, w)
		}
		if y.IsConst() && y.Val == 0 {
			return x
		}
	}
	return b.app2(OpBvLshr, x.Sort, x, y)
}

// BvAshr returns the arithmetic right shift; shifts ≥ w yield the sign
// fill.
func (b *Builder) BvAshr(x, y *Term) *Term {
	w := b.checkBV(OpBvAshr, x, y)
	if b.Simplify {
		if x.IsConst() && y.IsConst() {
			sx := SignExtendTo64(x.Val&mask(w), w)
			sh := y.Val
			if sh >= uint64(w) {
				sh = uint64(w - 1)
			}
			return b.Const(uint64(int64(sx)>>sh), w)
		}
		if y.IsConst() && y.Val == 0 {
			return x
		}
	}
	return b.app2(OpBvAshr, x.Sort, x, y)
}

// --- Predicates ---

// Eq returns x = y (both Bool or both the same BitVec sort).
func (b *Builder) Eq(x, y *Term) *Term {
	if x.Sort != y.Sort {
		panic(fmt.Sprintf("bv: = sort mismatch: %v vs %v", x.Sort, y.Sort))
	}
	if b.Simplify {
		if x == y {
			return b.BoolConst(true)
		}
		if x.IsConst() && y.IsConst() {
			return b.BoolConst(x.Val == y.Val)
		}
	}
	x, y = orderPair(x, y)
	return b.app2(OpEq, Bool, x, y)
}

// Distinct returns the pairwise-distinct constraint over the terms.
func (b *Builder) Distinct(ts ...*Term) *Term {
	acc := b.BoolConst(true)
	for i := range ts {
		for j := i + 1; j < len(ts); j++ {
			acc = b.And(acc, b.Not(b.Eq(ts[i], ts[j])))
		}
	}
	return acc
}

// Ult returns the unsigned less-than predicate.
func (b *Builder) Ult(x, y *Term) *Term {
	b.checkBV(OpUlt, x, y)
	if b.Simplify {
		if x.IsConst() && y.IsConst() {
			return b.BoolConst(x.Val < y.Val)
		}
		if x == y {
			return b.BoolConst(false)
		}
	}
	return b.app2(OpUlt, Bool, x, y)
}

// Ule returns the unsigned less-or-equal predicate.
func (b *Builder) Ule(x, y *Term) *Term {
	b.checkBV(OpUle, x, y)
	if b.Simplify {
		if x.IsConst() && y.IsConst() {
			return b.BoolConst(x.Val <= y.Val)
		}
		if x == y {
			return b.BoolConst(true)
		}
	}
	return b.app2(OpUle, Bool, x, y)
}

// Slt returns the signed less-than predicate.
func (b *Builder) Slt(x, y *Term) *Term {
	w := b.checkBV(OpSlt, x, y)
	if b.Simplify {
		if x.IsConst() && y.IsConst() {
			return b.BoolConst(int64(SignExtendTo64(x.Val, w)) < int64(SignExtendTo64(y.Val, w)))
		}
		if x == y {
			return b.BoolConst(false)
		}
	}
	return b.app2(OpSlt, Bool, x, y)
}

// Sle returns the signed less-or-equal predicate.
func (b *Builder) Sle(x, y *Term) *Term {
	w := b.checkBV(OpSle, x, y)
	if b.Simplify {
		if x.IsConst() && y.IsConst() {
			return b.BoolConst(int64(SignExtendTo64(x.Val, w)) <= int64(SignExtendTo64(y.Val, w)))
		}
		if x == y {
			return b.BoolConst(true)
		}
	}
	return b.app2(OpSle, Bool, x, y)
}

// --- Structure ---

// Ite returns if-then-else; t and e must share a sort.
func (b *Builder) Ite(c, t, e *Term) *Term {
	b.checkBool(OpIte, c)
	if t.Sort != e.Sort {
		panic(fmt.Sprintf("bv: ite branch sorts differ: %v vs %v", t.Sort, e.Sort))
	}
	if b.Simplify {
		if c.IsConst() {
			if c.Val == 1 {
				return t
			}
			return e
		}
		if t == e {
			return t
		}
	}
	return b.intern(&termKey{op: OpIte, sort: t.Sort, args: [3]*Term{c, t, e}, nargs: 3})
}

// Extract returns bits hi..lo (inclusive) of a, as a BitVec(hi-lo+1).
func (b *Builder) Extract(a *Term, hi, lo int) *Term {
	w := a.Sort.Width
	if w == 0 || hi >= w || lo < 0 || hi < lo {
		panic(fmt.Sprintf("bv: extract[%d:%d] of %v", hi, lo, a.Sort))
	}
	nw := hi - lo + 1
	if b.Simplify {
		if a.IsConst() {
			return b.Const(a.Val>>lo, nw)
		}
		if nw == w {
			return a
		}
	}
	return b.intern(&termKey{op: OpExtract, sort: BitVec(nw), args: [3]*Term{a}, nargs: 1, hi: hi, lo: lo})
}

// Concat returns hi ++ lo with hi in the most significant bits.
func (b *Builder) Concat(hi, lo *Term) *Term {
	wh, wl := hi.Sort.Width, lo.Sort.Width
	if wh == 0 || wl == 0 {
		panic("bv: concat of Bool")
	}
	if wh+wl > 64 {
		panic(fmt.Sprintf("bv: concat width %d exceeds 64", wh+wl))
	}
	if b.Simplify && hi.IsConst() && lo.IsConst() {
		return b.Const(hi.Val<<wl|lo.Val, wh+wl)
	}
	return b.app2(OpConcat, BitVec(wh+wl), hi, lo)
}

// Zext zero-extends a to the given width.
func (b *Builder) Zext(a *Term, w int) *Term {
	aw := a.Sort.Width
	if aw == 0 || w < aw {
		panic(fmt.Sprintf("bv: zext %v to %d", a.Sort, w))
	}
	if w == aw {
		return a
	}
	if b.Simplify && a.IsConst() {
		return b.Const(a.Val, w)
	}
	return b.intern(&termKey{op: OpZext, sort: BitVec(w), args: [3]*Term{a}, nargs: 1, hi: w})
}

// Sext sign-extends a to the given width.
func (b *Builder) Sext(a *Term, w int) *Term {
	aw := a.Sort.Width
	if aw == 0 || w < aw {
		panic(fmt.Sprintf("bv: sext %v to %d", a.Sort, w))
	}
	if w == aw {
		return a
	}
	if b.Simplify && a.IsConst() {
		return b.Const(SignExtendTo64(a.Val, aw), w)
	}
	return b.intern(&termKey{op: OpSext, sort: BitVec(w), args: [3]*Term{a}, nargs: 1, hi: w})
}

// BoolToBV returns a 1-bit vector that is 1 when c holds.
func (b *Builder) BoolToBV(c *Term) *Term {
	return b.Ite(c, b.Const(1, 1), b.Const(0, 1))
}

// --- Evaluation ---

// Model maps variable names to concrete values (Bool: 0 or 1).
type Model map[string]uint64

// Eval evaluates t under m. Unbound variables evaluate to zero. The
// result is truncated to the term's width (Bool: 0 or 1). Each call
// allocates a memo covering t's builder up to t; to evaluate one
// builder's formulas under many models, use Builder.Eval.
func Eval(t *Term, m Model) uint64 {
	if t.Op == OpConst {
		return t.Val
	}
	// A term's arguments have smaller ids, so ids up to t's own cover
	// every term it reaches.
	e := evaluator{m: m, memo: make([]evalSlot, t.id+1), gen: 1}
	return e.eval(t)
}

// Eval is the package-level Eval for one of b's terms, memoized in a
// table b keeps from call to call, so that evaluating the same
// formulas under many models allocates nothing.
func (b *Builder) Eval(t *Term, m Model) uint64 {
	if !b.Owns(t) {
		panic("bv: Eval of a term from another builder")
	}
	e := &b.evalMemo
	if n := len(b.terms); len(e.memo) < n {
		e.memo = append(e.memo, make([]evalSlot, n-len(e.memo))...)
	}
	e.gen++
	if e.gen == 0 {
		clear(e.memo)
		e.gen = 1
	}
	e.m = m
	v := e.eval(t)
	e.m = nil
	return v
}

// evaluator memoizes term values by id: memo[id] holds a value that is
// current when its stamp equals gen.
type evaluator struct {
	m    Model
	memo []evalSlot
	gen  uint32
}

type evalSlot struct {
	val uint64
	gen uint32
}

func (e *evaluator) eval(t *Term) uint64 {
	if s := &e.memo[t.id]; s.gen == e.gen {
		return s.val
	}
	m := e.m
	var v uint64
	w := t.Sort.Width
	arg := func(i int) uint64 { return e.eval(t.Args[i]) }
	switch t.Op {
	case OpConst:
		v = t.Val
	case OpVar:
		v = m[t.Name]
		if !t.Sort.IsBool() {
			v &= mask(w)
		}
	case OpNot:
		v = 1 - arg(0)
	case OpAnd:
		v = arg(0) & arg(1)
	case OpOr:
		v = arg(0) | arg(1)
	case OpXor:
		v = arg(0) ^ arg(1)
	case OpImplies:
		v = (1 - arg(0)) | arg(1)
	case OpIff:
		if arg(0) == arg(1) {
			v = 1
		}
	case OpBvNot:
		v = ^arg(0) & mask(w)
	case OpBvAnd:
		v = arg(0) & arg(1)
	case OpBvOr:
		v = arg(0) | arg(1)
	case OpBvXor:
		v = arg(0) ^ arg(1)
	case OpBvNeg:
		v = -arg(0) & mask(w)
	case OpBvAdd:
		v = (arg(0) + arg(1)) & mask(w)
	case OpBvSub:
		v = (arg(0) - arg(1)) & mask(w)
	case OpBvMul:
		v = (arg(0) * arg(1)) & mask(w)
	case OpBvUdiv:
		d := arg(1)
		if d == 0 {
			v = mask(w)
		} else {
			v = arg(0) / d
		}
	case OpBvUrem:
		d := arg(1)
		if d == 0 {
			v = arg(0)
		} else {
			v = arg(0) % d
		}
	case OpBvShl:
		sh := arg(1)
		if sh >= uint64(w) {
			v = 0
		} else {
			v = arg(0) << sh & mask(w)
		}
	case OpBvLshr:
		sh := arg(1)
		if sh >= uint64(w) {
			v = 0
		} else {
			v = arg(0) >> sh
		}
	case OpBvAshr:
		sh := arg(1)
		if sh >= uint64(w) {
			sh = uint64(w - 1)
		}
		v = uint64(int64(SignExtendTo64(arg(0), w))>>sh) & mask(w)
	case OpEq:
		if arg(0) == arg(1) {
			v = 1
		}
	case OpUlt:
		if arg(0) < arg(1) {
			v = 1
		}
	case OpUle:
		if arg(0) <= arg(1) {
			v = 1
		}
	case OpSlt:
		aw := t.Args[0].Sort.Width
		if int64(SignExtendTo64(arg(0), aw)) < int64(SignExtendTo64(arg(1), aw)) {
			v = 1
		}
	case OpSle:
		aw := t.Args[0].Sort.Width
		if int64(SignExtendTo64(arg(0), aw)) <= int64(SignExtendTo64(arg(1), aw)) {
			v = 1
		}
	case OpIte:
		if arg(0) == 1 {
			v = arg(1)
		} else {
			v = arg(2)
		}
	case OpExtract:
		v = arg(0) >> t.Lo & mask(w)
	case OpConcat:
		v = arg(0)<<t.Args[1].Sort.Width | arg(1)
	case OpZext:
		v = arg(0)
	case OpSext:
		v = SignExtendTo64(arg(0), t.Args[0].Sort.Width) & mask(w)
	default:
		panic(fmt.Sprintf("bv: eval of unknown op %v", t.Op))
	}
	e.memo[t.id] = evalSlot{val: v, gen: e.gen}
	return v
}

// --- Printing ---

// String renders the term as an SMT-LIB-like s-expression.
func (t *Term) String() string {
	var sb strings.Builder
	t.write(&sb)
	return sb.String()
}

func (t *Term) write(sb *strings.Builder) {
	switch t.Op {
	case OpConst:
		if t.Sort.IsBool() {
			if t.Val == 1 {
				sb.WriteString("true")
			} else {
				sb.WriteString("false")
			}
			return
		}
		fmt.Fprintf(sb, "#x%0*x", (t.Sort.Width+3)/4, t.Val)
	case OpVar:
		sb.WriteString(t.Name)
	case OpExtract:
		fmt.Fprintf(sb, "((_ extract %d %d) ", t.Hi, t.Lo)
		t.Args[0].write(sb)
		sb.WriteByte(')')
	case OpZext, OpSext:
		fmt.Fprintf(sb, "((_ %s %d) ", opNames[t.Op], t.Hi-t.Args[0].Sort.Width)
		t.Args[0].write(sb)
		sb.WriteByte(')')
	default:
		sb.WriteByte('(')
		sb.WriteString(opNames[t.Op])
		for _, a := range t.Args {
			sb.WriteByte(' ')
			a.write(sb)
		}
		sb.WriteByte(')')
	}
}

// Vars returns the distinct free variables of t in first-occurrence
// order of a depth-first walk.
func Vars(t *Term) []*Term {
	var out []*Term
	seen := make(map[*Term]bool)
	var walk func(*Term)
	walk = func(u *Term) {
		if seen[u] {
			return
		}
		seen[u] = true
		if u.Op == OpVar {
			out = append(out, u)
			return
		}
		for _, a := range u.Args {
			walk(a)
		}
	}
	walk(t)
	return out
}

// Size returns the number of distinct nodes in the term DAG.
func Size(t *Term) int {
	seen := make(map[*Term]bool)
	var walk func(*Term)
	walk = func(u *Term) {
		if seen[u] {
			return
		}
		seen[u] = true
		for _, a := range u.Args {
			walk(a)
		}
	}
	walk(t)
	return len(seen)
}

// PopCount is a helper for semantic models that need population counts
// of constants (e.g. parity flags).
func PopCount(v uint64) int { return bits.OnesCount64(v) }
