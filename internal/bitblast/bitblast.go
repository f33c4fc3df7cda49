// Package bitblast lowers bv terms to CNF over a sat.Solver (Tseitin
// encoding). Booleans become single literals; bit-vectors become literal
// vectors (LSB first). Adders are ripple-carry, shifts are logarithmic
// barrel shifters, multiplication is the shift-and-add schoolbook
// circuit, and comparisons are unrolled carry chains.
//
// This is the same lowering a QF_BV SMT solver such as Z3 or Boolector
// performs internally; together with internal/sat it replaces the Z3
// dependency of the reproduced paper.
package bitblast

import (
	"fmt"

	"selgen/internal/bv"
	"selgen/internal/sat"
)

// Blaster converts terms to CNF incrementally. Terms are cached by id
// and gates by their normalized inputs (see gateKey), so structurally
// equal circuits over the same literals — say, one component's
// semantics instantiated on two test cases that agree on some bits —
// share their output variables instead of re-emitting clauses.
type Blaster struct {
	S *sat.Solver

	// b is the builder whose terms the id-indexed cache holds; Blast
	// panics on any other builder's term, whose id would alias one of
	// b's.
	b *bv.Builder
	// cache[id] holds the literals of b's term with that id, nil until
	// blasted; blasted lists the ids set since the last Reset.
	cache   [][]sat.Lit
	blasted []int32
	// loose holds literals VarLits allocated for variables that no
	// Blast has reached yet; blasting the variable adopts them.
	loose []looseVar
	gates gateTable

	// Hits and Misses count term-cache lookups in Blast; with a
	// long-lived Blaster shared across CEGIS iterations the hit rate
	// measures how much re-blasting the incremental pipeline avoids.
	Hits, Misses int64

	litTrue  sat.Lit
	haveTrue bool
}

// looseVar is a variable's literal vector allocated before the
// variable was blasted.
type looseVar struct {
	name string
	lits []sat.Lit
}

// New returns a Blaster for b's terms over the given solver.
func New(b *bv.Builder, s *sat.Solver) *Blaster {
	return &Blaster{S: s, b: b, gates: newGateTable()}
}

// Reset forgets every blasted term, variable and gate, for reuse over
// S after S.Recycle. The tables keep their allocations; Hits and
// Misses keep counting.
func (bb *Blaster) Reset() {
	for _, id := range bb.blasted {
		bb.cache[id] = nil
	}
	bb.blasted = bb.blasted[:0]
	clear(bb.loose)
	bb.loose = bb.loose[:0]
	bb.gates.reset()
	bb.haveTrue = false
}

// lookup returns t's cached literals, or nil.
func (bb *Blaster) lookup(t *bv.Term) []sat.Lit {
	if !bb.b.Owns(t) {
		panic(fmt.Sprintf("bitblast: term %v is not from the blaster's builder", t))
	}
	if id := t.ID(); id < len(bb.cache) {
		return bb.cache[id]
	}
	return nil
}

// store caches ls as t's literals.
func (bb *Blaster) store(t *bv.Term, ls []sat.Lit) {
	id := t.ID()
	if id >= len(bb.cache) {
		n := bb.b.NumTerms()
		if n > cap(bb.cache) {
			grown := make([][]sat.Lit, n, max(n, 2*cap(bb.cache)))
			copy(grown, bb.cache)
			bb.cache = grown
		}
		// Entries past the old length were never written: still nil.
		bb.cache = bb.cache[:n]
	}
	bb.cache[id] = ls
	bb.blasted = append(bb.blasted, int32(id))
}

// constTrue returns a literal asserted true at the top level.
func (bb *Blaster) constTrue() sat.Lit {
	if !bb.haveTrue {
		v := bb.S.NewVar()
		bb.litTrue = sat.MkLit(v, false)
		bb.S.AddClause(bb.litTrue)
		bb.haveTrue = true
	}
	return bb.litTrue
}

func (bb *Blaster) constFalse() sat.Lit { return bb.constTrue().Not() }

func (bb *Blaster) constLit(b bool) sat.Lit {
	if b {
		return bb.constTrue()
	}
	return bb.constFalse()
}

func (bb *Blaster) fresh() sat.Lit { return sat.MkLit(bb.S.NewVar(), false) }

// VarLits returns (allocating if needed) the literal vector backing the
// named variable of the given sort: length 1 for Bool, Width otherwise.
func (bb *Blaster) VarLits(name string, sort bv.Sort) []sat.Lit {
	if v := bb.b.LookupVar(name); v != nil {
		if ls := bb.lookup(v); ls != nil {
			return ls
		}
	}
	if ls := bb.looseLits(name); ls != nil {
		return ls
	}
	ls := bb.freshVec(sort)
	bb.loose = append(bb.loose, looseVar{name: name, lits: ls})
	return ls
}

// looseLits returns the literals VarLits allocated for the named
// variable before it was blasted, or nil.
func (bb *Blaster) looseLits(name string) []sat.Lit {
	for _, lv := range bb.loose {
		if lv.name == name {
			return lv.lits
		}
	}
	return nil
}

// freshVec allocates a fresh literal per bit of sort (one for Bool).
func (bb *Blaster) freshVec(sort bv.Sort) []sat.Lit {
	n := sort.Width
	if sort.IsBool() {
		n = 1
	}
	ls := make([]sat.Lit, n)
	for i := range ls {
		ls[i] = bb.fresh()
	}
	return ls
}

// Bind makes the variable v an alias of u's literals, blasting u, so
// the equation v = u costs no clauses. It declines, returning false,
// when v is not a variable or has literals once u is blasted: either an
// earlier clause may mention them, or u reaches v (v = f(v) constrains
// v rather than defining it). An alias cannot be retracted: bind only
// equations that hold permanently.
func (bb *Blaster) Bind(v, u *bv.Term) bool {
	if v.Op != bv.OpVar {
		return false
	}
	ls := bb.Blast(u)
	if bb.lookup(v) != nil || bb.looseLits(v.Name) != nil {
		return false
	}
	bb.store(v, ls)
	return true
}

// Assert adds the boolean term t as a top-level constraint.
func (bb *Blaster) Assert(t *bv.Term) {
	if !t.Sort.IsBool() {
		panic("bitblast: asserting non-boolean term")
	}
	l := bb.Blast(t)[0]
	bb.S.AddClause(l)
}

// Blast lowers t and returns its literal vector (length 1 for Bool).
func (bb *Blaster) Blast(t *bv.Term) []sat.Lit {
	if ls := bb.lookup(t); ls != nil {
		bb.Hits++
		return ls
	}
	bb.Misses++
	ls := bb.blast(t)
	bb.store(t, ls)
	return ls
}

func (bb *Blaster) blast(t *bv.Term) []sat.Lit {
	switch t.Op {
	case bv.OpConst:
		if t.Sort.IsBool() {
			return []sat.Lit{bb.constLit(t.Val == 1)}
		}
		out := make([]sat.Lit, t.Sort.Width)
		for i := range out {
			out[i] = bb.constLit(t.Val>>i&1 == 1)
		}
		return out
	case bv.OpVar:
		if ls := bb.looseLits(t.Name); ls != nil {
			return ls
		}
		return bb.freshVec(t.Sort)
	case bv.OpNot:
		a := bb.Blast(t.Args[0])
		return []sat.Lit{a[0].Not()}
	case bv.OpAnd:
		return []sat.Lit{bb.andGate(bb.Blast(t.Args[0])[0], bb.Blast(t.Args[1])[0])}
	case bv.OpOr:
		return []sat.Lit{bb.orGate(bb.Blast(t.Args[0])[0], bb.Blast(t.Args[1])[0])}
	case bv.OpXor:
		return []sat.Lit{bb.xorGate(bb.Blast(t.Args[0])[0], bb.Blast(t.Args[1])[0])}
	case bv.OpImplies:
		return []sat.Lit{bb.orGate(bb.Blast(t.Args[0])[0].Not(), bb.Blast(t.Args[1])[0])}
	case bv.OpIff:
		return []sat.Lit{bb.xorGate(bb.Blast(t.Args[0])[0], bb.Blast(t.Args[1])[0]).Not()}
	case bv.OpBvNot:
		a := bb.Blast(t.Args[0])
		out := make([]sat.Lit, len(a))
		for i := range a {
			out[i] = a[i].Not()
		}
		return out
	case bv.OpBvAnd, bv.OpBvOr, bv.OpBvXor:
		a, b := bb.Blast(t.Args[0]), bb.Blast(t.Args[1])
		out := make([]sat.Lit, len(a))
		for i := range a {
			switch t.Op {
			case bv.OpBvAnd:
				out[i] = bb.andGate(a[i], b[i])
			case bv.OpBvOr:
				out[i] = bb.orGate(a[i], b[i])
			default:
				out[i] = bb.xorGate(a[i], b[i])
			}
		}
		return out
	case bv.OpBvNeg:
		a := bb.Blast(t.Args[0])
		// -a = ~a + 1.
		na := make([]sat.Lit, len(a))
		for i := range a {
			na[i] = a[i].Not()
		}
		one := make([]sat.Lit, len(a))
		one[0] = bb.constTrue()
		for i := 1; i < len(one); i++ {
			one[i] = bb.constFalse()
		}
		sum, _ := bb.adder(na, one, bb.constFalse())
		return sum
	case bv.OpBvAdd:
		a, b := bb.Blast(t.Args[0]), bb.Blast(t.Args[1])
		sum, _ := bb.adder(a, b, bb.constFalse())
		return sum
	case bv.OpBvSub:
		a, b := bb.Blast(t.Args[0]), bb.Blast(t.Args[1])
		nb := make([]sat.Lit, len(b))
		for i := range b {
			nb[i] = b[i].Not()
		}
		sum, _ := bb.adder(a, nb, bb.constTrue())
		return sum
	case bv.OpBvMul:
		return bb.multiplier(bb.Blast(t.Args[0]), bb.Blast(t.Args[1]))
	case bv.OpBvUdiv, bv.OpBvUrem:
		return bb.divider(t.Op, bb.Blast(t.Args[0]), bb.Blast(t.Args[1]))
	case bv.OpBvShl, bv.OpBvLshr, bv.OpBvAshr:
		return bb.shifter(t.Op, bb.Blast(t.Args[0]), bb.Blast(t.Args[1]))
	case bv.OpEq:
		a, b := bb.Blast(t.Args[0]), bb.Blast(t.Args[1])
		return []sat.Lit{bb.equality(a, b)}
	case bv.OpUlt:
		a, b := bb.Blast(t.Args[0]), bb.Blast(t.Args[1])
		return []sat.Lit{bb.ultGate(a, b)}
	case bv.OpUle:
		a, b := bb.Blast(t.Args[0]), bb.Blast(t.Args[1])
		return []sat.Lit{bb.ultGate(b, a).Not()}
	case bv.OpSlt:
		a, b := bb.Blast(t.Args[0]), bb.Blast(t.Args[1])
		return []sat.Lit{bb.sltGate(a, b)}
	case bv.OpSle:
		a, b := bb.Blast(t.Args[0]), bb.Blast(t.Args[1])
		return []sat.Lit{bb.sltGate(b, a).Not()}
	case bv.OpIte:
		c := bb.Blast(t.Args[0])[0]
		a, b := bb.Blast(t.Args[1]), bb.Blast(t.Args[2])
		out := make([]sat.Lit, len(a))
		for i := range a {
			out[i] = bb.muxGate(c, a[i], b[i])
		}
		return out
	case bv.OpExtract:
		a := bb.Blast(t.Args[0])
		return a[t.Lo : t.Hi+1]
	case bv.OpConcat:
		hi, lo := bb.Blast(t.Args[0]), bb.Blast(t.Args[1])
		out := make([]sat.Lit, 0, len(hi)+len(lo))
		out = append(out, lo...)
		return append(out, hi...)
	case bv.OpZext:
		a := bb.Blast(t.Args[0])
		out := make([]sat.Lit, t.Sort.Width)
		copy(out, a)
		for i := len(a); i < len(out); i++ {
			out[i] = bb.constFalse()
		}
		return out
	case bv.OpSext:
		a := bb.Blast(t.Args[0])
		out := make([]sat.Lit, t.Sort.Width)
		copy(out, a)
		for i := len(a); i < len(out); i++ {
			out[i] = a[len(a)-1]
		}
		return out
	}
	panic(fmt.Sprintf("bitblast: unhandled op %v", t.Op))
}

// gateKind names a hash-consed Tseitin gate.
type gateKind uint8

const (
	gateAnd gateKind = iota
	gateXor
	gateMux
)

// gateKey identifies a gate by its normalized input literals: AND
// inputs sorted; XOR inputs positive (their negations moved to the
// output) and sorted; MUX condition positive (a negated condition
// swaps the data inputs). Two gates with equal keys compute the same
// function, so the second reuses the first's output literal.
type gateKey struct {
	kind    gateKind
	x, y, z sat.Lit
}

func (k gateKey) hash() uint32 {
	h := uint64(uint32(k.x)) | uint64(uint32(k.y))<<32
	h ^= (uint64(uint32(k.z)) | uint64(k.kind)<<32) * 0x9e3779b97f4a7c15
	h *= 0xbf58476d1ce4e5b9
	return uint32(h >> 32)
}

// gateTable maps gate keys to output literals by open addressing with
// linear probing.
type gateTable struct {
	slots []gateSlot
	// used lists the occupied slots, so reset clears only those.
	used []int32
}

// gateSlot holds a key and its output literal plus one; 0 marks an
// empty slot.
type gateSlot struct {
	key  gateKey
	out1 sat.Lit
}

func newGateTable() gateTable { return gateTable{slots: make([]gateSlot, 256)} }

func (g *gateTable) reset() {
	for _, i := range g.used {
		g.slots[i] = gateSlot{}
	}
	g.used = g.used[:0]
}

// find returns k's slot index and whether it is occupied by k; an
// unoccupied index is where k belongs.
func (g *gateTable) find(k gateKey) (int32, bool) {
	mask := uint32(len(g.slots) - 1)
	for i := k.hash() & mask; ; i = (i + 1) & mask {
		s := &g.slots[i]
		if s.out1 == 0 {
			return int32(i), false
		}
		if s.key == k {
			return int32(i), true
		}
	}
}

// insert places k at the unoccupied slot i that find returned.
func (g *gateTable) insert(i int32, k gateKey, out sat.Lit) {
	g.slots[i] = gateSlot{key: k, out1: out + 1}
	g.used = append(g.used, i)
	if 2*len(g.used) > len(g.slots) {
		g.grow()
	}
}

func (g *gateTable) grow() {
	old := g.slots
	g.slots = make([]gateSlot, 2*len(old))
	g.used = g.used[:0]
	for _, s := range old {
		if s.out1 != 0 {
			i, _ := g.find(s.key)
			g.slots[i] = s
			g.used = append(g.used, i)
		}
	}
}

// gate returns the output literal hash-consed under k, reporting
// whether it is new (and so still needs its defining clauses).
func (bb *Blaster) gate(k gateKey) (sat.Lit, bool) {
	i, ok := bb.gates.find(k)
	if ok {
		return bb.gates.slots[i].out1 - 1, false
	}
	o := bb.fresh()
	bb.gates.insert(i, k, o)
	return o, true
}

// positive strips l's sign.
func positive(l sat.Lit) sat.Lit { return sat.MkLit(l.Var(), false) }

// andGate returns a literal equivalent to a & b.
func (bb *Blaster) andGate(a, b sat.Lit) sat.Lit {
	if a > b {
		a, b = b, a
	}
	if a == b {
		return a
	}
	if a == b.Not() {
		return bb.constFalse()
	}
	if bb.haveTrue {
		switch bb.litTrue {
		case a:
			return b
		case b:
			return a
		case a.Not(), b.Not():
			return bb.constFalse()
		}
	}
	o, fresh := bb.gate(gateKey{kind: gateAnd, x: a, y: b})
	if fresh {
		bb.S.AddClause(o.Not(), a)
		bb.S.AddClause(o.Not(), b)
		bb.S.AddClause(o, a.Not(), b.Not())
	}
	return o
}

// orGate returns a literal equivalent to a | b.
func (bb *Blaster) orGate(a, b sat.Lit) sat.Lit {
	return bb.andGate(a.Not(), b.Not()).Not()
}

// xorGate returns a literal equivalent to a ^ b.
func (bb *Blaster) xorGate(a, b sat.Lit) sat.Lit {
	// ¬a ^ b = ¬(a ^ b): move the input signs to the output.
	neg := a.Neg() != b.Neg()
	a, b = positive(a), positive(b)
	if a > b {
		a, b = b, a
	}
	var o sat.Lit
	switch {
	case a == b:
		o = bb.constFalse()
	case bb.haveTrue && a == bb.litTrue:
		o = b.Not()
	case bb.haveTrue && b == bb.litTrue:
		o = a.Not()
	default:
		var fresh bool
		o, fresh = bb.gate(gateKey{kind: gateXor, x: a, y: b})
		if fresh {
			bb.S.AddClause(o.Not(), a, b)
			bb.S.AddClause(o.Not(), a.Not(), b.Not())
			bb.S.AddClause(o, a, b.Not())
			bb.S.AddClause(o, a.Not(), b)
		}
	}
	if neg {
		return o.Not()
	}
	return o
}

// muxGate returns c ? a : b. A constant data input folds the mux into
// an AND or an OR (and two constant inputs into c or ¬c), which needs
// three clauses or none instead of four.
func (bb *Blaster) muxGate(c, a, b sat.Lit) sat.Lit {
	if c.Neg() {
		c, a, b = c.Not(), b, a
	}
	if a == b {
		return a
	}
	if bb.haveTrue {
		switch bb.litTrue {
		case c:
			return a
		case a:
			return bb.orGate(c, b)
		case a.Not():
			return bb.andGate(c.Not(), b)
		case b:
			return bb.orGate(c.Not(), a)
		case b.Not():
			return bb.andGate(c, a)
		}
	}
	o, fresh := bb.gate(gateKey{kind: gateMux, x: c, y: a, z: b})
	if fresh {
		bb.S.AddClause(o.Not(), c.Not(), a)
		bb.S.AddClause(o.Not(), c, b)
		bb.S.AddClause(o, c.Not(), a.Not())
		bb.S.AddClause(o, c, b.Not())
	}
	return o
}

// fullAdder returns (sum, carryOut) for a + b + cin.
func (bb *Blaster) fullAdder(a, b, cin sat.Lit) (sum, cout sat.Lit) {
	sum = bb.xorGate(bb.xorGate(a, b), cin)
	// cout = (a&b) | (cin & (a^b))
	ab := bb.andGate(a, b)
	cx := bb.andGate(cin, bb.xorGate(a, b))
	cout = bb.orGate(ab, cx)
	return sum, cout
}

// adder returns (sum, carryOut) of the ripple-carry addition a+b+cin.
func (bb *Blaster) adder(a, b []sat.Lit, cin sat.Lit) ([]sat.Lit, sat.Lit) {
	out := make([]sat.Lit, len(a))
	c := cin
	for i := range a {
		out[i], c = bb.fullAdder(a[i], b[i], c)
	}
	return out, c
}

// multiplier is the schoolbook shift-and-add circuit, truncating to
// the operand width.
func (bb *Blaster) multiplier(a, b []sat.Lit) []sat.Lit {
	w := len(a)
	acc := make([]sat.Lit, w)
	for i := range acc {
		acc[i] = bb.constFalse()
	}
	for i := 0; i < w; i++ {
		// partial = (a << i) & b[i]
		partial := make([]sat.Lit, w)
		for j := range partial {
			if j < i {
				partial[j] = bb.constFalse()
			} else {
				partial[j] = bb.andGate(a[j-i], b[i])
			}
		}
		acc, _ = bb.adder(acc, partial, bb.constFalse())
	}
	return acc
}

// divider encodes unsigned division/remainder by asserting the
// multiplication identity: a = q*b + r with r < b when b != 0, and the
// SMT-LIB conventions q = ~0, r = a when b = 0.
func (bb *Blaster) divider(op bv.Op, a, b []sat.Lit) []sat.Lit {
	w := len(a)
	q := make([]sat.Lit, w)
	r := make([]sat.Lit, w)
	for i := 0; i < w; i++ {
		q[i] = bb.fresh()
		r[i] = bb.fresh()
	}
	// bZero <-> all bits of b are zero.
	bZero := bb.constTrue()
	for i := range b {
		bZero = bb.andGate(bZero, b[i].Not())
	}

	// Non-zero case: q*b + r == a (with overflow-free side conditions)
	// and r < b. We encode q*b in double width to rule out wraparound.
	aw := append(append([]sat.Lit{}, a...), bb.zeros(w)...)
	qw := append(append([]sat.Lit{}, q...), bb.zeros(w)...)
	bw := append(append([]sat.Lit{}, b...), bb.zeros(w)...)
	rw := append(append([]sat.Lit{}, r...), bb.zeros(w)...)
	prod := bb.multiplier2w(qw, bw)
	sum, _ := bb.adder(prod, rw, bb.constFalse())
	identity := bb.equality(sum, aw)
	rLtB := bb.ultGate(r, b)
	nonZeroOK := bb.andGate(identity, rLtB)

	// Zero case: q = all ones, r = a.
	qOnes := bb.constTrue()
	for i := range q {
		qOnes = bb.andGate(qOnes, q[i])
	}
	rEqA := bb.equality(r, a)
	zeroOK := bb.andGate(qOnes, rEqA)

	ok := bb.muxGate(bZero, zeroOK, nonZeroOK)
	bb.S.AddClause(ok)

	if op == bv.OpBvUdiv {
		return q
	}
	return r
}

func (bb *Blaster) zeros(n int) []sat.Lit {
	out := make([]sat.Lit, n)
	for i := range out {
		out[i] = bb.constFalse()
	}
	return out
}

// multiplier2w multiplies two 2w-wide vectors keeping 2w bits.
func (bb *Blaster) multiplier2w(a, b []sat.Lit) []sat.Lit {
	return bb.multiplier(a, b)
}

// shifter is a logarithmic barrel shifter. Shift amounts >= w produce 0
// (shl/lshr) or sign fill (ashr), matching bv semantics.
func (bb *Blaster) shifter(op bv.Op, a, sh []sat.Lit) []sat.Lit {
	w := len(a)
	cur := append([]sat.Lit{}, a...)
	fill := bb.constFalse()
	if op == bv.OpBvAshr {
		fill = a[w-1]
	}
	// Apply each shift-amount bit that is < bit-length of (w-1).
	for s := 0; s < len(sh); s++ {
		amt := 1 << s
		if amt >= w {
			break
		}
		next := make([]sat.Lit, w)
		for i := 0; i < w; i++ {
			var shifted sat.Lit
			switch op {
			case bv.OpBvShl:
				if i >= amt {
					shifted = cur[i-amt]
				} else {
					shifted = bb.constFalse()
				}
			default: // lshr, ashr
				if i+amt < w {
					shifted = cur[i+amt]
				} else {
					shifted = fill
				}
			}
			next[i] = bb.muxGate(sh[s], shifted, cur[i])
		}
		cur = next
	}
	// Out-of-range shift amounts (sh >= w) produce all-fill output
	// (zero for shl/lshr, sign fill for ashr).
	wConst := make([]sat.Lit, len(sh))
	for i := range wConst {
		wConst[i] = bb.constLit(uint64(w)>>i&1 == 1)
	}
	geW := bb.ultGate(sh, wConst).Not() // sh >= w
	out := make([]sat.Lit, w)
	shlFill := bb.constFalse()
	if op == bv.OpBvAshr {
		shlFill = fill
	}
	for i := 0; i < w; i++ {
		out[i] = bb.muxGate(geW, shlFill, cur[i])
	}
	return out
}

// equality returns a literal equivalent to a == b (bitwise).
func (bb *Blaster) equality(a, b []sat.Lit) sat.Lit {
	acc := bb.constTrue()
	for i := range a {
		acc = bb.andGate(acc, bb.xorGate(a[i], b[i]).Not())
	}
	return acc
}

// ultGate returns a literal equivalent to a < b (unsigned).
func (bb *Blaster) ultGate(a, b []sat.Lit) sat.Lit {
	// Ripple from LSB: lt_i = (~a_i & b_i) | (a_i == b_i) & lt_{i-1}
	lt := bb.constFalse()
	for i := 0; i < len(a); i++ {
		below := bb.andGate(a[i].Not(), b[i])
		eq := bb.xorGate(a[i], b[i]).Not()
		lt = bb.orGate(below, bb.andGate(eq, lt))
	}
	return lt
}

// sltGate returns a literal equivalent to a < b (signed): flip sign bits
// and compare unsigned.
func (bb *Blaster) sltGate(a, b []sat.Lit) sat.Lit {
	w := len(a)
	a2 := append([]sat.Lit{}, a...)
	b2 := append([]sat.Lit{}, b...)
	a2[w-1] = a2[w-1].Not()
	b2[w-1] = b2[w-1].Not()
	return bb.ultGate(a2, b2)
}

// Value reads back the value of term t from the solver's model (valid
// after a Sat answer). Bool terms yield 0 or 1.
func (bb *Blaster) Value(t *bv.Term) uint64 {
	ls := bb.lookup(t)
	if ls == nil {
		panic("bitblast: Value of un-blasted term")
	}
	var v uint64
	for i, l := range ls {
		bit := bb.S.Model(l.Var())
		if l.Neg() {
			bit = !bit
		}
		if bit {
			v |= 1 << i
		}
	}
	return v
}
