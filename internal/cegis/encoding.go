// Package cegis implements the paper's instruction-selection synthesis
// (§5): the location-variable pattern encoding over a component
// multiset (§5.1), the CEGIS synthesis/verification queries (§5.2),
// enumeration of all minimal patterns (§5.3), and iterative CEGIS over
// multicombinations of the IR operation set with the two pruning
// criteria and the memory-operation requirement analysis (§5.4).
package cegis

import (
	"fmt"
	"math/bits"
	"strconv"

	"selgen/internal/bv"
	"selgen/internal/memmodel"
	"selgen/internal/pattern"
	"selgen/internal/sem"
	"selgen/internal/smt"
)

// source identifies one possible input for a component argument or a
// pattern result: either a pattern argument or another component's
// result.
type source struct {
	isArg     bool
	argIdx    int
	comp, res int
}

// enc is the symbolic encoding of "some well-formed pattern over the
// component multiset comps implementing goal": position variables per
// component, selector variables per argument and per pattern result,
// and internal-attribute variables, all shared across test-case
// instantiations (the L and v_i of the paper's ϕ_synth).
type enc struct {
	cfg   Config
	width int
	goal  *sem.Instr
	comps []*sem.Instr

	b      *bv.Builder
	solver *smt.Solver

	// prefix namespaces this encoding's structure variables (pos, sel,
	// osel), because the incremental pipeline shares builder and solver
	// across multisets: selector widths differ between multisets, and
	// bv.Builder.Var panics on a name redeclared at a different sort.
	// Value variables (component arguments, internals, witness
	// arguments) are deliberately NOT prefixed: they are keyed by
	// component occurrence and instantiation, so the same component
	// instantiated on the same test case in a later multiset reuses the
	// same variables — its semantics hash-cons to the same terms and
	// bit-blast to the already-emitted circuit.
	prefix string

	// occ[k] is comps[k]'s occurrence index among same-named components
	// of the multiset, making shared value-variable names stable across
	// multisets regardless of the component mix around them.
	occ []int

	posW int
	pos  []*bv.Term

	argSources [][][]source
	argSels    [][]*bv.Term

	outSources [][]source
	outSels    []*bv.Term

	internals [][]*bv.Term

	memAnalysis memmodel.Analysis
}

// errNoSource reports a multiset that cannot form a well-formed pattern
// because some argument has no possible source.
type errNoSource struct {
	comp string
	arg  int
}

func (e errNoSource) Error() string {
	return fmt.Sprintf("cegis: no source for argument %d of %s", e.arg, e.comp)
}

func selWidth(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// assertBound constrains v < n, skipping the vacuous case where n fills
// the variable's width exactly (the bound constant would wrap to 0).
func (e *enc) assertBound(v *bv.Term, n int) {
	if n >= 1<<uint(v.Sort.Width) {
		return
	}
	e.solver.Assert(e.b.Ult(v, e.b.Const(uint64(n), v.Sort.Width)))
}

// newEnc builds the encoding into the synthesis context sc and asserts
// the well-formedness constraint ϕwf; the caller resets or drops sc's
// solver once the multiset is done. With cfg.AllowNonNormalized unset,
// ϕwf additionally requires patterns in IR normal form (see below).
func newEnc(cfg Config, goal *sem.Instr, comps []*sem.Instr, sc *synthCtx) (*enc, error) {
	if len(goal.Internals) != 0 {
		panic("cegis: goal instructions must have no internal attributes (enumerate them as separate goals)")
	}
	// A pure goal provides no M-value source, and components cannot
	// form an acyclic memory chain among themselves — any multiset with
	// memory operations is unrealizable (and has no memory model to
	// encode against).
	if !goal.AccessesMemory() {
		for _, c := range comps {
			if c.AccessesMemory() {
				return nil, errNoSource{comp: c.Name, arg: 0}
			}
		}
	}
	normalized := !cfg.AllowNonNormalized
	b := sc.b
	e := &enc{
		cfg:    cfg,
		width:  cfg.Width,
		goal:   goal,
		comps:  comps,
		b:      b,
		solver: sc.solver,
		prefix: "m" + strconv.Itoa(sc.nextEnc) + "_",
		posW:   selWidth(len(comps) + 1),
	}
	sc.nextEnc++
	occCount := map[string]int{}
	for _, c := range comps {
		e.occ = append(e.occ, occCount[c.Name])
		occCount[c.Name]++
	}
	if goal.AccessesMemory() {
		e.memAnalysis = memmodel.Analyze(b, e.width, goal)
	}

	// Position variables: a permutation of 0..len(comps)-1.
	for k := range comps {
		p := b.Var(e.prefix+"pos_"+strconv.Itoa(k), bv.BitVec(e.posW))
		e.pos = append(e.pos, p)
		e.assertBound(p, len(comps))
	}
	if len(comps) > 1 {
		e.solver.Assert(b.Distinct(e.pos...))
	}
	// Symmetry breaking: equal components in increasing position order.
	for k := 0; k < len(comps); k++ {
		for j := k + 1; j < len(comps); j++ {
			if comps[k].Name == comps[j].Name {
				e.solver.Assert(b.Ult(e.pos[k], e.pos[j]))
			}
		}
	}

	// Argument selectors.
	e.argSources = make([][][]source, len(comps))
	e.argSels = make([][]*bv.Term, len(comps))
	for k, c := range comps {
		e.argSources[k] = make([][]source, len(c.Args))
		e.argSels[k] = make([]*bv.Term, len(c.Args))
		for a, kind := range c.Args {
			srcs := e.sourcesFor(kind, k)
			if len(srcs) == 0 {
				return nil, errNoSource{comp: c.Name, arg: a}
			}
			e.argSources[k][a] = srcs
			sel := b.Var(e.prefix+"sel_"+strconv.Itoa(k)+"_"+strconv.Itoa(a), bv.BitVec(selWidth(len(srcs))))
			e.argSels[k][a] = sel
			e.assertBound(sel, len(srcs))
			// Selecting a component's result forces it earlier.
			for si, s := range srcs {
				if !s.isArg {
					e.solver.Assert(b.Implies(
						b.Eq(sel, b.Const(uint64(si), sel.Sort.Width)),
						b.Ult(e.pos[s.comp], e.pos[k])))
				}
			}
		}
	}

	// Pattern-result selectors.
	e.outSources = make([][]source, len(goal.Results))
	e.outSels = make([]*bv.Term, len(goal.Results))
	for r, kind := range goal.Results {
		srcs := e.sourcesFor(kind, -1)
		if len(srcs) == 0 {
			return nil, errNoSource{comp: "<result>", arg: r}
		}
		e.outSources[r] = srcs
		sel := b.Var(e.prefix+"osel_"+strconv.Itoa(r), bv.BitVec(selWidth(len(srcs))))
		e.outSels[r] = sel
		e.assertBound(sel, len(srcs))
	}

	// Normal-form constraint (the paper's §5.6 "remove non-normalized
	// patterns" filter, applied inside ϕwf so the all-patterns budget
	// is not wasted enumerating them): two same-kind arguments of one
	// operation must not select the same source. This loses no matching
	// power — when a *graph* uses one value twice (e.g. lea with the
	// same register as base and index, §7.4), distinct pattern
	// arguments simply bind to the same node at match time.
	//
	// Orientation (§5.5's mirror-image filter, likewise moved into
	// ϕwf): a commutative component's two arguments can be swapped
	// without changing the pattern's semantics or its Canon, so only the
	// orientation with sel₀ < sel₁ is enumerated — sel₀ ≤ sel₁ when
	// non-normalized patterns such as Add(x,x) are allowed. Under the
	// normal form, < subsumes the distinctness constraint.
	for k, c := range comps {
		sels := e.argSels[k]
		if pattern.Commutative(c.Name) && len(c.Args) == 2 && c.Args[0] == c.Args[1] {
			if normalized {
				e.solver.Assert(b.Ult(sels[0], sels[1]))
			} else {
				e.solver.Assert(b.Ule(sels[0], sels[1]))
			}
			continue
		}
		if !normalized {
			continue
		}
		for a1 := 0; a1 < len(c.Args); a1++ {
			for a2 := a1 + 1; a2 < len(c.Args); a2++ {
				if c.Args[a1] == c.Args[a2] {
					e.solver.Assert(b.Not(b.Eq(sels[a1], sels[a2])))
				}
			}
		}
	}

	// Internal-attribute variables (shared across test cases: the
	// synthesized attributes like Const values and Cmp relations).
	e.internals = make([][]*bv.Term, len(comps))
	for k, c := range comps {
		e.internals[k] = make([]*bv.Term, len(c.Internals))
		for i, kind := range c.Internals {
			if kind == sem.KindMem {
				panic("cegis: memory-sorted internal attributes are not supported")
			}
			var s bv.Sort
			if kind == sem.KindBool {
				s = bv.Bool
			} else {
				s = bv.BitVec(e.width)
			}
			e.internals[k][i] = b.Var("int_"+c.Name+"."+strconv.Itoa(e.occ[k])+"_"+strconv.Itoa(i), s)
		}
	}

	// Dead-code elimination: every result of every component must be
	// consumed by some argument or pattern result. This enforces
	// minimality within the multiset (patterns ignoring a result would
	// have been found at a smaller ℓ, §5.4).
	for k, c := range comps {
		for r := range c.Results {
			var used []*bv.Term
			for k2 := range comps {
				for a2, srcs := range e.argSources[k2] {
					for si, s := range srcs {
						if !s.isArg && s.comp == k && s.res == r {
							used = append(used, b.Eq(e.argSels[k2][a2],
								b.Const(uint64(si), e.argSels[k2][a2].Sort.Width)))
						}
					}
				}
			}
			for ri, srcs := range e.outSources {
				for si, s := range srcs {
					if !s.isArg && s.comp == k && s.res == r {
						used = append(used, b.Eq(e.outSels[ri],
							b.Const(uint64(si), e.outSels[ri].Sort.Width)))
					}
				}
			}
			if len(used) == 0 {
				return nil, errNoSource{comp: c.Name, arg: -1 - r}
			}
			e.solver.Assert(b.Or(used...))
		}
	}
	return e, nil
}

// sourcesFor lists the sources of the given kind available to component
// k's arguments (k = -1 for pattern results: all components allowed).
// Order: pattern arguments first, then component results.
func (e *enc) sourcesFor(kind sem.Kind, k int) []source {
	var out []source
	for i, ak := range e.goal.Args {
		if ak.Compatible(kind) {
			out = append(out, source{isArg: true, argIdx: i})
		}
	}
	for j, c := range e.comps {
		if j == k {
			continue
		}
		for r, rk := range c.Results {
			if rk.Compatible(kind) {
				out = append(out, source{comp: j, res: r})
			}
		}
	}
	return out
}

// instantiation holds the per-test-case terms produced by instantiate.
type instantiation struct {
	// patResults are the pattern's result values (muxed by outSels).
	patResults []*bv.Term
	// patPre is P+ (conjunction of component preconditions).
	patPre *bv.Term
	// patMemOK is the V+ ⊆ V obligation of the pattern's memory ops.
	patMemOK *bv.Term
	// goalResults, goalPre come from the goal's semantics.
	goalResults []*bv.Term
	goalPre     *bv.Term
}

// instantiate builds one copy of the connection constraint Q+ (§5.1)
// over the given goal-argument terms, asserting the dataflow equalities
// into the solver and returning the spec-side terms. The memory model
// (if any) is rebuilt over va so that valid pointers follow the
// instantiation (concrete for test cases, symbolic for the witness).
//
// instKey identifies the instantiation independently of the multiset —
// the test-case value key for test cases, a witness id for witnesses —
// so that component argument variables (and hence the applied component
// semantics) are shared across multisets.
func (e *enc) instantiate(va []*bv.Term, instKey string) instantiation {
	b := e.b

	ctx := &sem.Ctx{B: b, Width: e.width}
	if e.goal.AccessesMemory() {
		if e.cfg.NaiveMemSlots > 0 {
			ctx.Mem = memmodel.NewNaive(b, e.width, e.cfg.NaiveMemSlots)
		} else {
			ptrs := memmodel.PtrsFor(b, e.width, e.goal, va, nil)
			ctx.Mem = memmodel.New(b, e.width, ptrs)
		}
	}

	// Fresh argument-value variables per component; results are direct
	// functions of them (the paper's intermediate variables e0..e6).
	argVals := make([][]*bv.Term, len(e.comps))
	for k, c := range e.comps {
		argVals[k] = make([]*bv.Term, len(c.Args))
		for a, kind := range c.Args {
			argVals[k][a] = b.Var("e_"+c.Name+"."+strconv.Itoa(e.occ[k])+"_"+instKey+"_"+strconv.Itoa(a), ctx.SortOf(kind))
		}
	}
	resVals := make([][]*bv.Term, len(e.comps))
	pre := b.BoolConst(true)
	memOK := b.BoolConst(true)
	for k, c := range e.comps {
		eff := c.Apply(ctx, argVals[k], e.internals[k])
		resVals[k] = eff.Results
		if eff.Pre != nil {
			pre = b.And(pre, eff.Pre)
		}
		if eff.MemOK != nil {
			memOK = b.And(memOK, eff.MemOK)
		}
	}

	resolve := func(s source) *bv.Term {
		if s.isArg {
			return va[s.argIdx]
		}
		return resVals[s.comp][s.res]
	}
	mux := func(sel *bv.Term, srcs []source) *bv.Term {
		v := resolve(srcs[0])
		for i := 1; i < len(srcs); i++ {
			v = b.Ite(b.Eq(sel, b.Const(uint64(i), sel.Sort.Width)), resolve(srcs[i]), v)
		}
		return v
	}

	// Connection: each argument value equals its selected source.
	for k := range e.comps {
		for a := range e.comps[k].Args {
			e.solver.Assert(b.Eq(argVals[k][a], mux(e.argSels[k][a], e.argSources[k][a])))
		}
	}

	inst := instantiation{patPre: pre, patMemOK: memOK}
	for r := range e.goal.Results {
		inst.patResults = append(inst.patResults, mux(e.outSels[r], e.outSources[r]))
	}

	geff := e.goal.Apply(ctx, va, nil)
	inst.goalResults = geff.Results
	inst.goalPre = geff.Pre
	if inst.goalPre == nil {
		inst.goalPre = b.BoolConst(true)
	}
	if geff.MemOK != nil {
		// The goal's own pointers are valid by construction; assert it
		// so the spec side is well-defined.
		e.solver.Assert(geff.MemOK)
	}
	return inst
}

// eqTerms builds equality between two terms of Value or Bool sort.
func eqTerms(b *bv.Builder, x, y *bv.Term) *bv.Term {
	if x.Sort.IsBool() {
		return b.Iff(x, y)
	}
	return b.Eq(x, y)
}

// goalArgTerms converts a concrete test case to argument terms; the
// memory argument's width is the M-value width of a model built for
// this instantiation, so it is constructed lazily by width lookup.
func (e *enc) goalArgTerms(tc []uint64) []*bv.Term {
	b := e.b
	out := make([]*bv.Term, len(e.goal.Args))
	var memW int
	if e.goal.AccessesMemory() {
		memW = e.memSortWidth()
	}
	for i, k := range e.goal.Args {
		switch k {
		case sem.KindBool:
			out[i] = b.BoolConst(tc[i]&1 == 1)
		case sem.KindMem:
			out[i] = b.Const(tc[i], memW)
		default:
			out[i] = b.Const(tc[i], e.width)
		}
	}
	return out
}

// addTestCase asserts the spec constraint for one concrete test case:
// conn ∧ (P+ ⟹ P(g) ∧ results match ∧ V+ ⊆ V). Under RequireTotal it
// additionally demands P(g) ⟹ P+.
func (e *enc) addTestCase(tc []uint64) {
	b := e.b
	va := e.goalArgTerms(tc)
	inst := e.instantiate(va, cexKey(tc))
	match := b.BoolConst(true)
	for r := range inst.patResults {
		match = b.And(match, eqTerms(b, inst.patResults[r], inst.goalResults[r]))
	}
	e.solver.Assert(b.Implies(inst.patPre,
		b.And(inst.goalPre, match, inst.patMemOK)))
	if e.cfg.RequireTotal {
		e.solver.Assert(b.Implies(inst.goalPre, inst.patPre))
	}
}

// addWitness asserts that P+ is satisfiable for at least one input
// (fresh symbolic arguments constrained only by P+), and moreover that
// no individual value argument is frozen by P+ — for each argument
// there must be two P+-satisfying inputs that differ in it. This
// excludes vacuous patterns (preconditions that never hold, e.g.
// shifts by out-of-range constants) and degenerate "precondition
// carving" (e.g. rol(x,c) = x under a precondition forcing c = 0);
// without these constraints the all-patterns enumeration drowns in
// sound-but-useless rules. See DESIGN.md, deviation 3.
func (e *enc) addWitness() {
	base := e.freshWitnessArgs("wit")
	inst := e.instantiate(base, "wit")
	e.solver.Assert(inst.patPre)
	e.solver.Assert(inst.goalPre)

	if !e.cfg.FreezeArgWitnesses {
		return
	}
	for i, k := range e.goal.Args {
		if k == sem.KindMem || k == sem.KindBool {
			continue
		}
		key := "wit" + strconv.Itoa(i)
		va := e.freshWitnessArgs(key)
		alt := e.instantiate(va, key)
		e.solver.Assert(alt.patPre)
		e.solver.Assert(alt.goalPre)
		e.solver.Assert(e.b.Not(e.b.Eq(va[i], base[i])))
	}
}

// preferStructure makes the synthesis search branch on the program
// first: the location and attribute variables (pos, sel, osel,
// internals). Every other variable is one component's circuit on one
// instantiation, fixed by propagation once the program is chosen. The
// bump is made once per multiset, after the witness: test cases added
// later only add circuits, and the conflicts they cause bump the
// structure variables that matter (see DESIGN.md, "Incremental
// solving").
func (e *enc) preferStructure() {
	e.solver.Prefer(e.pos...)
	for _, sels := range e.argSels {
		e.solver.Prefer(sels...)
	}
	e.solver.Prefer(e.outSels...)
	for _, ivs := range e.internals {
		e.solver.Prefer(ivs...)
	}
}

// freshWitnessArgs allocates symbolic goal arguments for one witness
// instantiation.
func (e *enc) freshWitnessArgs(base string) []*bv.Term {
	b := e.b
	ctxMemW := 1
	if e.goal.AccessesMemory() {
		ctxMemW = e.memSortWidth()
	}
	va := make([]*bv.Term, len(e.goal.Args))
	for i, k := range e.goal.Args {
		var s bv.Sort
		switch k {
		case sem.KindBool:
			s = bv.Bool
		case sem.KindMem:
			s = bv.BitVec(ctxMemW)
		default:
			s = bv.BitVec(e.width)
		}
		va[i] = b.Var(base+"_a"+strconv.Itoa(i), s)
	}
	return va
}

// model reads the current solver model into a decoded assignment.
type assignment struct {
	pos       []uint64
	argSels   [][]uint64
	outSels   []uint64
	internals [][]uint64
}

func (e *enc) readAssignment() assignment {
	var a assignment
	for k := range e.comps {
		a.pos = append(a.pos, e.solver.ModelValue(e.pos[k].Name, e.pos[k].Sort))
	}
	a.argSels = make([][]uint64, len(e.comps))
	for k := range e.comps {
		for _, sel := range e.argSels[k] {
			a.argSels[k] = append(a.argSels[k], e.solver.ModelValue(sel.Name, sel.Sort))
		}
	}
	for _, sel := range e.outSels {
		a.outSels = append(a.outSels, e.solver.ModelValue(sel.Name, sel.Sort))
	}
	a.internals = make([][]uint64, len(e.comps))
	for k := range e.comps {
		for _, iv := range e.internals[k] {
			a.internals[k] = append(a.internals[k], e.solver.ModelValue(iv.Name, iv.Sort))
		}
	}
	return a
}

// exclude asserts the paper's §5.3 exclusion clause for the found
// assignment: L ≠ L_f ∨ v_i ≠ v_f.
func (e *enc) exclude(a assignment) {
	b := e.b
	var diffs []*bv.Term
	for k := range e.comps {
		diffs = append(diffs, b.Not(b.Eq(e.pos[k], b.Const(a.pos[k], e.posW))))
		for ai, sel := range e.argSels[k] {
			diffs = append(diffs, b.Not(b.Eq(sel, b.Const(a.argSels[k][ai], sel.Sort.Width))))
		}
		for ii, iv := range e.internals[k] {
			if iv.Sort.IsBool() {
				c := b.BoolConst(a.internals[k][ii] == 1)
				diffs = append(diffs, b.Xor(iv, c))
			} else {
				diffs = append(diffs, b.Not(b.Eq(iv, b.Const(a.internals[k][ii], iv.Sort.Width))))
			}
		}
	}
	for ri, sel := range e.outSels {
		diffs = append(diffs, b.Not(b.Eq(sel, b.Const(a.outSels[ri], sel.Sort.Width))))
	}
	e.solver.Assert(b.Or(diffs...))
}

// toPattern reconstructs the concrete pattern from an assignment
// (Gulwani et al.'s reconstruction, §5.2 end).
func (e *enc) toPattern(a assignment) pattern.Pattern {
	// rank[k] = node index in topological (position) order.
	order := make([]int, len(e.comps))
	for k, p := range a.pos {
		order[p] = k
	}
	rank := make([]int, len(e.comps))
	for idx, k := range order {
		rank[k] = idx
	}
	decode := func(s source) pattern.ValueRef {
		if s.isArg {
			return pattern.ValueRef{Kind: pattern.RefArg, Index: s.argIdx}
		}
		return pattern.ValueRef{Kind: pattern.RefNode, Index: rank[s.comp], Result: s.res}
	}
	p := pattern.Pattern{ArgKinds: append([]sem.Kind{}, e.goal.Args...)}
	for _, k := range order {
		c := e.comps[k]
		n := pattern.Node{Op: c.Name}
		for ai := range c.Args {
			n.Args = append(n.Args, decode(e.argSources[k][ai][a.argSels[k][ai]]))
		}
		n.Internals = append(n.Internals, a.internals[k]...)
		p.Nodes = append(p.Nodes, n)
	}
	for ri := range e.goal.Results {
		p.Results = append(p.Results, decode(e.outSources[ri][a.outSels[ri]]))
	}
	return p
}

// memSortWidth returns the bit width of the M-value sort for the
// current goal under the configured memory encoding.
func (e *enc) memSortWidth() int {
	if e.cfg.NaiveMemSlots > 0 {
		return e.cfg.NaiveMemSlots * (e.width + 1)
	}
	return e.memAnalysis.NumPtrs * (e.width + 1)
}
