// Incremental CEGIS support: persistent per-goal verification and
// synthesis contexts built on smt.Solver's assumption-literal frames,
// plus the cross-multiset counterexample cache and its concrete
// prefilter. See DESIGN.md ("Incremental solving") for the lifetime and
// determinism arguments.

package cegis

import (
	"fmt"
	"strconv"
	"time"

	"selgen/internal/bv"
	"selgen/internal/memmodel"
	"selgen/internal/pattern"
	"selgen/internal/sem"
	"selgen/internal/smt"
)

// verifier is one goal's persistent verification context: the symbolic
// argument variables, memory model, and goal semantics are built (and
// bit-blasted) once; each candidate's constraints go into a retractable
// solver frame.
type verifier struct {
	b           *bv.Builder
	solver      *smt.Solver
	ctx         *sem.Ctx
	va          []*bv.Term
	goalPre     *bv.Term
	goalResults []*bv.Term
}

// newSolver returns a fresh builder and solver wired to the engine's
// simplifier setting, tracer and failpoints. Every solver the engine
// uses is built here.
func (e *Engine) newSolver() (*bv.Builder, *smt.Solver) {
	b := bv.NewBuilder()
	b.Simplify = !e.cfg.DisableTermSimplify
	s := smt.NewSolver(b)
	s.Obs = e.obs
	s.Faults = e.faults
	return b, s
}

// newVerifier builds the verification world for a goal on a fresh
// builder/solver pair.
func (e *Engine) newVerifier(goal *sem.Instr) *verifier {
	b, solver := e.newSolver()
	v := &verifier{
		b:      b,
		solver: solver,
		ctx:    &sem.Ctx{B: b, Width: e.cfg.Width},
	}
	// The verification world (goal semantics, memory model) is blasted
	// lazily under the first candidate's frame, so a garbage-collection
	// rebuild makes the next candidate re-blast all of it. Give the
	// verifier a generous limit so that happens rarely.
	v.solver.GarbageLimit = 8 * smt.DefaultGarbageLimit
	va := make([]*bv.Term, len(goal.Args))
	if goal.AccessesMemory() {
		// Build value args first; pointers may depend on them.
		for i, k := range goal.Args {
			if k != sem.KindMem {
				va[i] = b.Var(fmt.Sprintf("v_a%d", i), v.ctx.SortOf(k))
			}
		}
		var model *memmodel.Model
		if e.cfg.NaiveMemSlots > 0 {
			model = memmodel.NewNaive(b, e.cfg.Width, e.cfg.NaiveMemSlots)
		} else {
			ptrs := memmodel.PtrsFor(b, e.cfg.Width, goal, va, nil)
			model = memmodel.New(b, e.cfg.Width, ptrs)
		}
		v.ctx.Mem = model
		for i, k := range goal.Args {
			if k == sem.KindMem {
				va[i] = b.Var(fmt.Sprintf("v_a%d", i), model.Sort())
			}
		}
	} else {
		for i, k := range goal.Args {
			va[i] = b.Var(fmt.Sprintf("v_a%d", i), v.ctx.SortOf(k))
		}
	}
	v.va = va

	geff := goal.Apply(v.ctx, va, nil)
	v.goalResults = geff.Results
	v.goalPre = geff.Pre
	if v.goalPre == nil {
		v.goalPre = b.BoolConst(true)
	}
	return v
}

// violation builds the candidate's counterexample formula: true of an
// input that (1) meets P+ but not P(g), (2) makes results differ, or
// (3) makes the pattern access an invalid address — plus, under
// RequireTotal, inputs where the goal is defined but the pattern is
// not. The term is built on the verifier's persistent builder, so
// subterms shared between candidates (and with the goal semantics)
// hash-cons to the same nodes.
func (v *verifier) violation(e *Engine, p *pattern.Pattern) *bv.Term {
	b := v.b
	patRes, patPre, patMemOK := p.Semantics(v.ctx, e.ops, v.va)

	var bad []*bv.Term
	bad = append(bad, b.Not(v.goalPre)) // (1)
	for r := range patRes {
		bad = append(bad, b.Not(eqTerms(b, patRes[r], v.goalResults[r]))) // (2)
	}
	bad = append(bad, b.Not(patMemOK)) // (3)

	viol := b.And(patPre, b.Or(bad...))
	if e.cfg.RequireTotal {
		viol = b.Or(viol, b.And(v.goalPre, b.Not(patPre)))
	}
	return viol
}

// verifierFor returns the goal's persistent verification context,
// building it on first use.
func (e *Engine) verifierFor(goal *sem.Instr) *verifier {
	v := e.verifiers[goal]
	if v == nil {
		v = e.newVerifier(goal)
		e.verifiers[goal] = v
		e.liveSolvers = append(e.liveSolvers, v.solver)
	}
	return v
}

// assertCandidate adds the candidate's counterexample-search constraint
// to the current solver frame. Building the violation term walks the
// candidate's semantics, so malformed patterns surface here; the panic
// is converted to an error so verification of one candidate cannot take
// down the goal.
func (v *verifier) assertCandidate(e *Engine, p *pattern.Pattern) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: asserting candidate: %v", ErrInternal, r)
		}
	}()
	return v.solver.TryAssert(v.violation(e, p))
}

// check runs the verification query and extracts a counterexample on
// Sat.
func (v *verifier) check(e *Engine, goal *sem.Instr) (cex []uint64, ok bool, err error) {
	res, cerr := v.solver.Check(e.queryOpts())
	switch res {
	case smt.Unsat:
		return nil, true, nil
	case smt.Sat:
		tc := make([]uint64, len(goal.Args))
		for i := range goal.Args {
			tc[i] = v.solver.ModelValue(v.va[i].Name, v.va[i].Sort)
		}
		return tc, false, nil
	}
	if cerr != nil {
		return nil, false, fmt.Errorf("cegis: verification gave up on %s: %w", goal.Name, cerr)
	}
	return nil, false, fmt.Errorf("cegis: verification unknown for %s", goal.Name)
}

// synthCtx is the builder/solver pair a multiset is encoded into. The
// incremental pipeline keeps one per goal: a single hash-consed term
// builder shared by every multiset's encoding, over one smt.Solver
// whose SAT core is Reset between multisets (terms and statistics
// survive the reset). Value variables are named multiset-independently
// so shared subcircuits hash-cons to the same terms (see
// enc.instantiate), while structure variables get a unique
// per-encoding prefix (nextEnc) so distinct multisets never collide on
// selector sorts. The non-incremental pipeline builds a fresh one per
// multiset. See DESIGN.md ("Incremental solving").
type synthCtx struct {
	b       *bv.Builder
	solver  *smt.Solver
	nextEnc int
}

func (e *Engine) synthCtxFor(goal *sem.Instr) *synthCtx {
	sc := e.synths[goal]
	if sc == nil {
		b, solver := e.newSolver()
		sc = &synthCtx{b: b, solver: solver}
		e.synths[goal] = sc
		e.liveSolvers = append(e.liveSolvers, sc.solver)
	}
	return sc
}

// cexCache accumulates a goal's verification counterexamples across
// multisets, deduplicated by value.
type cexCache struct {
	list [][]uint64
	seen map[string]bool
}

func (e *Engine) cexCacheFor(goal *sem.Instr) *cexCache {
	c := e.cexes[goal]
	if c == nil {
		c = &cexCache{seen: make(map[string]bool)}
		e.cexes[goal] = c
	}
	return c
}

func (c *cexCache) add(tc []uint64) {
	k := cexKey(tc)
	if c.seen[k] {
		return
	}
	c.seen[k] = true
	c.list = append(c.list, append([]uint64(nil), tc...))
}

// cexKey formats tc as fmt.Sprint does ("[1 2 3]"); the key also names
// the test case's instantiation variables (see enc.instantiate).
func cexKey(tc []uint64) string {
	var buf [64]byte
	k := append(buf[:0], '[')
	for i, v := range tc {
		if i > 0 {
			k = append(k, ' ')
		}
		k = strconv.AppendUint(k, v, 10)
	}
	return string(append(k, ']'))
}

// maxKillersPerRound bounds how many prefilter killers one synthesis
// round promotes into the encoding: one is enough for progress, but a
// couple more discriminating test cases per round save later rounds.
const maxKillersPerRound = 2

// eagerSeedLen is the multiset size at which incremental mode stops
// deferring seed tests. Small multisets are cheap to check and mostly
// unrealizable, so a witness-only encoding (with pool test cases
// promoted lazily on concrete kills) saves most of the encoding work;
// large multisets pose conflict-heavy synthesis queries where the seed
// constraints prune the search enough to pay for their encoding up
// front.
const eagerSeedLen = 3

// prefilterKillers returns every pool test case the candidate
// concretely fails, or nil if it passes all of them. The candidate's
// violation formula is built once on the goal's persistent verifier
// (hash-consed against previous candidates) and then evaluated per
// pool test case with the concrete term interpreter — no solver
// involvement, so screening costs microseconds per test case. The
// formula is exactly the one verification would assert, making every
// kill a guaranteed future counterexample, but the SMT query (run only
// when the candidate survives, or when all killers were already
// asserted yet the candidate reappeared) stays authoritative.
func (e *Engine) prefilterKillers(goal *sem.Instr, p *pattern.Pattern, pool [][]uint64) [][]uint64 {
	if len(pool) == 0 {
		return nil
	}
	v := e.verifierFor(goal)
	viol := v.violation(e, p)
	m := make(bv.Model, len(v.va))
	var killers [][]uint64
	for _, tc := range pool {
		for i, a := range v.va {
			m[a.Name] = tc[i]
		}
		if v.b.Eval(viol, m) == 1 {
			killers = append(killers, tc)
		}
	}
	return killers
}

// SolverStats aggregates SMT, SAT, and bit-blasting effort over every
// solver instance the engine has used (persistent and transient).
type SolverStats struct {
	Checks    int64
	Conflicts int64
	Restarts  int64
	SatTime   time.Duration
	// BlastHits/BlastMisses are term-cache lookups in the bit-blaster;
	// the hit rate measures how much re-blasting incrementality avoids.
	BlastHits, BlastMisses int64
}

func (st *SolverStats) absorb(s *smt.Solver) {
	st.Checks += s.Stats.Checks
	st.Conflicts += s.Stats.Conflicts
	st.Restarts += s.Stats.Restarts
	st.SatTime += s.Stats.SatTime
	h, m := s.BlastStats()
	st.BlastHits += h
	st.BlastMisses += m
}

// retireSolver folds a transient solver's effort into the aggregate
// before the solver is dropped.
func (e *Engine) retireSolver(s *smt.Solver) { e.retired.absorb(s) }

// SolverStats reports the engine's aggregate solver effort so far.
func (e *Engine) SolverStats() SolverStats {
	out := e.retired
	for _, s := range e.liveSolvers {
		out.absorb(s)
	}
	return out
}
