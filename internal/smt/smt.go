// Package smt provides a small SMT-solver facade over internal/bitblast
// and internal/sat: assert QF_BV formulae built with internal/bv, check
// satisfiability, and extract models.
//
// It plays the role of Z3 (restricted to QF_BV, as in the reproduced
// paper, §2.3) for all synthesis and verification queries.
package smt

import (
	"errors"
	"fmt"
	"time"

	"selgen/internal/bitblast"
	"selgen/internal/bv"
	"selgen/internal/failpoint"
	"selgen/internal/obs"
	"selgen/internal/sat"
)

// Result is the outcome of a Check call.
type Result int

const (
	// Unknown means the budget expired before an answer.
	Unknown Result = iota
	// Sat means the conjunction of assertions is satisfiable.
	Sat
	// Unsat means it is unsatisfiable.
	Unsat
)

func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// ErrBudget is returned when the conflict or time budget is exhausted.
var ErrBudget = errors.New("smt: budget exhausted")

// ErrInternal wraps failures that are not budget stories: panics inside
// Check or Blast (malformed terms, solver bugs, injected faults). The
// panic → error conversion happens here, at the package boundary, so
// callers — ultimately the driver's retry ladder — can classify the
// failure (quarantine, not retry) instead of crashing.
var ErrInternal = errors.New("smt: internal error")

// Options bound a Check call. Zero value = unlimited.
type Options struct {
	// MaxConflicts caps the SAT search (0 = unlimited).
	MaxConflicts int64
	// Timeout caps wall-clock time (0 = unlimited). A negative value
	// means the caller's deadline already expired: Check reports
	// ErrBudget without running the SAT search.
	Timeout time.Duration
}

// Stats accumulates query counts and solver effort.
type Stats struct {
	Checks    int64
	SatTime   time.Duration
	Conflicts int64
	Restarts  int64
	// Resets counts garbage-collection rebuilds of the SAT core (see
	// GarbageLimit).
	Resets int64
}

// Solver accumulates assertions over terms from one bv.Builder.
// Each Check re-blasts nothing (terms are cached) and resumes the SAT
// search over all clauses added so far: learned clauses, variable
// activities, and saved phases survive across Checks. Assertions may be
// added between checks, either permanently (like SMT-LIB assert) or
// inside a retractable Push/Pop frame.
type Solver struct {
	B  *bv.Builder
	bb *bitblast.Blaster
	s  *sat.Solver

	// frames holds one activation literal per open Push frame. A frame
	// assertion t becomes the guarded clause ¬act ∨ blast(t), and Check
	// passes every open frame's act as an assumption; Pop permanently
	// asserts ¬act, neutralizing the frame's clauses (and any learned
	// clause derived from them, which contains ¬act as well since
	// assumptions participate in conflict analysis as decisions).
	frames []sat.Lit

	// permanent records depth-0 assertions so they can be replayed when
	// the SAT core is rebuilt.
	permanent []*bv.Term
	baseVars  int // SAT variables right after the last rebuild

	// GarbageLimit bounds the dead weight a Pop may leave behind. Frame
	// clauses are detached by Pop, but the Tseitin definitions blasting
	// introduced for them are permanent, and a CDCL Sat answer must
	// assign every allocated variable — so retired frames would slow
	// every later Check even though they can no longer constrain it.
	// When a Pop returns to depth 0 with more than GarbageLimit SAT
	// variables beyond the permanent base, the solver rebuilds its SAT
	// core and blaster and replays only the permanent assertions; the
	// hash-consed term builder (the expensive symbolic layer) is shared
	// and unaffected. 0 means DefaultGarbageLimit; negative disables
	// rebuilds.
	GarbageLimit int

	// retired* fold the counters of rebuilt SAT cores into the totals
	// reported by Stats.
	retiredConflicts, retiredRestarts int64

	// Obs, when non-nil, receives the smt.checks counter and the
	// smt.check.us latency histogram, and is forwarded to the SAT
	// search so per-solve effort deltas land in the same registry.
	Obs *obs.Tracer

	// Faults, when non-nil, arms this layer's failpoints
	// (smt.blast.deadline, smt.check.panic) and is forwarded to the
	// SAT search. Nil-safe like Obs.
	Faults *failpoint.Registry

	Stats Stats
}

// DefaultGarbageLimit is the GarbageLimit used when the field is zero.
const DefaultGarbageLimit = 1 << 11

// NewSolver returns a solver for terms of the given builder.
func NewSolver(b *bv.Builder) *Solver {
	s := sat.New()
	return &Solver{B: b, bb: bitblast.New(b, s), s: s}
}

// Push opens a retractable assertion frame: assertions made until the
// matching Pop can be discarded without rebuilding the solver.
func (s *Solver) Push() {
	s.frames = append(s.frames, sat.MkLit(s.s.NewVar(), false))
}

// Pop retracts the innermost frame's assertions. Learned clauses,
// activities, and phases acquired while the frame was open are kept.
func (s *Solver) Pop() {
	n := len(s.frames) - 1
	if n < 0 {
		panic("smt: Pop without matching Push")
	}
	act := s.frames[n]
	s.frames = s.frames[:n]
	s.s.AddClause(act.Not())
	// With ¬act fixed, every clause of the frame (and every learnt
	// clause derived from it) is satisfied at level 0; physically detach
	// them so dead frames stop burdening propagation.
	s.s.Simplify()
	limit := s.GarbageLimit
	if limit == 0 {
		limit = DefaultGarbageLimit
	}
	if n == 0 && limit > 0 && s.s.NumVars()-s.baseVars > limit {
		s.rebuild()
	}
}

// rebuild garbage-collects the SAT core: the solver and blaster are
// emptied (keeping their allocations) and the permanent assertions
// replayed. Only reachable (live) terms are re-blasted; the retired
// frames' definitions are dropped. Must only run at depth 0, where no
// activation literal is live.
func (s *Solver) rebuild() {
	s.Stats.Resets++
	s.retiredConflicts += s.s.Stats.Conflicts
	s.retiredRestarts += s.s.Stats.Restarts
	s.s.Recycle()
	s.bb.Reset()
	for _, t := range s.permanent {
		s.assertPermanent(t)
	}
	s.baseVars = s.s.NumVars()
}

// Reset drops every assertion — permanent and framed — and rebuilds
// the SAT core. The shared term builder and accumulated statistics
// survive. Callers whose assertion batches share no base (e.g. one
// batch per synthesis multiset) should Reset between batches instead
// of wrapping each batch in a Push/Pop frame: a permanent assertion is
// a unit clause that propagates once at level 0, while a frame-guarded
// one re-propagates under its assumption on every Check.
func (s *Solver) Reset() {
	s.frames = s.frames[:0]
	s.permanent = s.permanent[:0]
	s.rebuild()
}

// Depth reports the number of open Push frames.
func (s *Solver) Depth() int { return len(s.frames) }

// Assert adds a boolean term to the assertion set. Inside a Push frame
// the assertion is retracted by the matching Pop; otherwise it is
// permanent. Note the Tseitin definitions introduced by blasting t are
// always permanent — they only constrain fresh variables, so keeping
// them across frames is sound and is what makes the blast cache and
// the blaster's gate table reusable after a Pop.
func (s *Solver) Assert(t *bv.Term) {
	if !t.Sort.IsBool() {
		panic("smt: asserting non-boolean term")
	}
	if n := len(s.frames); n > 0 {
		s.s.AddClause(s.frames[n-1].Not(), s.bb.Blast(t)[0])
		return
	}
	s.permanent = append(s.permanent, t)
	s.assertPermanent(t)
}

// assertPermanent adds t at depth 0. An equation between a variable not
// yet blasted and a term that does not mention it binds the variable to
// the term's literals (bitblast.Blaster.Bind) instead of emitting an
// equality circuit. Only depth 0 may bind: Pop could not retract an
// alias.
func (s *Solver) assertPermanent(t *bv.Term) {
	if t.Op == bv.OpEq || t.Op == bv.OpIff {
		x, y := t.Args[0], t.Args[1]
		if s.bb.Bind(x, y) || s.bb.Bind(y, x) {
			return
		}
	}
	s.s.AddClause(s.bb.Blast(t)[0])
}

// TryAssert is Assert with package-boundary panic conversion: a
// malformed term (non-boolean assertion, sort mismatch discovered
// during blasting, an op the blaster does not handle) surfaces as an
// ErrInternal-wrapped error instead of a panic. Use it when the
// asserted formula is dynamically constructed — e.g. from a candidate
// pattern's synthesized semantics — and the caller wants to contain a
// bad formula rather than crash the run. Assert remains the right call
// for statically well-formed assertions, where a panic is a
// programming error worth crashing on.
func (s *Solver) TryAssert(t *bv.Term) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: assert: %v", ErrInternal, r)
		}
	}()
	s.Assert(t)
	return nil
}

// Check determines satisfiability of the asserted set under opts,
// assuming every open frame's assertions.
//
// A panic below this point (a malformed formula reaching the SAT
// layer, a solver bug, or the smt.check.panic failpoint) is converted
// into an ErrInternal-wrapped error rather than escaping to callers:
// the SAT layer's deferred cleanup runs during unwinding, so the
// solver is back at decision level 0 and remains usable.
func (s *Solver) Check(opts Options) (res Result, err error) {
	s.Stats.Checks++
	s.Obs.Add("smt.checks", 1)
	defer func() {
		if r := recover(); r != nil {
			s.Obs.Add("smt.check_panics", 1)
			res, err = Unknown, fmt.Errorf("%w: Check panicked: %v", ErrInternal, r)
		}
	}()
	// Injected blast-time deadline: the caller's budget expired while
	// the query was being built, before any search could start.
	if s.Faults.Active(failpoint.SmtBlastDeadline) {
		return Unknown, ErrBudget
	}
	// A non-positive timeout means the caller's deadline expired while
	// the query was being built (blasting a fresh encoding can take
	// longer than a short per-goal budget). Report budget exhaustion
	// immediately: treating it as "no timeout" — the old behaviour —
	// turned an expired deadline into an unbounded search.
	if opts.Timeout < 0 {
		return Unknown, ErrBudget
	}
	if s.Faults.Active(failpoint.SmtCheckPanic) {
		panic("failpoint: injected smt check panic")
	}
	var so sat.Options
	so.MaxConflicts = opts.MaxConflicts
	so.Obs = s.Obs
	so.Faults = s.Faults
	if opts.Timeout > 0 {
		so.Deadline = time.Now().Add(opts.Timeout)
	}
	start := time.Now()
	// The error is dropped: sat.ErrBudget, Solve's only error, comes
	// with Unknown, which maps to ErrBudget below.
	st, _ := s.s.Solve(so, s.frames...)
	elapsed := time.Since(start)
	s.Stats.SatTime += elapsed
	s.Obs.Observe("smt.check.us", elapsed.Microseconds())
	s.Stats.Conflicts = s.retiredConflicts + s.s.Stats.Conflicts
	s.Stats.Restarts = s.retiredRestarts + s.s.Stats.Restarts
	switch st {
	case sat.Sat:
		return Sat, nil
	case sat.Unsat:
		return Unsat, nil
	}
	return Unknown, ErrBudget
}

// Prefer bumps the SAT activity of every bit of the given variables
// once, so the next Check branches on them before the rest. The bits
// are read with VarLits, never blasted: Prefer adds no clause and no
// blast-cache lookup.
func (s *Solver) Prefer(vars ...*bv.Term) {
	for _, v := range vars {
		for _, l := range s.bb.VarLits(v.Name, v.Sort) {
			s.s.Bump(l.Var())
		}
	}
}

// BlastStats reports the term-cache hit/miss counts of the underlying
// bit-blaster.
func (s *Solver) BlastStats() (hits, misses int64) { return s.bb.Hits, s.bb.Misses }

// ModelValue returns the model value of a named variable of the given
// sort, allocating it if the variable never occurred in an assertion
// (in which case its value is arbitrary but fixed).
func (s *Solver) ModelValue(name string, sort bv.Sort) uint64 {
	ls := s.bb.VarLits(name, sort)
	var v uint64
	for i, l := range ls {
		bit := s.s.Model(l.Var())
		if l.Neg() {
			bit = !bit
		}
		if bit {
			v |= 1 << i
		}
	}
	return v
}

// Model extracts the values of all given variables from the last Sat
// answer into a bv.Model usable with bv.Eval.
func (s *Solver) Model(vars []*bv.Term) bv.Model {
	m := make(bv.Model, len(vars))
	for _, v := range vars {
		if v.Op != bv.OpVar {
			panic("smt: Model of non-variable term")
		}
		m[v.Name] = s.ModelValue(v.Name, v.Sort)
	}
	return m
}

// NumClauses reports the size of the underlying CNF (for statistics).
func (s *Solver) NumClauses() int { return s.s.NumClauses() }

// NumSATVars reports the number of SAT variables allocated.
func (s *Solver) NumSATVars() int { return s.s.NumVars() }
