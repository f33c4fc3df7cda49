// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver in the MiniSat tradition: two-watched-literal propagation, VSIDS
// variable activity, phase saving, first-UIP clause learning with
// recursive minimization, Luby restarts, and activity-based deletion of
// learnt clauses.
//
// The solver is the decision procedure underlying the QF_BV SMT solver in
// internal/smt (via bit-blasting in internal/bitblast); the CGO'18 paper
// reproduced by this repository uses Z3 restricted to QF_BV, which
// internally does the same bit-blast-and-SAT.
package sat

import (
	"errors"
	"fmt"
	"math"
	"time"

	"selgen/internal/failpoint"
	"selgen/internal/obs"
)

// Var is a propositional variable, numbered from 0.
type Var int

// Lit is a literal: variable 2*v for the positive phase, 2*v+1 for the
// negative phase. The zero value is the positive literal of variable 0.
// Literals are 32-bit so the clause arena, the trail and the watch lists
// pack twice as many per cache line.
type Lit int32

// MkLit builds a literal from a variable and a sign (true = negated).
func MkLit(v Var, neg bool) Lit {
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg reports whether the literal is negative.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal in DIMACS style (1-based, minus for negative).
func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("-%d", int(l.Var())+1)
	}
	return fmt.Sprintf("%d", int(l.Var())+1)
}

// lbool is a three-valued boolean.
type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// Status is the result of a Solve call.
type Status int

const (
	// Unknown means the solver gave up (budget exhausted).
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula is unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// ErrBudget is returned by Solve when the conflict or time budget set in
// Options is exhausted before a definite answer is reached. It is the
// only error Solve returns.
var ErrBudget = errors.New("sat: budget exhausted")

// Clauses live inline in one flat []Lit arena (see DESIGN.md, "SAT core
// memory layout"). A clause reference (cref) is the arena index of its
// header word: the literal count shifted left by hdrShift, OR'd with the
// hdrLearnt and hdrDeleted bits. The next word is a learnt clause's index
// into Solver.act, its activity for the reduction heuristic (unused, and
// 0, for problem clauses). The literals follow. Clauses are never moved
// or freed before Recycle, so a cref stays valid for the solver's life.
//
// Propagation keeps a long clause's implied literal first, but never
// touches a binary clause's literals, so a binary reason's implied
// literal may sit second: reasonLits and locked find it by variable.
const (
	hdrLearnt  = 1
	hdrDeleted = 2
	hdrShift   = 2
	// hdrWords is the number of arena words before a clause's literals.
	hdrWords = 2
)

// watcher pairs a watched clause with a "blocker" literal whose truth
// makes visiting the clause unnecessary. cw packs the clause reference
// with a binary-clause flag in bit 0. A binary clause's blocker is
// always its other literal, so it propagates from the watcher alone,
// without touching the arena.
type watcher struct {
	cw      uint32 // cref<<1 | 1 if the clause is binary
	blocker Lit
}

func (w watcher) cref() int32  { return int32(w.cw >> 1) }
func (w watcher) binary() bool { return w.cw&1 != 0 }

// Options configure a Solve call. The zero value means "no limits". The
// search itself is fixed and deterministic: phase saving, Luby
// restarts, no randomness.
type Options struct {
	// MaxConflicts aborts the search after this many conflicts (0 = no limit).
	MaxConflicts int64
	// Deadline aborts the search at this time (zero = no deadline).
	Deadline time.Time
	// Obs, when non-nil, receives per-solve effort deltas (sat.decisions,
	// sat.propagations, sat.conflicts, sat.restarts counters) and the
	// sat.solve.us latency histogram.
	Obs *obs.Tracer
	// Faults, when non-nil, arms this layer's failpoints
	// (failpoint.SatSpuriousTimeout makes Solve report ErrBudget
	// without searching). Nil-safe like Obs.
	Faults *failpoint.Registry
}

// Stats holds cumulative solver statistics.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learnt       int64
	Removed      int64
}

// Solver is a CDCL SAT solver. Create one with New, add variables with
// NewVar and clauses with AddClause, then call Solve. A solver may be
// reused for multiple Solve calls (incremental solving under assumptions).
type Solver struct {
	clauses []int32   // crefs of problem clauses
	learnts []int32   // crefs of learnt clauses
	arena   []Lit     // inline clause store (see hdrWords)
	act     []float64 // learnt clause activities, indexed by the arena's id word

	watches [][]watcher // watches[lit] = clauses watching lit

	// assignLit is indexed by literal: lTrue if that literal is true,
	// lFalse if false, lUndef if unassigned. Both phases are written on
	// every assignment so value() is a single array read.
	assignLit []lbool
	polarity  []bool  // saved phase per variable
	level     []int   // decision level per variable
	reason    []int32 // antecedent cref per variable (-1 = decision)

	trail    []Lit
	trailLim []int // trail index per decision level
	qhead    int

	activity []float64
	varInc   float64
	order    varHeap

	claInc float64

	ok    bool // false once the clause set is known unsat at level 0
	model []bool

	seen  []byte
	toClr []Var

	// Scratch buffers reused across calls (conflict analysis and clause
	// normalization run once per conflict / per added clause, so a fresh
	// allocation each time is measurable GC pressure).
	addBuf    []Lit
	learntBuf []Lit
	origBuf   []Var
	stackBuf  []Var
	sortBuf   []int32 // reduceDB's activity order; swapped with learnts

	Stats Stats
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, claInc: 1, ok: true}
	s.order.s = s
	return s
}

// NumVars returns the number of variables allocated so far.
func (s *Solver) NumVars() int { return len(s.assignLit) / 2 }

// NumClauses returns the number of problem clauses added.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NewVar allocates a fresh variable and returns it.
func (s *Solver) NewVar() Var {
	v := Var(len(s.assignLit) / 2)
	s.assignLit = append(s.assignLit, lUndef, lUndef)
	s.polarity = append(s.polarity, true) // default phase: false (negated)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, -1)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, 0)
	if n := len(s.watches); n+2 <= cap(s.watches) {
		// Regrowing after Recycle: reuse the slot's retained watcher
		// arrays instead of discarding them.
		s.watches = s.watches[:n+2]
		s.watches[n] = s.watches[n][:0]
		s.watches[n+1] = s.watches[n+1][:0]
	} else {
		s.watches = append(s.watches, nil, nil)
	}
	s.order.insert(v)
	return v
}

// Recycle resets the solver to its freshly-constructed logical state
// while retaining the memory of its previous life: the clause arena,
// watch lists, and per-variable buffers keep their capacity. Callers
// that repeatedly rebuild solvers of a similar shape (e.g. the SMT
// facade's garbage-collection rebuilds, one per synthesis multiset)
// would otherwise re-grow every internal slice from scratch each time.
func (s *Solver) Recycle() {
	s.clauses = s.clauses[:0]
	s.learnts = s.learnts[:0]
	s.arena = s.arena[:0]
	s.act = s.act[:0]
	w := s.watches[:cap(s.watches)]
	for i := range w {
		w[i] = w[i][:0]
	}
	s.watches = s.watches[:0]
	// Per-variable slices need no clearing: NewVar writes every revealed
	// slot explicitly when it re-extends them.
	s.assignLit = s.assignLit[:0]
	s.polarity = s.polarity[:0]
	s.level = s.level[:0]
	s.reason = s.reason[:0]
	s.activity = s.activity[:0]
	s.seen = s.seen[:0]
	s.trail = s.trail[:0]
	s.trailLim = s.trailLim[:0]
	s.qhead = 0
	s.order.heap = s.order.heap[:0]
	s.order.indices = s.order.indices[:0]
	s.varInc = 1
	s.claInc = 1
	s.ok = true
	s.model = s.model[:0]
	s.toClr = s.toClr[:0]
	s.Stats = Stats{}
}

func (s *Solver) value(l Lit) lbool { return s.assignLit[l] }

// varValue returns the variable's assignment (positive phase).
func (s *Solver) varValue(v Var) lbool { return s.assignLit[MkLit(v, false)] }

// AddClause adds a clause. It returns false if the solver detects
// top-level unsatisfiability (then the solver stays unusable and Solve
// returns Unsat). Literals must refer to variables already allocated.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause called during search")
	}
	// Normalize: sort-free dedup, drop false lits, detect tautology/sat.
	out := s.addBuf[:0]
	for _, l := range lits {
		if int(l.Var()) >= s.NumVars() {
			panic(fmt.Sprintf("sat: clause uses unallocated variable %d", l.Var()))
		}
		switch s.value(l) {
		case lTrue:
			return true // clause already satisfied at level 0
		case lFalse:
			continue // drop falsified literal
		}
		dup := false
		for _, m := range out {
			if m == l {
				dup = true
				break
			}
			if m == l.Not() {
				return true // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	s.addBuf = out[:0]
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], -1)
		if s.propagate() != -1 {
			s.ok = false
			return false
		}
		return true
	}
	cref := s.allocClause(out, false)
	s.clauses = append(s.clauses, cref)
	s.attachClause(cref)
	return true
}

// allocClause appends a clause to the arena and returns its cref. The
// literals are copied, so callers may pass reused scratch buffers.
func (s *Solver) allocClause(lits []Lit, learnt bool) int32 {
	if len(s.arena) > math.MaxInt32-hdrWords-len(lits) {
		panic("sat: clause arena exceeds 2^31 words")
	}
	cref := int32(len(s.arena))
	hdr, id := Lit(len(lits))<<hdrShift, Lit(0)
	if learnt {
		hdr |= hdrLearnt
		id = Lit(len(s.act))
		s.act = append(s.act, 0)
	}
	s.arena = append(append(s.arena, hdr, id), lits...)
	return cref
}

// clauseLits returns the clause's literals, aliasing the arena.
func (s *Solver) clauseLits(cref int32) []Lit {
	start := int(cref) + hdrWords
	return s.arena[start : start+int(s.arena[cref]>>hdrShift)]
}

func (s *Solver) isLearnt(cref int32) bool  { return s.arena[cref]&hdrLearnt != 0 }
func (s *Solver) isDeleted(cref int32) bool { return s.arena[cref]&hdrDeleted != 0 }

// claAct returns a learnt clause's activity slot.
func (s *Solver) claAct(cref int32) *float64 { return &s.act[s.arena[cref+1]] }

// reasonLits returns the literals of v's reason clause other than v's
// own (see hdrWords: a binary reason's implied literal may sit second).
func (s *Solver) reasonLits(cref int32, v Var) []Lit {
	lits := s.clauseLits(cref)
	if lits[0].Var() == v {
		return lits[1:]
	}
	return lits[:1]
}

// Simplify removes clauses satisfied at decision level 0 from the
// problem and learnt databases, detaching them from the watch lists.
// It must be called between Solve calls (decision level 0). Callers
// that retract assertion groups by fixing an activation literal false
// should Simplify afterwards so the retired clauses stop burdening
// propagation.
func (s *Solver) Simplify() {
	if !s.ok || s.decisionLevel() != 0 {
		return
	}
	s.clauses = s.simplifyList(s.clauses)
	s.learnts = s.simplifyList(s.learnts)
}

func (s *Solver) simplifyList(refs []int32) []int32 {
	kept := refs[:0]
	for _, cref := range refs {
		if s.isDeleted(cref) {
			continue
		}
		sat0 := false
		for _, l := range s.clauseLits(cref) {
			if s.value(l) == lTrue {
				sat0 = true
				break
			}
		}
		if sat0 && !s.locked(cref) {
			s.detachClause(cref)
			s.arena[cref] |= hdrDeleted
			s.Stats.Removed++
		} else {
			kept = append(kept, cref)
		}
	}
	return kept
}

func (s *Solver) attachClause(cref int32) {
	lits := s.clauseLits(cref)
	w0, w1 := lits[0], lits[1]
	cw := uint32(cref) << 1
	if len(lits) == 2 {
		cw |= 1
	}
	s.watches[w0.Not()] = append(s.watches[w0.Not()], watcher{cw, w1})
	s.watches[w1.Not()] = append(s.watches[w1.Not()], watcher{cw, w0})
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) uncheckedEnqueue(l Lit, from int32) {
	v := l.Var()
	s.assignLit[l] = lTrue
	s.assignLit[l^1] = lFalse
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the cref of a
// conflicting clause, or -1 if no conflict arises.
func (s *Solver) propagate() int32 {
	conflict := int32(-1)
	// Neither slice is reallocated during propagation: no variable or
	// clause is added.
	vals, arena := s.assignLit, s.arena
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		falseLit := p.Not()
		ws := s.watches[p]
		j := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			bv := vals[w.blocker]
			if bv == lTrue {
				ws[j] = w
				j++
				continue
			}
			if w.binary() {
				// The blocker is the other literal: unit or conflicting.
				ws[j] = w
				j++
				if bv != lFalse {
					s.uncheckedEnqueue(w.blocker, w.cref())
					continue
				}
				// Store the conflict as [other, falsified], the order
				// analyze reads a long conflicting clause in.
				conflict = w.cref()
				lits := s.clauseLits(conflict)
				lits[0], lits[1] = w.blocker, falseLit
			} else {
				cref := w.cref()
				start := int(cref) + hdrWords
				lits := arena[start : start+int(arena[cref]>>hdrShift)]
				// Ensure the falsified literal is lits[1].
				if lits[0] == falseLit {
					lits[0], lits[1] = lits[1], lits[0]
				}
				first := lits[0]
				if first != w.blocker && vals[first] == lTrue {
					ws[j] = watcher{w.cw, first}
					j++
					continue
				}
				// Look for a new literal to watch.
				for k := 2; k < len(lits); k++ {
					if vals[lits[k]] != lFalse {
						lits[1], lits[k] = lits[k], lits[1]
						nw := lits[1].Not()
						s.watches[nw] = append(s.watches[nw], watcher{w.cw, first})
						continue nextWatcher
					}
				}
				// Clause is unit or conflicting.
				ws[j] = watcher{w.cw, first}
				j++
				if vals[first] != lFalse {
					s.uncheckedEnqueue(first, cref)
					continue
				}
				conflict = cref
			}
			// Conflict: copy the remaining watchers back and stop.
			s.qhead = len(s.trail)
			for i++; i < len(ws); i++ {
				ws[j] = ws[i]
				j++
			}
			break
		}
		s.watches[p] = ws[:j]
		if conflict != -1 {
			return conflict
		}
	}
	return -1
}

// analyze performs first-UIP conflict analysis and returns the learnt
// clause (asserting literal first) and the backtrack level.
func (s *Solver) analyze(conflict int32) ([]Lit, int) {
	learnt := append(s.learntBuf[:0], 0) // [0] holds the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	cref := conflict
	for {
		if s.isLearnt(cref) {
			s.bumpClause(cref)
		}
		var lits []Lit
		if p == -1 {
			lits = s.clauseLits(cref)
		} else {
			lits = s.reasonLits(cref, p.Var())
		}
		for _, q := range lits {
			v := q.Var()
			if s.seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			s.seen[v] = 1
			s.Bump(v)
			if s.level[v] >= s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Next literal to resolve on.
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = 0
		counter--
		if counter == 0 {
			break
		}
		cref = s.reason[p.Var()]
	}
	learnt[0] = p.Not()

	// Clause minimization: drop literals implied by the rest. Snapshot
	// the vars first: compaction overwrites dropped literals in place,
	// and every mark must be cleared afterwards.
	origVars := s.origBuf[:0]
	for _, l := range learnt {
		origVars = append(origVars, l.Var())
		s.seen[l.Var()] = 1
	}
	s.origBuf = origVars[:0]
	jj := 1
	for i := 1; i < len(learnt); i++ {
		if s.reason[learnt[i].Var()] == -1 || !s.litRedundant(learnt[i]) {
			learnt[jj] = learnt[i]
			jj++
		}
	}
	minimized := learnt[:jj]
	for _, v := range origVars { // clear all marks, incl. dropped lits
		s.seen[v] = 0
	}
	for _, v := range s.toClr { // marks set transitively by litRedundant
		s.seen[v] = 0
	}
	s.toClr = s.toClr[:0]

	// Backtrack level: second-highest level in the clause.
	btLevel := 0
	if len(minimized) > 1 {
		maxI := 1
		for i := 2; i < len(minimized); i++ {
			if s.level[minimized[i].Var()] > s.level[minimized[maxI].Var()] {
				maxI = i
			}
		}
		minimized[1], minimized[maxI] = minimized[maxI], minimized[1]
		btLevel = s.level[minimized[1].Var()]
	}
	s.learntBuf = learnt[:0] // minimized aliases it; allocClause copies
	return minimized, btLevel
}

// litRedundant reports whether l is implied by the other marked literals,
// following reasons transitively (local minimization with a work stack).
func (s *Solver) litRedundant(l Lit) bool {
	stack := append(s.stackBuf[:0], l.Var())
	defer func() { s.stackBuf = stack[:0] }()
	top := len(s.toClr)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range s.reasonLits(s.reason[v], v) {
			qv := q.Var()
			if s.seen[qv] != 0 || s.level[qv] == 0 {
				continue
			}
			if s.reason[qv] == -1 {
				// Failed: undo temporary marks.
				for _, u := range s.toClr[top:] {
					s.seen[u] = 0
				}
				s.toClr = s.toClr[:top]
				return false
			}
			s.seen[qv] = 1
			s.toClr = append(s.toClr, qv)
			stack = append(stack, qv)
		}
	}
	return true
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[lvl]; i-- {
		l := s.trail[i]
		v := l.Var()
		s.assignLit[l] = lUndef
		s.assignLit[l^1] = lUndef
		s.polarity[v] = l.Neg()
		s.reason[v] = -1
		s.order.insert(v)
	}
	s.trail = s.trail[:s.trailLim[lvl]]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// Bump raises v's VSIDS activity by the current increment, as each
// conflict does for the variables it involves, so the search branches
// on v earlier. Callers use it to point the search at a formula's
// decision variables before the first Solve.
func (s *Solver) Bump(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(cref int32) {
	a := s.claAct(cref)
	*a += s.claInc
	if *a > 1e20 {
		for _, i := range s.learnts {
			*s.claAct(i) *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decayActivities() {
	s.varInc /= 0.95
	s.claInc /= 0.999
}

func (s *Solver) pickBranchVar() Var {
	for !s.order.empty() {
		v := s.order.pop()
		if s.varValue(v) == lUndef {
			return v
		}
	}
	return -1
}

// reduceDB removes roughly half of the learnt clauses, keeping the most
// active and all binary clauses.
func (s *Solver) reduceDB() {
	if len(s.learnts) < 2 {
		return
	}
	// Partial selection sort would be overkill; a simple threshold pass
	// over the activity median approximation works well in practice.
	extra := s.claInc / float64(len(s.learnts))
	sorted := append(s.sortBuf[:0], s.learnts...)
	s.sortByActivity(sorted)
	half := len(sorted) / 2
	kept := sorted[:0]
	for i, cref := range sorted {
		if len(s.clauseLits(cref)) > 2 && !s.locked(cref) && (i < half || *s.claAct(cref) < extra) {
			s.detachClause(cref)
			s.arena[cref] |= hdrDeleted
			s.Stats.Removed++
		} else {
			kept = append(kept, cref)
		}
	}
	s.sortBuf = s.learnts[:0]
	s.learnts = kept
}

// sortByActivity quicksorts learnt crefs by ascending activity.
func (s *Solver) sortByActivity(refs []int32) {
	if len(refs) < 2 {
		return
	}
	pivot := *s.claAct(refs[len(refs)/2])
	i, j := 0, len(refs)-1
	for i <= j {
		for *s.claAct(refs[i]) < pivot {
			i++
		}
		for *s.claAct(refs[j]) > pivot {
			j--
		}
		if i <= j {
			refs[i], refs[j] = refs[j], refs[i]
			i++
			j--
		}
	}
	s.sortByActivity(refs[:j+1])
	s.sortByActivity(refs[i:])
}

// locked reports whether the clause is the reason for a current
// assignment, which must then survive deletion.
func (s *Solver) locked(cref int32) bool {
	lits := s.clauseLits(cref)
	l := lits[0]
	if len(lits) == 2 && s.value(l) != lTrue {
		l = lits[1]
	}
	return s.reason[l.Var()] == cref && s.value(l) == lTrue
}

func (s *Solver) detachClause(cref int32) {
	lits := s.clauseLits(cref)
	for _, w := range [2]Lit{lits[0].Not(), lits[1].Not()} {
		ws := s.watches[w]
		for i := range ws {
			if ws[i].cref() == cref {
				ws[i] = ws[len(ws)-1]
				s.watches[w] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// luby computes the Luby restart sequence value for index i (1-based):
// 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
func luby(i int64) int64 {
	x := i - 1
	size, seq := int64(1), 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return int64(1) << seq
}

// Solve searches for a satisfying assignment under the given assumption
// literals. On Sat, Model reports values. On Unknown, err is ErrBudget.
func (s *Solver) Solve(opts Options, assumptions ...Lit) (Status, error) {
	if !s.ok {
		return Unsat, nil
	}
	if opts.Obs != nil {
		start := time.Now()
		base := s.Stats
		defer func() {
			opts.Obs.Add("sat.decisions", s.Stats.Decisions-base.Decisions)
			opts.Obs.Add("sat.propagations", s.Stats.Propagations-base.Propagations)
			opts.Obs.Add("sat.conflicts", s.Stats.Conflicts-base.Conflicts)
			opts.Obs.Add("sat.restarts", s.Stats.Restarts-base.Restarts)
			opts.Obs.Observe("sat.solve.us", time.Since(start).Microseconds())
		}()
	}
	// An already-expired deadline returns before any search effort: the
	// caller's per-goal timeout may have elapsed while the query was
	// being built and blasted, and starting a conflict-free propagation
	// run here could overshoot it by an unbounded amount.
	if !opts.Deadline.IsZero() && !time.Now().Before(opts.Deadline) {
		return Unknown, ErrBudget
	}
	// Injected budget exhaustion: report the query as too hard without
	// searching (exercises callers' timeout/abandonment paths).
	if opts.Faults.Active(failpoint.SatSpuriousTimeout) {
		return Unknown, ErrBudget
	}
	defer s.cancelUntil(0)

	restartIdx := int64(0)
	maxLearnts := float64(len(s.clauses))/3 + 1000
	conflictsAtStart := s.Stats.Conflicts

	for {
		restartIdx++
		st := s.search(luby(restartIdx)*100, assumptions, &maxLearnts, opts, conflictsAtStart)
		switch st {
		case Sat:
			// Reuse the model slice across Solve calls: this sits in the
			// innermost CEGIS loop, where a fresh allocation per check adds
			// measurable GC pressure.
			if n := s.NumVars(); cap(s.model) >= n {
				s.model = s.model[:n]
			} else {
				s.model = make([]bool, n)
			}
			for v := range s.model {
				s.model[v] = s.varValue(Var(v)) == lTrue
			}
			return Sat, nil
		case Unsat:
			return Unsat, nil
		}
		// Check the budget between restarts.
		if opts.MaxConflicts > 0 && s.Stats.Conflicts-conflictsAtStart >= opts.MaxConflicts {
			return Unknown, ErrBudget
		}
		if !opts.Deadline.IsZero() && time.Now().After(opts.Deadline) {
			return Unknown, ErrBudget
		}
		s.Stats.Restarts++
		// Assumption-preserving restart: only undo the VSIDS decisions.
		// The assumptions occupy the first decision levels and would be
		// re-assumed identically, so keeping them (and everything they
		// imply) avoids re-propagating the whole assumption cone — the
		// dominant cost when an incremental caller guards a large
		// formula behind one activation literal.
		keep := len(assumptions)
		if dl := s.decisionLevel(); dl < keep {
			keep = dl
		}
		s.cancelUntil(keep)
	}
}

// search runs CDCL until a result, a restart budget expiry (returns
// Unknown), or an external budget expiry.
func (s *Solver) search(nConflicts int64, assumptions []Lit, maxLearnts *float64, opts Options, base int64) Status {
	conflicts := int64(0)
	decisions := int64(0)
	for {
		confl := s.propagate()
		if confl != -1 {
			s.Stats.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], -1)
			} else {
				cref := s.allocClause(learnt, true)
				s.learnts = append(s.learnts, cref)
				s.attachClause(cref)
				s.bumpClause(cref)
				s.uncheckedEnqueue(learnt[0], cref)
				s.Stats.Learnt++
			}
			s.decayActivities()
			if conflicts >= nConflicts {
				return Unknown // restart
			}
			if opts.MaxConflicts > 0 && s.Stats.Conflicts-base >= opts.MaxConflicts {
				return Unknown
			}
			if conflicts%256 == 0 && !opts.Deadline.IsZero() && time.Now().After(opts.Deadline) {
				return Unknown
			}
			continue
		}
		if float64(len(s.learnts)) >= *maxLearnts+float64(len(s.trail)) {
			*maxLearnts *= 1.1
			s.reduceDB()
		}
		// Assumptions first, then VSIDS decision.
		var next Lit = -1
		for s.decisionLevel() < len(assumptions) {
			p := assumptions[s.decisionLevel()]
			switch s.value(p) {
			case lTrue:
				s.trailLim = append(s.trailLim, len(s.trail)) // dummy level
				continue
			case lFalse:
				return Unsat // conflicting assumptions
			}
			next = p
			break
		}
		if next == -1 {
			if len(s.trail) == s.NumVars() {
				// Every variable is assigned: pickBranchVar would pop
				// each remaining one only to find it assigned. Drop
				// them all at once instead; the heap ends up empty
				// either way, so Solve's cancelUntil(0) rebuilds the
				// same heap.
				s.order.clear()
				return Sat
			}
			v := s.pickBranchVar()
			if v == -1 {
				return Sat
			}
			s.Stats.Decisions++
			// Conflict-count polling alone leaves the deadline unchecked
			// through long conflict-free runs (huge mostly-satisfiable
			// instances), so poll on a decision interval too.
			decisions++
			if decisions&1023 == 0 && !opts.Deadline.IsZero() && time.Now().After(opts.Deadline) {
				return Unknown
			}
			next = MkLit(v, s.polarity[v])
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, -1)
	}
}

// Model returns the value of v in the most recent satisfying assignment.
// Only valid after Solve returned Sat. Variables allocated after that
// Solve call are unconstrained and report false.
func (s *Solver) Model(v Var) bool {
	if int(v) >= len(s.model) {
		return false
	}
	return s.model[v]
}

// varHeap is a max-heap of variables ordered by VSIDS activity.
type varHeap struct {
	s       *Solver
	heap    []Var
	indices []int // position of var in heap, -1 if absent
}

func (h *varHeap) less(a, b Var) bool { return h.s.activity[a] > h.s.activity[b] }

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) contains(v Var) bool {
	return int(v) < len(h.indices) && h.indices[v] >= 0
}

func (h *varHeap) insert(v Var) {
	for int(v) >= len(h.indices) {
		h.indices = append(h.indices, -1)
	}
	if h.indices[v] >= 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.indices[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *varHeap) update(v Var) {
	if h.contains(v) {
		h.up(h.indices[v])
	}
}

func (h *varHeap) pop() Var {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.indices[h.heap[0]] = 0
	h.heap = h.heap[:last]
	h.indices[v] = -1
	if len(h.heap) > 1 {
		h.down(0)
	}
	return v
}

// clear removes every variable in O(n), leaving the heap as a pop of
// each would.
func (h *varHeap) clear() {
	for _, v := range h.heap {
		h.indices[v] = -1
	}
	h.heap = h.heap[:0]
}

func (h *varHeap) up(i int) {
	v := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(v, h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		h.indices[h.heap[i]] = i
		i = p
	}
	h.heap[i] = v
	h.indices[v] = i
}

func (h *varHeap) down(i int) {
	v := h.heap[i]
	for {
		c := 2*i + 1
		if c >= len(h.heap) {
			break
		}
		if c+1 < len(h.heap) && h.less(h.heap[c+1], h.heap[c]) {
			c++
		}
		if !h.less(h.heap[c], v) {
			break
		}
		h.heap[i] = h.heap[c]
		h.indices[h.heap[i]] = i
		i = c
	}
	h.heap[i] = v
	h.indices[v] = i
}
