// Derived goals. A jump goal's result is often the negation of another
// goal's in its group: cmp.jns of cmp.js, bge of blt. That is the fact
// which lets a jump goal drop its second output (DESIGN.md deviation
// 1), applied across goals. A run searches only the earlier goal of
// each such pair and derives the later goal's rules in the fold: each
// source pattern with its root Cmp relation negated, each verified
// against the derived goal. A derived goal gets no lease, no
// GoalRunner attempt and no journal record (DESIGN.md deviation 5).

package driver

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"selgen/internal/bv"
	"selgen/internal/cegis"
	"selgen/internal/ir"
	"selgen/internal/journal"
	"selgen/internal/obs"
	"selgen/internal/pattern"
	"selgen/internal/sem"
	"selgen/internal/smt"
)

// Plan is a setup's goal list split into the goals a run searches and
// the goals it derives from them. Run, the farm coordinator and its
// merge each work from one Plan, so they agree on which goals are
// searched.
type Plan struct {
	groups []Group
	opts   Options
	// keys lists every goal in goal order (GoalKeys). from[i] is the
	// index in keys of the searched goal keys[i] derives from, or -1
	// when keys[i] is searched.
	keys []GoalKey
	from []int
}

// NewPlan checks opts and pairs every goal with the earlier goal of its
// group whose result it negates, by one solver query per candidate
// pair.
func NewPlan(groups []Group, opts Options) (*Plan, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	return newPlan(groups, opts), nil
}

// newPlan is NewPlan on normalized options. In goal order, a goal
// derives from the first earlier goal of its group that is searched,
// is not yet a source, and is its complement.
func newPlan(groups []Group, opts Options) *Plan {
	p := &Plan{groups: groups, opts: opts, keys: GoalKeys(groups)}
	p.from = make([]int, len(p.keys))
	base := 0
	for _, grp := range groups {
		source := make([]bool, len(grp.Goals))
		for j, b := range grp.Goals {
			p.from[base+j] = -1
			if !twinCandidate(b) {
				continue
			}
			for i, a := range grp.Goals[:j] {
				if source[i] || p.from[base+i] >= 0 || !twinCandidate(a) ||
					!slices.Equal(a.Args, b.Args) || !complements(a, b, opts) {
					continue
				}
				p.from[base+j] = base + i
				source[i] = true
				break
			}
		}
		base += len(grp.Goals)
	}
	return p
}

// twinCandidate reports whether a goal may take part in a derived pair:
// one Bool result, no memory argument and no internals.
func twinCandidate(g *sem.Instr) bool {
	return len(g.Results) == 1 && g.Results[0] == sem.KindBool &&
		len(g.Internals) == 0 && !g.AccessesMemory()
}

// complements asks whether goal b is goal a's complement: on fresh
// arguments (both goals take the same kinds), P(a) ⇔ P(b) and
// P(a) ⟹ (b ⇔ ¬a). The query is UNSAT exactly when they are; one that
// gives up counts as no, so both goals are searched.
func complements(a, b *sem.Instr, opts Options) bool {
	bld := bv.NewBuilder()
	ctx := &sem.Ctx{B: bld, Width: opts.Width}
	va := a.FreshArgs(ctx, "twin_a")
	ea, eb := a.Apply(ctx, va, nil), b.Apply(ctx, va, nil)
	pa, pb := bld.BoolConst(true), bld.BoolConst(true)
	if ea.Pre != nil {
		pa = ea.Pre
	}
	if eb.Pre != nil {
		pb = eb.Pre
	}
	twin := bld.And(bld.Iff(pa, pb),
		bld.Implies(pa, bld.Iff(eb.Results[0], bld.Not(ea.Results[0]))))
	s := smt.NewSolver(bld)
	s.Assert(bld.Not(twin))
	res, _ := s.Check(smt.Options{MaxConflicts: opts.QueryConflicts})
	return res == smt.Unsat
}

// searched returns the indices in keys of the goals a run searches.
func (p *Plan) searched() []int {
	var idx []int
	for i, from := range p.from {
		if from < 0 {
			idx = append(idx, i)
		}
	}
	return idx
}

// Searched lists the goals a run searches, in goal order: the farm's
// lease table.
func (p *Plan) Searched() []GoalKey {
	var keys []GoalKey
	for _, i := range p.searched() {
		keys = append(keys, p.keys[i])
	}
	return keys
}

// Assemble folds a record set (keyed by journal.Key) into the library
// through Run's fold, so the result is byte-identical to the run that
// wrote the records. Every searched goal needs a record: an incomplete
// farm run must fail loudly, never ship a silently truncated library.
// A record for a derived goal, as a run from before derivation wrote
// one, is ignored; the fold derives that goal from its source. Records
// carry no solver effort, so the Solver rows hold only the
// derivations'.
func (p *Plan) Assemble(recs map[string]journal.GoalRecord) (*pattern.Library, *Report, error) {
	outs := make([]*goalOut, len(p.keys))
	var missing []string
	for _, i := range p.searched() {
		rec, ok := recs[p.keys[i].Key()]
		if !ok {
			missing = append(missing, p.keys[i].Key())
			continue
		}
		out := replayed(rec)
		outs[i] = &out
	}
	if len(missing) > 0 {
		return nil, nil, fmt.Errorf("driver: %d goal record(s) missing from the merge (first: %s) — the farm run is incomplete",
			len(missing), missing[0])
	}
	lib, rep := p.fold(outs, nil)
	return lib, rep, nil
}

// derive builds goal's outcome from its source goal's (named from):
// every source pattern with its root Cmp relation negated, each
// verified against goal with cegis's verification query. The outcome
// takes the source's status, ok, retried, degraded or quarantined. A
// pattern that does not derive or verify quarantines the goal with an
// error naming the pattern: the twin query promised that every one
// would, so a failure is a bug and must not pass silently.
func derive(goal *sem.Instr, from string, src goalOut, ops []*sem.Instr, opts Options, tr *obs.Tracer) goalOut {
	start := time.Now()
	out := goalOut{status: src.status, derivedFrom: from}
	var pats []pattern.Pattern
	var err error
	if src.status == StatusQuarantined {
		err = fmt.Errorf("driver: %s derives from %s, which is quarantined", goal.Name, from)
	} else {
		e := cegis.New(ops, cegis.Config{Width: opts.Width, QueryConflicts: opts.QueryConflicts, Obs: tr})
		pats, err = deriveRules(e, goal, src.res.Patterns)
		out.effort = effortOf(e)
	}
	out.res = &cegis.Result{Goal: goal}
	if err != nil {
		out.status, out.err = StatusQuarantined, err
		tr.Add("driver.quarantine", 1)
	} else {
		out.res.Patterns, out.res.MinLen = pats, src.res.MinLen
	}
	out.res.Elapsed = time.Since(start)
	return out
}

// deriveRules negates the root of each source pattern and verifies the
// result against goal.
func deriveRules(e *cegis.Engine, goal *sem.Instr, src []pattern.Pattern) ([]pattern.Pattern, error) {
	pats := make([]pattern.Pattern, 0, len(src))
	for _, sp := range src {
		p, err := negateRoot(sp)
		if err != nil {
			return nil, fmt.Errorf("driver: cannot derive a rule of %s from %s: %w", goal.Name, sp.Canon(), err)
		}
		cex, ok, err := e.Verify(goal, &p)
		if err != nil {
			return nil, fmt.Errorf("driver: derived rule %s of %s: %w", p.Canon(), goal.Name, err)
		}
		if !ok {
			return nil, fmt.Errorf("driver: derived rule %s of %s fails verification on input %v", p.Canon(), goal.Name, cex)
		}
		pats = append(pats, p)
	}
	return pats, nil
}

// negateRoot returns p with the relation of its root Cmp negated. Cmp
// is the IR's only operation with a Bool result and the ten relations
// are closed under negation, so the result is p's negated; a root that
// is not a Cmp node (an argument, say) has nothing to negate.
func negateRoot(p pattern.Pattern) (pattern.Pattern, error) {
	if len(p.Results) != 1 || p.Results[0].Kind != pattern.RefNode ||
		p.Results[0].Index < 0 || p.Results[0].Index >= len(p.Nodes) {
		return p, errors.New("its result is not a Cmp node")
	}
	ri := p.Results[0].Index
	root := p.Nodes[ri]
	if root.Op != "Cmp" || len(root.Internals) != 1 || root.Internals[0] >= ir.NumRelations {
		return p, errors.New("its result is not a Cmp node")
	}
	q := p
	q.Nodes = slices.Clone(p.Nodes)
	q.Nodes[ri].Internals = []uint64{uint64(ir.NegateRelation(int(root.Internals[0])))}
	return q, nil
}
