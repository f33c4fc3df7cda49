package sat

import "testing"

// decide opens a decision level and assigns l, as search does.
func decide(s *Solver, l Lit) {
	s.trailLim = append(s.trailLim, len(s.trail))
	s.uncheckedEnqueue(l, -1)
}

// TestBinaryConflictAboveLevelZero: a binary clause falsified at level 1
// is reported as [other, falsified] and analysis learns ¬decision.
func TestBinaryConflictAboveLevelZero(t *testing.T) {
	s := newSolverWithVars(3)
	a, b, c := lit(1), lit(2), lit(3)
	s.AddClause(a.Not(), b)
	s.AddClause(a.Not(), c)
	s.AddClause(b.Not(), c.Not()) // stored [¬b, ¬c]; ¬b is falsified first
	decide(s, a)
	confl := s.propagate()
	if confl == -1 {
		t.Fatal("no conflict")
	}
	if got := s.clauseLits(confl); got[0] != c.Not() || got[1] != b.Not() {
		t.Fatalf("binary conflict stored as %v, want [%v %v]", got, c.Not(), b.Not())
	}
	learnt, bt := s.analyze(confl)
	if len(learnt) != 1 || learnt[0] != a.Not() || bt != 0 {
		t.Fatalf("learnt %v at level %d, want [%v] at 0", learnt, bt, a.Not())
	}
}

// TestBinaryReasonImpliedSecond: a binary reason whose implied literal
// is stored second must be read by variable, both when analysis
// resolves on it and when minimization follows it.
func TestBinaryReasonImpliedSecond(t *testing.T) {
	x, y, d, e := lit(1), lit(2), lit(3), lit(4)
	for _, tc := range []struct {
		name    string
		clauses [][]Lit
		want    []Lit
	}{
		// ¬y is implied by ¬x, which is in the clause: dropped.
		{"redundant", [][]Lit{{x.Not(), y}, {d.Not(), x.Not(), e}, {d.Not(), y.Not(), e.Not()}},
			[]Lit{d.Not(), x.Not()}},
		// ¬y's reason reaches the decision x, absent from the clause:
		// kept. e's binary reason [¬d, e] is resolved on too.
		{"kept", [][]Lit{{x.Not(), y}, {d.Not(), e}, {d.Not(), y.Not(), e.Not()}},
			[]Lit{d.Not(), y.Not()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSolverWithVars(4)
			for _, c := range tc.clauses {
				s.AddClause(c...)
			}
			decide(s, x)
			if s.propagate() != -1 {
				t.Fatal("conflict at level 1")
			}
			if r := s.reason[y.Var()]; r == -1 || s.clauseLits(r)[1] != y {
				t.Fatalf("y's binary reason does not store y second")
			}
			decide(s, d)
			confl := s.propagate()
			if confl == -1 {
				t.Fatal("no conflict at level 2")
			}
			learnt, bt := s.analyze(confl)
			if len(learnt) != len(tc.want) || bt != 1 {
				t.Fatalf("learnt %v at level %d, want %v at 1", learnt, bt, tc.want)
			}
			for i := range learnt {
				if learnt[i] != tc.want[i] {
					t.Fatalf("learnt %v, want %v", learnt, tc.want)
				}
			}
		})
	}
}

// TestSimplifyKeepsLockedBinaryReason: Simplify at level 0 must keep a
// satisfied binary clause that is the reason of its second literal, and
// remove a satisfied one that is not a reason.
func TestSimplifyKeepsLockedBinaryReason(t *testing.T) {
	s := newSolverWithVars(3)
	a, b, c := lit(1), lit(2), lit(3)
	s.AddClause(a, b)
	s.AddClause(b, c)
	s.AddClause(a.Not()) // b implied by (a ∨ b), stored second
	cref := s.reason[b.Var()]
	if cref == -1 || s.clauseLits(cref)[1] != b || !s.locked(cref) {
		t.Fatalf("(a ∨ b) should be b's locked reason")
	}
	s.Simplify()
	if s.isDeleted(cref) || s.NumClauses() != 1 {
		t.Fatalf("Simplify kept %d clauses (reason deleted: %v), want only the reason",
			s.NumClauses(), s.isDeleted(cref))
	}
	if st := mustSolve(t, s); st != Sat || !s.Model(b.Var()) {
		t.Fatalf("got %v, b=%v", st, s.Model(b.Var()))
	}
}

// TestRecycledSolveDoesNotAllocate: once a recycled solver's buffers
// have grown to a workload's size, rebuilding and solving it allocates
// nothing.
func TestRecycledSolveDoesNotAllocate(t *testing.T) {
	insts := []*cnf{planted3SATCNF(5, 120, 480), pigeonholeCNF(5, 4)}
	s := New()
	run := func() {
		for _, c := range insts {
			s.Recycle()
			for i := 0; i < c.nvars; i++ {
				s.NewVar()
			}
			for _, cl := range c.clause {
				s.AddClause(cl...)
			}
			if _, err := s.Solve(Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	if n := testing.AllocsPerRun(5, run); n != 0 {
		t.Fatalf("recycled AddClause+Solve allocated %v times per run", n)
	}
}
