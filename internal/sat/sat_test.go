package sat

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"selgen/internal/failpoint"
)

func lit(i int) Lit {
	if i > 0 {
		return MkLit(Var(i-1), false)
	}
	return MkLit(Var(-i-1), true)
}

// newSolverWithVars returns a solver with n variables allocated.
func newSolverWithVars(n int) *Solver {
	s := New()
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	return s
}

func mustSolve(t *testing.T, s *Solver, assumptions ...Lit) Status {
	t.Helper()
	st, err := s.Solve(Options{}, assumptions...)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return st
}

func TestLitBasics(t *testing.T) {
	l := MkLit(3, false)
	if l.Var() != 3 || l.Neg() {
		t.Fatalf("MkLit(3,false) = var %d neg %v", l.Var(), l.Neg())
	}
	n := l.Not()
	if n.Var() != 3 || !n.Neg() {
		t.Fatalf("Not: var %d neg %v", n.Var(), n.Neg())
	}
	if n.Not() != l {
		t.Fatalf("double negation is not identity")
	}
	if l.String() != "4" || n.String() != "-4" {
		t.Fatalf("String: %q %q", l.String(), n.String())
	}
}

func TestEmptySolverIsSat(t *testing.T) {
	s := New()
	if st := mustSolve(t, s); st != Sat {
		t.Fatalf("empty solver: %v", st)
	}
}

func TestSingleUnit(t *testing.T) {
	s := newSolverWithVars(1)
	s.AddClause(lit(1))
	if st := mustSolve(t, s); st != Sat {
		t.Fatalf("got %v", st)
	}
	if !s.Model(0) {
		t.Fatalf("model: x1 should be true")
	}
}

func TestContradictoryUnits(t *testing.T) {
	s := newSolverWithVars(1)
	s.AddClause(lit(1))
	ok := s.AddClause(lit(-1))
	if ok {
		t.Fatalf("adding contradictory unit should report false")
	}
	if st := mustSolve(t, s); st != Unsat {
		t.Fatalf("got %v", st)
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := newSolverWithVars(2)
	if !s.AddClause(lit(1), lit(-1)) {
		t.Fatalf("tautology should be accepted")
	}
	if s.NumClauses() != 0 {
		t.Fatalf("tautology should not be stored, have %d clauses", s.NumClauses())
	}
}

func TestDuplicateLiteralsCollapsed(t *testing.T) {
	s := newSolverWithVars(2)
	// (x1 | x1 | x2) must behave like (x1 | x2).
	s.AddClause(lit(1), lit(1), lit(2))
	s.AddClause(lit(-1))
	if st := mustSolve(t, s); st != Sat {
		t.Fatalf("got %v", st)
	}
	if !s.Model(1) {
		t.Fatalf("x2 must be true when x1 is false")
	}
}

func TestSimpleImplicationChain(t *testing.T) {
	// x1, x1->x2, x2->x3, ..., x(n-1)->xn: all forced true.
	n := 50
	s := newSolverWithVars(n)
	s.AddClause(lit(1))
	for i := 1; i < n; i++ {
		s.AddClause(lit(-i), lit(i+1))
	}
	if st := mustSolve(t, s); st != Sat {
		t.Fatalf("got %v", st)
	}
	for i := 0; i < n; i++ {
		if !s.Model(Var(i)) {
			t.Fatalf("x%d should be true", i+1)
		}
	}
}

func TestPigeonhole3x2Unsat(t *testing.T) {
	// 3 pigeons, 2 holes. Var p*2+h: pigeon p in hole h.
	s := newSolverWithVars(6)
	v := func(p, h int) Lit { return MkLit(Var(p*2+h), false) }
	for p := 0; p < 3; p++ {
		s.AddClause(v(p, 0), v(p, 1))
	}
	for h := 0; h < 2; h++ {
		for p1 := 0; p1 < 3; p1++ {
			for p2 := p1 + 1; p2 < 3; p2++ {
				s.AddClause(v(p1, h).Not(), v(p2, h).Not())
			}
		}
	}
	if st := mustSolve(t, s); st != Unsat {
		t.Fatalf("PHP(3,2) must be unsat, got %v", st)
	}
}

func TestPigeonhole6x5Unsat(t *testing.T) {
	const P, H = 6, 5
	s := newSolverWithVars(P * H)
	v := func(p, h int) Lit { return MkLit(Var(p*H+h), false) }
	for p := 0; p < P; p++ {
		var c []Lit
		for h := 0; h < H; h++ {
			c = append(c, v(p, h))
		}
		s.AddClause(c...)
	}
	for h := 0; h < H; h++ {
		for p1 := 0; p1 < P; p1++ {
			for p2 := p1 + 1; p2 < P; p2++ {
				s.AddClause(v(p1, h).Not(), v(p2, h).Not())
			}
		}
	}
	if st := mustSolve(t, s); st != Unsat {
		t.Fatalf("PHP(6,5) must be unsat, got %v", st)
	}
	if s.Stats.Conflicts == 0 {
		t.Fatalf("PHP(6,5) should require conflicts")
	}
}

func TestAssumptions(t *testing.T) {
	s := newSolverWithVars(3)
	s.AddClause(lit(1), lit(2))
	s.AddClause(lit(-1), lit(3))

	// Under assumption -x2: x1 and x3 forced.
	if st := mustSolve(t, s, lit(-2)); st != Sat {
		t.Fatalf("got %v", st)
	}
	if !s.Model(0) || !s.Model(2) {
		t.Fatalf("x1 and x3 must be true under -x2")
	}

	// Contradictory assumptions.
	if st := mustSolve(t, s, lit(1), lit(-1)); st != Unsat {
		t.Fatalf("contradictory assumptions: got %v", st)
	}

	// Solver stays usable after an unsat-under-assumptions call.
	if st := mustSolve(t, s); st != Sat {
		t.Fatalf("solver unusable after assumption unsat: %v", st)
	}
}

func TestAssumptionUnsatDoesNotPoison(t *testing.T) {
	s := newSolverWithVars(2)
	s.AddClause(lit(1), lit(2))
	s.AddClause(lit(-1), lit(2))
	s.AddClause(lit(1), lit(-2))
	// Formula forces x1 & x2... actually check: only (-1,-2) missing, so
	// x1=x2=true is the unique model.
	if st := mustSolve(t, s, lit(-1)); st != Unsat {
		t.Fatalf("assuming -x1: got %v", st)
	}
	if st := mustSolve(t, s); st != Sat {
		t.Fatalf("got %v", st)
	}
	if !s.Model(0) || !s.Model(1) {
		t.Fatalf("unique model is x1=x2=true")
	}
}

func TestConflictBudget(t *testing.T) {
	// A formula that takes many conflicts: PHP(7,6).
	const P, H = 7, 6
	s := newSolverWithVars(P * H)
	v := func(p, h int) Lit { return MkLit(Var(p*H+h), false) }
	for p := 0; p < P; p++ {
		var c []Lit
		for h := 0; h < H; h++ {
			c = append(c, v(p, h))
		}
		s.AddClause(c...)
	}
	for h := 0; h < H; h++ {
		for p1 := 0; p1 < P; p1++ {
			for p2 := p1 + 1; p2 < P; p2++ {
				s.AddClause(v(p1, h).Not(), v(p2, h).Not())
			}
		}
	}
	st, err := s.Solve(Options{MaxConflicts: 1})
	if err != ErrBudget || st != Unknown {
		t.Fatalf("want budget exhaustion, got %v %v", st, err)
	}
}

func TestDeadline(t *testing.T) {
	s := newSolverWithVars(2)
	s.AddClause(lit(1), lit(2))
	// Already-expired deadline still answers easy instances between
	// restarts only; an immediately satisfiable formula must return Sat
	// because the first search call finds it before any budget check.
	st, err := s.Solve(Options{Deadline: time.Now().Add(time.Minute)})
	if err != nil || st != Sat {
		t.Fatalf("got %v %v", st, err)
	}
}

// verifyModel checks the model satisfies all clauses of the instance.
func verifyModel(t *testing.T, s *Solver, clauses [][]Lit) {
	t.Helper()
	for i, c := range clauses {
		ok := false
		for _, l := range c {
			val := s.Model(l.Var())
			if l.Neg() {
				val = !val
			}
			if val {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("clause %d unsatisfied by model", i)
		}
	}
}

func TestRandom3SATSatisfiableInstances(t *testing.T) {
	// Planted-solution random 3-SAT: always satisfiable, model verified.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 40
		m := 150
		planted := make([]bool, n)
		for i := range planted {
			planted[i] = rng.Intn(2) == 0
		}
		s := newSolverWithVars(n)
		var clauses [][]Lit
		for len(clauses) < m {
			c := make([]Lit, 3)
			for j := range c {
				v := Var(rng.Intn(n))
				c[j] = MkLit(v, rng.Intn(2) == 0)
			}
			// Ensure the planted assignment satisfies the clause.
			sat := false
			for _, l := range c {
				val := planted[l.Var()]
				if l.Neg() {
					val = !val
				}
				if val {
					sat = true
				}
			}
			if !sat {
				c[0] = MkLit(c[0].Var(), !planted[c[0].Var()])
			}
			clauses = append(clauses, c)
			s.AddClause(c...)
		}
		if st := mustSolve(t, s); st != Sat {
			t.Fatalf("trial %d: planted instance reported %v", trial, st)
		}
		verifyModel(t, s, clauses)
	}
}

func TestRandomUnsatCores(t *testing.T) {
	// x != y encoded over k-bit vectors via XOR chains, then force equal.
	// Build: a=b (bitwise), plus a clause saying they differ somewhere.
	k := 8
	s := newSolverWithVars(2 * k)
	a := func(i int) Lit { return MkLit(Var(i), false) }
	b := func(i int) Lit { return MkLit(Var(k+i), false) }
	for i := 0; i < k; i++ {
		// a_i == b_i
		s.AddClause(a(i).Not(), b(i))
		s.AddClause(a(i), b(i).Not())
	}
	var diff []Lit
	aux := make([]Var, k)
	for i := 0; i < k; i++ {
		aux[i] = s.NewVar()
		d := MkLit(aux[i], false)
		// d_i <-> (a_i XOR b_i)
		s.AddClause(d.Not(), a(i), b(i))
		s.AddClause(d.Not(), a(i).Not(), b(i).Not())
		s.AddClause(d, a(i).Not(), b(i))
		s.AddClause(d, a(i), b(i).Not())
		diff = append(diff, d)
	}
	s.AddClause(diff...)
	if st := mustSolve(t, s); st != Unsat {
		t.Fatalf("equal-and-different must be unsat, got %v", st)
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if g := luby(int64(i + 1)); g != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, g, w)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := newSolverWithVars(6)
	v := func(p, h int) Lit { return MkLit(Var(p*2+h), false) }
	for p := 0; p < 3; p++ {
		s.AddClause(v(p, 0), v(p, 1))
	}
	for h := 0; h < 2; h++ {
		for p1 := 0; p1 < 3; p1++ {
			for p2 := p1 + 1; p2 < 3; p2++ {
				s.AddClause(v(p1, h).Not(), v(p2, h).Not())
			}
		}
	}
	mustSolve(t, s)
	if s.Stats.Propagations == 0 {
		t.Fatalf("expected propagations to be counted")
	}
}

func TestManyVariablesChain(t *testing.T) {
	// Large equivalence chain x1 = x2 = ... = xn with x1 true, xn true:
	// satisfiable; then add xn false: unsat.
	n := 2000
	s := newSolverWithVars(n)
	for i := 1; i < n; i++ {
		s.AddClause(lit(-i), lit(i+1))
		s.AddClause(lit(i), lit(-(i + 1)))
	}
	s.AddClause(lit(1))
	if st := mustSolve(t, s); st != Sat {
		t.Fatalf("got %v", st)
	}
	for i := 0; i < n; i++ {
		if !s.Model(Var(i)) {
			t.Fatalf("x%d should be true", i+1)
		}
	}
	if ok := s.AddClause(lit(-n)); ok {
		t.Fatalf("adding -x_n should conflict at level 0")
	}
	if st := mustSolve(t, s); st != Unsat {
		t.Fatalf("got %v", st)
	}
}

func TestStatusString(t *testing.T) {
	if Sat.String() != "sat" || Unsat.String() != "unsat" || Unknown.String() != "unknown" {
		t.Fatalf("status strings wrong")
	}
}

func TestAtMostOneEncodingsAgree(t *testing.T) {
	// Pairwise at-most-one over 8 vars plus at-least-one: exactly-one.
	// Solve repeatedly, blocking each model; must find exactly 8 models.
	n := 8
	s := newSolverWithVars(n)
	var all []Lit
	for i := 1; i <= n; i++ {
		all = append(all, lit(i))
	}
	s.AddClause(all...)
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			s.AddClause(lit(-i), lit(-j))
		}
	}
	count := 0
	for {
		st := mustSolve(t, s)
		if st == Unsat {
			break
		}
		count++
		if count > n {
			t.Fatalf("more than %d models of exactly-one", n)
		}
		// Block this model.
		var block []Lit
		trueCount := 0
		for v := 0; v < n; v++ {
			if s.Model(Var(v)) {
				trueCount++
				block = append(block, MkLit(Var(v), true))
			} else {
				block = append(block, MkLit(Var(v), false))
			}
		}
		if trueCount != 1 {
			t.Fatalf("model sets %d vars true, want 1", trueCount)
		}
		s.AddClause(block...)
	}
	if count != n {
		t.Fatalf("found %d models, want %d", count, n)
	}
}

// pigeonhole builds PHP(P, H): P pigeons into H holes, unsat for
// P > H and exponentially hard for resolution-based solvers.
func pigeonhole(P, H int) *Solver {
	s := newSolverWithVars(P * H)
	v := func(p, h int) Lit { return MkLit(Var(p*H+h), false) }
	for p := 0; p < P; p++ {
		var c []Lit
		for h := 0; h < H; h++ {
			c = append(c, v(p, h))
		}
		s.AddClause(c...)
	}
	for h := 0; h < H; h++ {
		for p1 := 0; p1 < P; p1++ {
			for p2 := p1 + 1; p2 < P; p2++ {
				s.AddClause(v(p1, h).Not(), v(p2, h).Not())
			}
		}
	}
	return s
}

// cnf is an instance both as a clause list (for model verification and
// rebuilding fresh solvers) and a variable count.
type cnf struct {
	nvars  int
	clause [][]Lit
}

func (c *cnf) solver() *Solver {
	s := New()
	c.load(s)
	return s
}

// load allocates the instance's variables in s and adds its clauses.
func (c *cnf) load(s *Solver) {
	for i := 0; i < c.nvars; i++ {
		s.NewVar()
	}
	for _, cl := range c.clause {
		if !s.AddClause(cl...) {
			break
		}
	}
}

// pigeonholeCNF is pigeonhole() as a clause list: P pigeons, H holes.
func pigeonholeCNF(P, H int) *cnf {
	c := &cnf{nvars: P * H}
	v := func(p, h int) Lit { return MkLit(Var(p*H+h), false) }
	for p := 0; p < P; p++ {
		var cl []Lit
		for h := 0; h < H; h++ {
			cl = append(cl, v(p, h))
		}
		c.clause = append(c.clause, cl)
	}
	for h := 0; h < H; h++ {
		for p1 := 0; p1 < P; p1++ {
			for p2 := p1 + 1; p2 < P; p2++ {
				c.clause = append(c.clause, []Lit{v(p1, h).Not(), v(p2, h).Not()})
			}
		}
	}
	return c
}

// planted3SATCNF is the planted-solution random 3-SAT generator from
// the solver tests as a clause list (always satisfiable).
func planted3SATCNF(seed int64, n, m int) *cnf {
	rng := rand.New(rand.NewSource(seed))
	planted := make([]bool, n)
	for i := range planted {
		planted[i] = rng.Intn(2) == 0
	}
	c := &cnf{nvars: n}
	for len(c.clause) < m {
		cl := make([]Lit, 3)
		for j := range cl {
			cl[j] = MkLit(Var(rng.Intn(n)), rng.Intn(2) == 0)
		}
		sat := false
		for _, l := range cl {
			if planted[l.Var()] != l.Neg() {
				sat = true
			}
		}
		if !sat {
			cl[0] = MkLit(cl[0].Var(), !planted[cl[0].Var()])
		}
		c.clause = append(c.clause, cl)
	}
	return c
}

// mustFaults builds an armed fault registry or fails the test.
func mustFaults(t *testing.T, spec string) *failpoint.Registry {
	t.Helper()
	reg, err := failpoint.Parse(spec, 1)
	if err != nil {
		t.Fatalf("failpoint.Parse(%q): %v", spec, err)
	}
	return reg
}

// TestRecycleMatchesFreshSolver: a solver that has solved one formula
// and been Recycled must behave exactly like a fresh solver on the
// next formula — zeroed stats, same verdicts, including under
// assumptions.
func TestRecycleMatchesFreshSolver(t *testing.T) {
	s := pigeonholeCNF(5, 4).solver()
	if st, err := s.Solve(Options{}); err != nil || st != Unsat {
		t.Fatalf("warm-up solve: %v %v", st, err)
	}
	s.Recycle()
	if s.Stats != (Stats{}) {
		t.Fatalf("Recycle left stats behind: %+v", s.Stats)
	}

	next := planted3SATCNF(3, 30, 120)
	fresh := next.solver()
	next.load(s)
	for _, assume := range [][]Lit{nil, {lit(1)}, {lit(-1), lit(2)}} {
		wantSt, wantErr := fresh.Solve(Options{}, assume...)
		gotSt, gotErr := s.Solve(Options{}, assume...)
		if gotSt != wantSt || gotErr != wantErr {
			t.Fatalf("assume %v: recycled (%v, %v) vs fresh (%v, %v)",
				assume, gotSt, gotErr, wantSt, wantErr)
		}
		if gotSt == Sat {
			verifyModel(t, s, next.clause)
		}
	}
}

// TestSpuriousTimeoutFailpoint: the sat.spurious.timeout failpoint
// turns a solvable query into an ErrBudget answer, the signal the
// driver's retry ladder consumes.
func TestSpuriousTimeoutFailpoint(t *testing.T) {
	inst := planted3SATCNF(7, 30, 120)
	s := inst.solver()
	opts := Options{Faults: mustFaults(t, "sat.spurious.timeout=once")}
	st, err := s.Solve(opts)
	if st != Unknown || !errors.Is(err, ErrBudget) {
		t.Fatalf("got %v %v, want Unknown ErrBudget", st, err)
	}
	// The failpoint was "once": the retry succeeds.
	st, err = s.Solve(opts)
	if err != nil || st != Sat {
		t.Fatalf("retry got %v %v, want Sat <nil>", st, err)
	}
}

// TestExpiredDeadlineReturnsBeforeSearch is the regression test for the
// deadline-at-entry check: an already-expired deadline on a hard
// instance must return ErrBudget without doing any search work.
func TestExpiredDeadlineReturnsBeforeSearch(t *testing.T) {
	s := pigeonhole(10, 9)
	start := time.Now()
	st, err := s.Solve(Options{Deadline: time.Now().Add(-time.Second)})
	if st != Unknown || err != ErrBudget {
		t.Fatalf("expired deadline: got %v %v, want Unknown ErrBudget", st, err)
	}
	if s.Stats.Conflicts != 0 {
		t.Fatalf("expired deadline must not search (got %d conflicts)", s.Stats.Conflicts)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("expired deadline took %s", elapsed)
	}
}

// TestTinyDeadlineOnHardQueryReturnsPromptly checks the polling fix:
// a few-millisecond deadline on a hard query must abort within the
// poll granularity, not run to completion.
func TestTinyDeadlineOnHardQueryReturnsPromptly(t *testing.T) {
	s := pigeonhole(10, 9)
	start := time.Now()
	st, err := s.Solve(Options{Deadline: time.Now().Add(20 * time.Millisecond)})
	elapsed := time.Since(start)
	if st != Unknown || err != ErrBudget {
		t.Fatalf("tiny deadline: got %v %v, want Unknown ErrBudget", st, err)
	}
	// Generous bound: polls happen at restarts, every 256 conflicts,
	// and every 1024 decisions, all of which fire well within seconds.
	if elapsed > 5*time.Second {
		t.Fatalf("20ms deadline took %s to abort", elapsed)
	}
}
