package sat

import (
	"testing"
)

// fuzzMaxVars bounds the CNFs FuzzSolver decodes so the brute-force
// oracle (2^n assignments) stays cheap.
const fuzzMaxVars = 16

// decodeCNF turns fuzz bytes into a small CNF. The first byte picks the
// variable count (1..16); each following byte is a literal (value mod
// 2·nvars), with 0xFF terminating the current clause. Two consecutive
// 0xFF bytes produce an empty clause — a legal, trivially unsatisfiable
// input the solver must handle. Clause count and length are capped so
// the oracle's work stays bounded.
func decodeCNF(data []byte) (nvars int, clauses [][]Lit) {
	if len(data) == 0 {
		return 1, nil
	}
	nvars = int(data[0])%fuzzMaxVars + 1
	var cur []Lit
	for _, b := range data[1:] {
		if b == 0xFF {
			clauses = append(clauses, cur)
			cur = nil
			if len(clauses) == 64 {
				return nvars, clauses
			}
			continue
		}
		if len(cur) >= 16 {
			continue
		}
		code := int(b) % (2 * nvars)
		cur = append(cur, MkLit(Var(code/2), code%2 == 1))
	}
	if len(cur) > 0 {
		clauses = append(clauses, cur)
	}
	return nvars, clauses
}

// bruteForceSat is the enumeration oracle: it reports whether any of
// the 2^nvars assignments satisfies every clause.
func bruteForceSat(nvars int, clauses [][]Lit) bool {
	for m := uint(0); m < 1<<nvars; m++ {
		ok := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				if m>>uint(l.Var())&1 == 1 != l.Neg() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// modelSatisfies reports whether the solver's model satisfies every
// clause of the decoded CNF.
func modelSatisfies(s *Solver, clauses [][]Lit) bool {
	for _, c := range clauses {
		sat := false
		for _, l := range c {
			if s.Model(l.Var()) != l.Neg() {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

// solveDecoded builds a fresh solver over the decoded CNF and returns
// it (clauses rejected by AddClause leave the solver in its
// top-level-unsat state, which Solve reports as Unsat).
func solveDecoded(nvars int, clauses [][]Lit) *Solver {
	return (&cnf{nvars: nvars, clause: clauses}).solver()
}

// decodeAssumptions derives one or two assumption literals over the
// CNF's variables from the same fuzz bytes: the data's length parity
// picks the count, and its last bytes pick the literals the way
// decodeCNF does. Two assumptions may repeat or contradict each other.
func decodeAssumptions(data []byte, nvars int) []Lit {
	n := 1 + len(data)%2
	out := make([]Lit, 0, n)
	for k := 0; k < n; k++ {
		var b byte
		if k < len(data) {
			b = data[len(data)-1-k]
		}
		code := int(b) % (2 * nvars)
		out = append(out, MkLit(Var(code/2), code%2 == 1))
	}
	return out
}

// checkSolve solves s under the assumptions and checks the verdict
// against the oracle on clauses plus one unit clause per assumption,
// and a Sat model against the same clauses. It then checks the
// invariant the next Solve relies on: every variable unassigned at
// level 0 is back in the branching heap, or a later Sat answer could
// leave it undecided.
func checkSolve(t *testing.T, s *Solver, nvars int, clauses [][]Lit, assumps ...Lit) {
	t.Helper()
	all := clauses[:len(clauses):len(clauses)]
	for _, a := range assumps {
		all = append(all, []Lit{a})
	}
	want := Sat
	if !bruteForceSat(nvars, all) {
		want = Unsat
	}
	st, err := s.Solve(Options{}, assumps...)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if st != want {
		t.Fatalf("verdict %v, oracle says %v (nvars=%d clauses=%v assumptions=%v)", st, want, nvars, clauses, assumps)
	}
	if st == Sat && !modelSatisfies(s, all) {
		t.Fatalf("Sat model violates a clause (nvars=%d clauses=%v assumptions=%v)", nvars, clauses, assumps)
	}
	h := &s.order
	for v := Var(0); int(v) < s.NumVars(); v++ {
		// Check the heap array itself: stale indices would fool contains.
		if s.varValue(v) == lUndef && !(h.contains(v) && h.indices[v] < len(h.heap) && h.heap[h.indices[v]] == v) {
			t.Fatalf("variable %d unassigned at level 0 but not in the branching heap (nvars=%d clauses=%v)", v, nvars, clauses)
		}
	}
}

// FuzzSolver cross-checks the CDCL solver against brute-force
// enumeration on random small CNFs. Any verdict disagreement, or a Sat
// model violating a clause, would invalidate every synthesis result
// built on the solver. Each input is solved once on a fresh solver,
// then replayed incrementally on a second one, as CEGIS uses it: half
// the clauses, a Bump, the rest, then a Solve under assumptions, each
// Solve checked against the oracle.
func FuzzSolver(f *testing.F) {
	// A satisfiable 3-var chain, an UNSAT pair, an empty-clause input,
	// and a pigeonhole-ish crunch; the checked-in corpus under
	// testdata/fuzz/FuzzSolver adds denser instances.
	f.Add([]byte{2, 0, 2, 0xFF, 1, 4, 0xFF, 3, 5, 0xFF})
	f.Add([]byte{0, 0, 0xFF, 1, 0xFF})
	f.Add([]byte{5, 0xFF, 0xFF})
	f.Add([]byte{3, 0, 2, 0xFF, 1, 3, 0xFF, 0, 3, 0xFF, 1, 2, 0xFF, 4, 6, 0xFF, 5, 7, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		nvars, clauses := decodeCNF(data)
		checkSolve(t, solveDecoded(nvars, clauses), nvars, clauses)

		s := New()
		for i := 0; i < nvars; i++ {
			s.NewVar()
		}
		half := len(clauses) / 2
		add := func(cs [][]Lit) {
			for _, c := range cs {
				s.AddClause(c...)
			}
		}
		add(clauses[:half])
		checkSolve(t, s, nvars, clauses[:half])
		if len(clauses) > 0 {
			for _, l := range clauses[0] {
				s.Bump(l.Var())
			}
		}
		add(clauses[half:])
		checkSolve(t, s, nvars, clauses)
		checkSolve(t, s, nvars, clauses, decodeAssumptions(data, nvars)...)
	})
}
