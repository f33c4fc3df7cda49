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

// FuzzSolver cross-checks the CDCL solver against brute-force
// enumeration on random small CNFs. Any verdict disagreement, or a Sat
// model violating a clause, would invalidate every synthesis result
// built on the solver.
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
		want := Sat
		if !bruteForceSat(nvars, clauses) {
			want = Unsat
		}

		s := solveDecoded(nvars, clauses)
		st, err := s.Solve(Options{})
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if st != want {
			t.Fatalf("verdict %v, oracle says %v (nvars=%d clauses=%v)", st, want, nvars, clauses)
		}
		if st == Sat && !modelSatisfies(s, clauses) {
			t.Fatalf("Sat model violates a clause (nvars=%d clauses=%v)", nvars, clauses)
		}
	})
}
