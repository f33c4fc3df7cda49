package sat

import (
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// trajectory fingerprints a search: its effort counters and a hash of
// every verdict and model it produced. Any change to propagation order,
// conflict analysis, minimization, VSIDS tie-breaking, restarts or
// clause deletion moves at least one of them.
type trajectory struct {
	Decisions, Propagations, Conflicts, Restarts, Learnt int64
	Hash                                                 uint64
}

// record folds a Solve result, and on Sat the model, into h.
func record(h hash.Hash64, s *Solver, st Status) {
	b := []byte{byte(st)}
	if st == Sat {
		for v := 0; v < s.NumVars(); v++ {
			if s.Model(Var(v)) {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
	}
	h.Write(b)
}

func fingerprint(s *Solver, h hash.Hash64) trajectory {
	return trajectory{s.Stats.Decisions, s.Stats.Propagations, s.Stats.Conflicts,
		s.Stats.Restarts, s.Stats.Learnt, h.Sum64()}
}

func solveTrajectory(t *testing.T, s *Solver) trajectory {
	t.Helper()
	h := fnv.New64a()
	st, err := s.Solve(Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	record(h, s, st)
	return fingerprint(s, h)
}

// assumptionTrajectory drives one solver through incremental use: two
// activation-guarded clause groups solved under assumptions, then one
// group retracted by a level-0 unit plus Simplify, then re-solves.
func assumptionTrajectory(t *testing.T) trajectory {
	t.Helper()
	base := planted3SATCNF(11, 150, 600)
	s := base.solver()
	php := pigeonholeCNF(6, 5)
	off := Var(s.NumVars())
	for i := 0; i < php.nvars; i++ {
		s.NewVar()
	}
	act1 := MkLit(s.NewVar(), false)
	for _, cl := range php.clause {
		g := []Lit{act1.Not()}
		for _, l := range cl {
			g = append(g, MkLit(l.Var()+off, l.Neg()))
		}
		s.AddClause(g...)
	}
	act2 := MkLit(s.NewVar(), false)
	for _, cl := range planted3SATCNF(12, 150, 300).clause {
		s.AddClause(append([]Lit{act2.Not()}, cl...)...)
	}
	h := fnv.New64a()
	solve := func(assume ...Lit) {
		st, err := s.Solve(Options{}, assume...)
		if err != nil {
			t.Fatalf("Solve %v: %v", assume, err)
		}
		record(h, s, st)
	}
	solve(act1)
	solve(act2)
	solve(act2, lit(1), lit(-2))
	solve(act1, act2)
	s.AddClause(act1.Not())
	s.Simplify()
	solve(act2)
	solve()
	solve(act2, lit(-1))
	return fingerprint(s, h)
}

// readCorpusEntry decodes a "go test fuzz v1" file holding one []byte.
func readCorpusEntry(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
		!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		t.Fatalf("%s: not a single-[]byte fuzz corpus entry", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// TestTrajectoryPinned pins the search itself, not just its verdicts:
// the expected effort counters and verdict/model hashes were recorded
// with this solver and must be reproduced exactly. A kernel change that
// is meant to keep the search identical must leave every row unchanged;
// one that changes the search on purpose must re-record them.
func TestTrajectoryPinned(t *testing.T) {
	got := map[string]trajectory{
		"php-7-6":          solveTrajectory(t, buildPHP(7, 6)),
		"php-8-7":          solveTrajectory(t, buildPHP(8, 7)),
		"planted-120-480":  solveTrajectory(t, planted3SATCNF(5, 120, 480).solver()),
		"planted-250-1065": solveTrajectory(t, planted3SATCNF(6, 250, 1065).solver()),
		"assumptions":      assumptionTrajectory(t),
	}
	paths, err := filepath.Glob("testdata/fuzz/FuzzSolver/*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("FuzzSolver corpus: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		nvars, clauses := decodeCNF(readCorpusEntry(t, p))
		got["corpus/"+filepath.Base(p)] = solveTrajectory(t, solveDecoded(nvars, clauses))
	}
	want := pinnedTrajectories
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%q: no pinned trajectory; got %#v", name, g)
			continue
		}
		if g != w {
			t.Errorf("%q: trajectory %#v, pinned %#v", name, g, w)
		}
	}
	if len(want) != len(got) {
		t.Errorf("%d pinned trajectories, %d instances", len(want), len(got))
	}
}

// pinnedTrajectories holds each instance's recorded trajectory.
var pinnedTrajectories = map[string]trajectory{
	"assumptions":      {Decisions: 661, Propagations: 11902, Conflicts: 481, Restarts: 4, Learnt: 479, Hash: 0xc4a40a1bab72b962},
	"corpus/seed00":    {Decisions: 1, Propagations: 1, Conflicts: 0, Restarts: 0, Learnt: 0, Hash: 0x82f2207b4e88cc4},
	"corpus/seed01":    {Decisions: 0, Propagations: 1, Conflicts: 0, Restarts: 0, Learnt: 0, Hash: 0x82f2307b4e88e77},
	"corpus/seed02":    {Decisions: 0, Propagations: 1, Conflicts: 0, Restarts: 0, Learnt: 0, Hash: 0x82f2307b4e88e77},
	"corpus/seed03":    {Decisions: 0, Propagations: 1, Conflicts: 0, Restarts: 0, Learnt: 0, Hash: 0x82f2307b4e88e77},
	"corpus/seed04":    {Decisions: 0, Propagations: 1, Conflicts: 0, Restarts: 0, Learnt: 0, Hash: 0x82f2307b4e88e77},
	"corpus/seed05":    {Decisions: 0, Propagations: 1, Conflicts: 0, Restarts: 0, Learnt: 0, Hash: 0xaf63bf4c8601bb45},
	"corpus/seed06":    {Decisions: 2, Propagations: 3, Conflicts: 1, Restarts: 0, Learnt: 0, Hash: 0xd0a6fc18672a1282},
	"corpus/seed07":    {Decisions: 8, Propagations: 9, Conflicts: 0, Restarts: 0, Learnt: 0, Hash: 0x512de6c89da6cd44},
	"corpus/seed08":    {Decisions: 2, Propagations: 3, Conflicts: 1, Restarts: 0, Learnt: 0, Hash: 0xd0a6fc18672a1282},
	"corpus/seed09":    {Decisions: 1, Propagations: 2, Conflicts: 0, Restarts: 0, Learnt: 0, Hash: 0xd0a39818672732bf},
	"corpus/seed10":    {Decisions: 0, Propagations: 1, Conflicts: 0, Restarts: 0, Learnt: 0, Hash: 0x82f2307b4e88e77},
	"corpus/seed11":    {Decisions: 1, Propagations: 1, Conflicts: 0, Restarts: 0, Learnt: 0, Hash: 0x82f2207b4e88cc4},
	"php-7-6":          {Decisions: 1027, Propagations: 11233, Conflicts: 858, Restarts: 6, Learnt: 855, Hash: 0xaf63bf4c8601bb45},
	"php-8-7":          {Decisions: 4717, Propagations: 51072, Conflicts: 3826, Restarts: 20, Learnt: 3820, Hash: 0xaf63bf4c8601bb45},
	"planted-120-480":  {Decisions: 101, Propagations: 1897, Conflicts: 67, Restarts: 0, Learnt: 67, Hash: 0x71666a42c3de073d},
	"planted-250-1065": {Decisions: 1517, Propagations: 51044, Conflicts: 1102, Restarts: 6, Learnt: 1102, Hash: 0x9648060a705ee88b},
}
