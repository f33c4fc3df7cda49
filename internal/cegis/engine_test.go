package cegis

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"selgen/internal/ir"
	"selgen/internal/pattern"
	"selgen/internal/sem"
	"selgen/internal/x86"
)

func testEngine(t *testing.T, maxLen int) *Engine {
	t.Helper()
	return New(ir.Ops(), Config{Width: 8, MaxLen: maxLen, Seed: 1})
}

// checkPatternsValid validates every pattern and re-verifies it against
// the goal via the engine's verifier.
func checkPatternsValid(t *testing.T, e *Engine, goal *sem.Instr, pats []pattern.Pattern) {
	t.Helper()
	for i := range pats {
		if err := pats[i].Validate(e.Ops()); err != nil {
			t.Fatalf("pattern %d invalid: %v", i, err)
		}
		cex, ok, err := e.Verify(goal, &pats[i])
		if err != nil {
			t.Fatalf("re-verify error: %v", err)
		}
		if !ok {
			t.Fatalf("pattern %d fails verification, cex=%v: %s", i, cex, pats[i].String())
		}
	}
}

func TestSynthesizeAddIsSingleNode(t *testing.T) {
	e := testEngine(t, 2)
	res, err := e.Synthesize(x86.AddInstr())
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if res.MinLen != 1 {
		t.Fatalf("add should be a 1-op pattern, got ℓ=%d with %d patterns", res.MinLen, len(res.Patterns))
	}
	if len(res.Patterns) == 0 {
		t.Fatalf("no patterns for add")
	}
	checkPatternsValid(t, e, x86.AddInstr(), res.Patterns)
	// One of the minimal patterns must be the plain Add node.
	found := false
	for _, p := range res.Patterns {
		if len(p.Nodes) == 1 && p.Nodes[0].Op == "Add" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected Add(a0,a1) among patterns: %v", res.Patterns)
	}
}

func TestSynthesizeMovImmSizeZero(t *testing.T) {
	e := testEngine(t, 1)
	res, err := e.Synthesize(x86.MovImm())
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if res.MinLen != 0 || len(res.Patterns) == 0 {
		t.Fatalf("mov.imm should be the size-0 identity pattern, got ℓ=%d, %d patterns",
			res.MinLen, len(res.Patterns))
	}
	p := res.Patterns[0]
	if len(p.Nodes) != 0 || p.Results[0].Kind != pattern.RefArg || p.Results[0].Index != 0 {
		t.Fatalf("unexpected mov.imm pattern: %s", p.String())
	}
}

func TestSynthesizeIncFindsConstOne(t *testing.T) {
	e := testEngine(t, 2)
	res, err := e.Synthesize(x86.Inc())
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if res.MinLen != 2 {
		t.Fatalf("inc needs op+Const (ℓ=2), got ℓ=%d", res.MinLen)
	}
	checkPatternsValid(t, e, x86.Inc(), res.Patterns)
	// Expect Add(a0, Const 1) among the patterns.
	foundAdd := false
	for _, p := range res.Patterns {
		hasConst1 := false
		hasAdd := false
		for _, n := range p.Nodes {
			if n.Op == "Const" && len(n.Internals) == 1 && n.Internals[0] == 1 {
				hasConst1 = true
			}
			if n.Op == "Add" {
				hasAdd = true
			}
		}
		if hasConst1 && hasAdd {
			foundAdd = true
		}
	}
	if !foundAdd {
		t.Fatalf("expected Add(x, Const 1) among inc patterns: %v", res.Patterns)
	}
}

func TestSynthesizeAndnFourIntroPatterns(t *testing.T) {
	// The paper's introductory example: the minimal IR patterns of
	// andn include ~x & y, x ⊕ (x|y), y ⊕ (x&y), y − (x&y) — all of
	// size 2. The engine must find all four (E7 in DESIGN.md).
	e := testEngine(t, 2)
	res, err := e.Synthesize(x86.Andn())
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if res.MinLen != 2 {
		t.Fatalf("andn minimal patterns have 2 ops, got ℓ=%d", res.MinLen)
	}
	checkPatternsValid(t, e, x86.Andn(), res.Patterns)

	want := map[string]bool{
		"not-and": false, // And(Not(x), y)
		"xor-or":  false, // Xor(x, Or(x,y))
		"xor-and": false, // Xor(y, And(x,y))
		"sub-and": false, // Sub(y, And(x,y))
	}
	for _, p := range res.Patterns {
		ops := map[string]int{}
		for _, n := range p.Nodes {
			ops[n.Op]++
		}
		switch {
		case ops["Not"] == 1 && ops["And"] == 1:
			want["not-and"] = true
		case ops["Eor"] == 1 && ops["Or"] == 1:
			want["xor-or"] = true
		case ops["Eor"] == 1 && ops["And"] == 1:
			want["xor-and"] = true
		case ops["Sub"] == 1 && ops["And"] == 1:
			want["sub-and"] = true
		}
	}
	for k, ok := range want {
		if !ok {
			t.Errorf("missing andn pattern family %s (found %d patterns)", k, len(res.Patterns))
		}
	}
}

func TestSynthesizeMovLoad(t *testing.T) {
	e := testEngine(t, 2)
	goal := x86.MovLoad(x86.AM{Base: true})
	res, err := e.Synthesize(goal)
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if res.MinLen != 1 || len(res.Patterns) == 0 {
		t.Fatalf("mov.load should be the single Load pattern, got ℓ=%d (%d patterns)",
			res.MinLen, len(res.Patterns))
	}
	checkPatternsValid(t, e, goal, res.Patterns)
	if res.Patterns[0].Nodes[0].Op != "Load" {
		t.Fatalf("unexpected op: %s", res.Patterns[0].String())
	}
}

func TestSynthesizeMovStore(t *testing.T) {
	e := testEngine(t, 2)
	goal := x86.MovStore(x86.AM{Base: true})
	res, err := e.Synthesize(goal)
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if res.MinLen != 1 || len(res.Patterns) == 0 {
		t.Fatalf("mov.store: ℓ=%d (%d patterns)", res.MinLen, len(res.Patterns))
	}
	checkPatternsValid(t, e, goal, res.Patterns)
}

func TestSynthesizeAddMemOperand(t *testing.T) {
	// The paper's Example 2 and §7.2 experiment: add r, [p] uses the
	// IR operations {Load, Add}. Iterative CEGIS with the memory
	// requirement analysis must find it at ℓ=2 quickly.
	e := testEngine(t, 2)
	goal := x86.BinMemSrc(x86.AddInstr(), x86.AM{Base: true})
	res, err := e.Synthesize(goal)
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if res.MinLen != 2 || len(res.Patterns) == 0 {
		t.Fatalf("add r,[p]: ℓ=%d with %d patterns", res.MinLen, len(res.Patterns))
	}
	checkPatternsValid(t, e, goal, res.Patterns)
	p := res.Patterns[0]
	ops := map[string]int{}
	for _, n := range p.Nodes {
		ops[n.Op]++
	}
	if ops["Load"] != 1 || ops["Add"] != 1 {
		t.Fatalf("expected {Load, Add}: %s", p.String())
	}
}

func TestSynthesizeCmpJccUsesCmp(t *testing.T) {
	e := testEngine(t, 2)
	goal := x86.CmpJcc(x86.CCB) // unsigned below
	res, err := e.Synthesize(goal)
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if res.MinLen != 1 || len(res.Patterns) == 0 {
		t.Fatalf("cmp.jb: ℓ=%d (%d patterns)", res.MinLen, len(res.Patterns))
	}
	checkPatternsValid(t, e, goal, res.Patterns)
	// All minimal patterns are single Cmp nodes; both orientations
	// (Cmp[ult](a0,a1) and Cmp[ugt](a1,a0)) must be enumerated.
	seen := map[uint64]bool{}
	for _, p := range res.Patterns {
		if p.Nodes[0].Op != "Cmp" {
			t.Fatalf("non-Cmp pattern for cmp.jb: %s", p.String())
		}
		seen[p.Nodes[0].Internals[0]] = true
	}
	if !seen[uint64(ir.RelUlt)] || !seen[uint64(ir.RelUgt)] {
		t.Fatalf("expected both ult and ugt orientations: %v", res.Patterns)
	}
}

func TestSynthesizeAllSizesAggregates(t *testing.T) {
	e := testEngine(t, 2)
	res, err := e.SynthesizeAllSizes(x86.Andn())
	if err != nil {
		t.Fatalf("synthesize all sizes: %v", err)
	}
	if res.MinLen != 2 {
		t.Fatalf("minimal andn size 2, got %d", res.MinLen)
	}
	if len(res.Patterns) < 4 {
		t.Fatalf("expected at least the four intro patterns, got %d", len(res.Patterns))
	}
}

func TestDeadlineAborts(t *testing.T) {
	e := New(ir.Ops(), Config{Width: 8, MaxLen: 3, Seed: 1,
		Deadline: time.Now().Add(-time.Second)})
	_, err := e.Synthesize(x86.AddInstr())
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("expected an error wrapping ErrDeadline, got %v", err)
	}
	// The public boundary wraps the sentinel with the goal's name, so
	// callers that compare by identity (the old driver bug) would
	// misclassify a timeout as a fatal error.
	if err == ErrDeadline {
		t.Fatalf("deadline error should be wrapped with the goal name")
	}
	if !strings.Contains(err.Error(), x86.AddInstr().Name) {
		t.Fatalf("deadline error should name the goal: %v", err)
	}
}

// TestSeedTestsDivergePerGoal guards the per-goal RNG salt: deriving
// it from len(goal.Name) gave equal-length names (e.g. "add"/"and")
// identical seed-test streams; the salt now hashes the full name.
func TestSeedTestsDivergePerGoal(t *testing.T) {
	e := testEngine(t, 2)
	add, and := x86.AddInstr(), x86.AndInstr()
	if len(add.Name) != len(and.Name) || len(add.Args) != len(and.Args) {
		t.Fatalf("test needs equal-length names and arities: %q %q", add.Name, and.Name)
	}
	ta, tb := e.seedTests(add), e.seedTests(and)
	// The first two rows (all-zeros, all-ones) are shared by design;
	// the pseudorandom rows must differ between goals.
	same := true
	for i := 2; i < len(ta); i++ {
		for j := range ta[i] {
			if ta[i][j] != tb[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatalf("equal-length goal names must not share a seed-test stream")
	}
	// Determinism per goal is unaffected.
	ta2 := e.seedTests(add)
	for i := range ta {
		for j := range ta[i] {
			if ta[i][j] != ta2[i][j] {
				t.Fatalf("seed tests not deterministic")
			}
		}
	}
}

// TestSeedTestsCachedAndUnmodified: a goal's seed vectors are built
// once and shared by every multiset, so after a whole synthesis run
// they must still be the cached slice and equal a fresh build.
func TestSeedTestsCachedAndUnmodified(t *testing.T) {
	e := testEngine(t, 2)
	add := x86.AddInstr()
	first := e.seedTests(add)
	if _, err := e.SynthesizeAllSizes(add); err != nil {
		t.Fatal(err)
	}
	cached := e.seedTests(add)
	if &cached[0] != &first[0] {
		t.Fatalf("seed tests were rebuilt instead of cached")
	}
	fresh := newSeedTests(e.cfg, add)
	if !reflect.DeepEqual(cached, fresh) {
		t.Fatalf("cached seed tests %v differ from a fresh build %v: a caller modified them", cached, fresh)
	}
}

func TestMemoryNeedsAnalysis(t *testing.T) {
	e := testEngine(t, 2)
	ld, st := e.AnalyzeMemoryNeeds(x86.MovLoad(x86.AM{Base: true}))
	if !ld || st {
		t.Fatalf("mov.load: needLoad=%v needStore=%v, want true,false", ld, st)
	}
	ld, st = e.AnalyzeMemoryNeeds(x86.MovStore(x86.AM{Base: true}))
	if ld || !st {
		t.Fatalf("mov.store: needLoad=%v needStore=%v, want false,true", ld, st)
	}
	ld, st = e.AnalyzeMemoryNeeds(x86.BinMemDst(x86.AddInstr(), x86.AM{Base: true}))
	if !ld || !st {
		t.Fatalf("add [p], r must need both, got %v %v", ld, st)
	}
	ld, st = e.AnalyzeMemoryNeeds(x86.AddInstr())
	if ld || st {
		t.Fatalf("pure add needs no memory ops")
	}
}

func TestMulticombinations(t *testing.T) {
	m := newMulticombinations(3, 2)
	var got [][]int
	for m.next() {
		got = append(got, append([]int{}, m.current()...))
	}
	want := [][]int{{0, 0}, {0, 1}, {0, 2}, {1, 1}, {1, 2}, {2, 2}}
	if len(got) != len(want) {
		t.Fatalf("got %d combos, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("combo %d: got %v want %v", i, got[i], want[i])
			}
		}
	}
	// k=0 yields exactly one empty combination.
	m0 := newMulticombinations(5, 0)
	count := 0
	for m0.next() {
		count++
	}
	if count != 1 {
		t.Fatalf("k=0: %d combos", count)
	}
	// Count matches the multichoose formula.
	m4 := newMulticombinations(4, 3)
	count = 0
	for m4.next() {
		count++
	}
	if int64(count) != Multichoose(4, 3).Int64() {
		t.Fatalf("multichoose(4,3) = %v, iterated %d", Multichoose(4, 3), count)
	}
}

func TestSearchSpaceEstimates(t *testing.T) {
	// The paper's §5.4 numbers: |I| = 21, ℓmax = 7 gives ≈2^65 for
	// classical and ≈2^32 for iterative CEGIS.
	classical := Log2(ClassicalSearchSpace(21))
	iterative := Log2(IterativeSearchSpace(21, 7))
	if classical < 64 || classical > 66 {
		t.Fatalf("classical ≈ 2^%.1f, paper says ≈2^65", classical)
	}
	if iterative < 31 || iterative > 33 {
		t.Fatalf("iterative ≈ 2^%.1f, paper says ≈2^32", iterative)
	}
}

func TestSkipCriteria(t *testing.T) {
	e := testEngine(t, 2)
	add := x86.AddInstr()
	// Memory ops for a pure goal: skipped.
	if !e.skipMultiset(add, []*sem.Instr{ir.Load()}) {
		t.Fatalf("Load for pure add must be skipped")
	}
	// Mux needs a Bool source; none available.
	if !e.skipMultiset(add, []*sem.Instr{ir.Mux()}) {
		t.Fatalf("Mux without Bool source must be skipped")
	}
	// Mux with Cmp has a Bool source: not skipped.
	if e.skipMultiset(add, []*sem.Instr{ir.Mux(), ir.Cmp()}) {
		t.Fatalf("Mux+Cmp should not be skipped")
	}
	// Two Consts but only one value consumer (the result): skipped.
	if !e.skipMultiset(x86.MovImm(), []*sem.Instr{ir.Const(), ir.Const()}) {
		t.Fatalf("two Consts with one consumer must be skipped")
	}
	// Plain Add multiset: fine.
	if e.skipMultiset(add, []*sem.Instr{ir.Add()}) {
		t.Fatalf("Add must not be skipped")
	}
}
