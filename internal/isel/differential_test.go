package isel

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"selgen/internal/firm"
	"selgen/internal/ir"
	"selgen/internal/mach"
	"selgen/internal/pattern"
	"selgen/internal/sem"
	"selgen/internal/spec"
	"selgen/internal/x86"
)

// workloadGraphs generates the synthetic SPEC workload suite (a small
// slice of it in -short mode).
func workloadGraphs(t *testing.T) []*firm.Graph {
	t.Helper()
	profiles := spec.Profiles()
	if testing.Short() {
		profiles = profiles[:3]
	}
	var graphs []*firm.Graph
	for _, p := range profiles {
		graphs = append(graphs, spec.Generate(p, w, ir.Ops(), 7)...)
	}
	return graphs
}

// assertEquivalent selects every graph with both selectors and demands
// identical outcomes: same error status, same coverage, byte-identical
// programs.
func assertEquivalent(t *testing.T, compiled, linear *Selector, graphs []*firm.Graph) {
	t.Helper()
	for _, g := range graphs {
		pc, cc, errC := compiled.Select(g)
		pl, cl, errL := linear.Select(g)
		if (errC == nil) != (errL == nil) {
			t.Fatalf("%s: error mismatch: compiled %v, linear %v", g.Name, errC, errL)
		}
		if errC != nil {
			continue
		}
		if cc != cl {
			t.Fatalf("%s: coverage mismatch: compiled %+v, linear %+v", g.Name, cc, cl)
		}
		if pc.String() != pl.String() {
			t.Fatalf("%s: selected programs differ\n--- compiled ---\n%s\n--- linear ---\n%s",
				g.Name, pc.String(), pl.String())
		}
	}
}

// linearized returns a Linear-scan twin of a fresh selector over lib.
func linearized(lib *pattern.Library, fallback bool) (*Selector, *Selector) {
	compiled := New(lib, x86.Registry(), fallback)
	linear := New(lib, x86.Registry(), fallback)
	linear.Linear = true
	return compiled, linear
}

func TestDifferentialHandwritten(t *testing.T) {
	graphs := workloadGraphs(t)
	compiled, linear := linearized(HandwrittenLibrary(w), true)
	assertEquivalent(t, compiled, linear, graphs)
	sc, sl := compiled.Stats(), linear.Stats()
	if sc.Matches != sl.Matches || sc.Fallbacks != sl.Fallbacks {
		t.Fatalf("match/fallback counts diverge: compiled %+v, linear %+v", sc, sl)
	}
	if sc.RulesTried >= sl.RulesTried {
		t.Fatalf("trie lookup should try fewer rules than the linear scan: %d vs %d",
			sc.RulesTried, sl.RulesTried)
	}
	if sc.TrieVisits == 0 {
		t.Fatalf("compiled selector reported no trie visits")
	}
}

func TestDifferentialNoFallback(t *testing.T) {
	// Without fallback some graphs fail; error status must still agree.
	graphs := workloadGraphs(t)
	compiled, linear := linearized(HandwrittenLibrary(w), false)
	assertEquivalent(t, compiled, linear, graphs)
}

// fuzzOps are the value-typed ops random patterns are built from,
// keyed by arity.
var fuzzOps = map[int][]string{
	1: {"Not", "Minus"},
	2: {"Add", "Sub", "Mul", "And", "Or", "Eor", "Shl", "Shr", "Shrs"},
}

// fuzzLibrary generates a random-but-valid rule library: patterns have
// correct per-op arity and internals, arguments and results shaped
// like their goal instruction. Semantics are deliberately unchecked —
// the differential test compares selector outputs, it never executes.
func fuzzLibrary(seed int64, n int) *pattern.Library {
	rng := rand.New(rand.NewSource(seed))
	goals := []struct {
		name  string
		nargs int
		imm   int // index of an imm arg, -1 if none
	}{
		{"add", 2, -1}, {"sub", 2, -1}, {"and", 2, -1}, {"or", 2, -1},
		{"xor", 2, -1}, {"imul", 2, -1}, {"not", 1, -1}, {"neg", 1, -1},
		{"add.imm", 2, 1}, {"and.imm", 2, 1}, {"or.imm", 2, 1},
		{"andn", 2, -1}, {"blsr", 1, -1},
	}
	lib := &pattern.Library{Width: w}
	for len(lib.Rules) < n {
		gl := goals[rng.Intn(len(goals))]
		kinds := make([]sem.Kind, gl.nargs)
		for i := range kinds {
			kinds[i] = sem.KindValue
		}
		if gl.imm >= 0 {
			kinds[gl.imm] = sem.KindImm
		}
		p := pattern.Pattern{ArgKinds: kinds}
		// Value sources usable as node arguments. Imm args may feed
		// nodes too (the matcher then requires a Const producer).
		var srcs []pattern.ValueRef
		for i := range kinds {
			srcs = append(srcs, pattern.ValueRef{Kind: pattern.RefArg, Index: i})
		}
		nNodes := 1 + rng.Intn(4)
		for ni := 0; ni < nNodes; ni++ {
			var node pattern.Node
			if rng.Intn(6) == 0 {
				node = pattern.Node{Op: "Const", Internals: []uint64{uint64(rng.Intn(1 << w))}}
			} else {
				arity := 1 + rng.Intn(2)
				ops := fuzzOps[arity]
				node = pattern.Node{Op: ops[rng.Intn(len(ops))]}
				for a := 0; a < arity; a++ {
					node.Args = append(node.Args, srcs[rng.Intn(len(srcs))])
				}
			}
			p.Nodes = append(p.Nodes, node)
			srcs = append(srcs, pattern.ValueRef{Kind: pattern.RefNode, Index: ni})
		}
		// Root at the last non-Const node so most rules are indexable;
		// Const-rooted rules are valid too, keep a few.
		root := len(p.Nodes) - 1
		p.Results = []pattern.ValueRef{{Kind: pattern.RefNode, Index: root}}
		if err := p.Validate(ir.Ops()); err != nil {
			continue // e.g. all-Const pattern with an unused arg; skip
		}
		lib.Add(pattern.Rule{Goal: gl.name, GoalCost: 1 + rng.Intn(3), Pattern: p})
	}
	return lib
}

func TestDifferentialFuzzLibraries(t *testing.T) {
	graphs := workloadGraphs(t)
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		lib := fuzzLibrary(seed, 120)
		compiled, linear := linearized(lib, true)
		assertEquivalent(t, compiled, linear, graphs)
	}
}

func TestDifferentialFuzzMixedWithHandwritten(t *testing.T) {
	// Fuzz rules layered over the handwritten library: specificity
	// ordering between real and random rules must agree across both
	// matchers.
	graphs := workloadGraphs(t)
	lib := HandwrittenLibrary(w)
	for _, r := range fuzzLibrary(99, 80).Rules {
		lib.Add(r)
	}
	compiled, linear := linearized(lib, true)
	assertEquivalent(t, compiled, linear, graphs)
}

// TestConcurrentSelect drives one Selector from several goroutines
// (run under -race in CI) and checks every goroutine sees the same
// programs as a fresh sequential selector.
func TestConcurrentSelect(t *testing.T) {
	graphs := workloadGraphs(t)
	shared := New(HandwrittenLibrary(w), x86.Registry(), true)
	want := make([]string, len(graphs))
	ref := New(HandwrittenLibrary(w), x86.Registry(), true)
	for i, g := range graphs {
		p, _, err := ref.Select(g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		want[i] = p.String()
	}

	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for i, g := range graphs {
				p, _, err := shared.Select(g)
				if err != nil {
					errs[wi] = err
					return
				}
				if p.String() != want[i] {
					t.Errorf("worker %d: %s: program differs from sequential run", wi, g.Name)
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	for wi, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", wi, err)
		}
	}
	st := shared.Stats()
	if st.Nodes == 0 || st.Matches == 0 {
		t.Fatalf("shared selector recorded no work: %+v", st)
	}
}

// TestReturnedProgramsStayIndependent keeps the first selected program
// that has an immediate, with its rendering, then selects the rest of
// the workload and the same graph again with the same Selector. The
// kept program must render as before: no program may share its
// operand, result or immediate arrays with the Selector's pooled state
// or with a later program. A warm-up pass first grows any per-call
// buffer to its largest, so a program that aliased one would be
// overwritten by the very next selection.
func TestReturnedProgramsStayIndependent(t *testing.T) {
	graphs := workloadGraphs(t)
	sel := New(HandwrittenLibrary(w), x86.Registry(), true)
	selectOne := func(g *firm.Graph) *mach.Program {
		t.Helper()
		p, _, err := sel.Select(g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		return p
	}
	for _, g := range graphs {
		selectOne(g)
	}
	kept := -1
	var prog *mach.Program
	for i, g := range graphs {
		if p := selectOne(g); slices.ContainsFunc(p.Instrs, func(in mach.Instr) bool { return in.Imms.Len > 0 }) {
			kept, prog = i, p
			break
		}
	}
	if prog == nil {
		t.Fatal("no selected program has an immediate")
	}
	want := prog.String()
	check := func(after string) {
		t.Helper()
		if got := prog.String(); got != want {
			t.Fatalf("%s: the kept program changed after %s:\n%s\nwas:\n%s", graphs[kept].Name, after, got, want)
		}
	}
	for _, g := range graphs[kept+1:] {
		selectOne(g)
	}
	// Checked before the graph is selected again: an aliased array
	// would get the kept program's own values back from that selection.
	check("selecting the rest of the workload")
	if again := selectOne(graphs[kept]).String(); again != want {
		t.Fatalf("%s: selecting the graph again gave\n%s\nfirst selection:\n%s", graphs[kept].Name, again, want)
	}
	check("selecting the graph again")
}

// TestSelectedProgramHoldsNoPointers: the records a warm Select writes
// per node and per instruction — the program's instructions, values,
// spans and immediates, and the matcher's match and binding records —
// hold no pointers, so writing them takes no GC write barrier and the
// collector never scans their arrays.
func TestSelectedProgramHoldsNoPointers(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeFor[mach.Instr](), reflect.TypeFor[mach.Imm](),
		reflect.TypeFor[mach.Value](), reflect.TypeFor[mach.Span](),
		reflect.TypeFor[match](), reflect.TypeFor[binding](),
	} {
		if path := pointerPath(typ); path != "" {
			t.Errorf("%s holds a pointer: %s", typ, path)
		}
	}
}

// pointerPath names the first part of typ whose kind holds a pointer,
// or returns "" when there is none.
func pointerPath(typ reflect.Type) string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.String, reflect.Interface, reflect.Func, reflect.Chan:
		return typ.String()
	case reflect.Array:
		if p := pointerPath(typ.Elem()); p != "" {
			return "element " + p
		}
	case reflect.Struct:
		for i := range typ.NumField() {
			f := typ.Field(i)
			if p := pointerPath(f.Type); p != "" {
				return "field " + f.Name + " " + p
			}
		}
	}
	return ""
}

// TestNewLeavesCallerLibraryUntouched pins the satellite fix: New must
// not expand or re-sort the caller's library.
func TestNewLeavesCallerLibraryUntouched(t *testing.T) {
	lib := HandwrittenLibrary(w)
	nRules := len(lib.Rules)
	goals := make([]string, nRules)
	for i, r := range lib.Rules {
		goals[i] = r.Goal
	}
	s := New(lib, x86.Registry(), true)
	g := newG("f")
	x := g.Param(sem.KindValue)
	y := g.Param(sem.KindValue)
	g.Return(firm.Ref{Node: g.New("Add", x, y)})
	if _, _, err := s.Select(g); err != nil {
		t.Fatalf("select: %v", err)
	}
	if len(lib.Rules) != nRules {
		t.Fatalf("Select expanded the caller's library: %d → %d rules", nRules, len(lib.Rules))
	}
	for i, r := range lib.Rules {
		if r.Goal != goals[i] {
			t.Fatalf("Select re-sorted the caller's library (rule %d: %s → %s)", i, goals[i], r.Goal)
		}
	}
}
