package driver

import (
	"testing"
	"time"

	"selgen/internal/ir"
	"selgen/internal/isel"
	"selgen/internal/pattern"
	"selgen/internal/spec"
	"selgen/internal/target"
	"selgen/internal/x86"
)

// assertSelectorsAgree selects the whole synthetic workload with the
// indexed matcher and with the legacy linear scan over the same
// library, and demands byte-identical programs and equal coverage —
// the compiled-vs-linear equivalence the trie's soundness argument
// promises.
func assertSelectorsAgree(t *testing.T, name string, lib *pattern.Library) {
	t.Helper()
	goals := x86.Registry()
	compiled := isel.New(lib, goals, true)
	linear := isel.New(lib, goals, true)
	linear.Linear = true
	ops := ir.Ops()
	for _, prof := range spec.Profiles() {
		for _, g := range spec.Generate(prof, 8, ops, 7) {
			pc, cc, errC := compiled.Select(g)
			pl, cl, errL := linear.Select(g)
			if (errC == nil) != (errL == nil) {
				t.Fatalf("%s/%s: error mismatch: compiled %v, linear %v", name, g.Name, errC, errL)
			}
			if errC != nil {
				continue
			}
			if cc != cl {
				t.Fatalf("%s/%s: coverage mismatch: %+v vs %+v", name, g.Name, cc, cl)
			}
			if pc.String() != pl.String() {
				t.Fatalf("%s/%s: programs differ\n--- compiled ---\n%s\n--- linear ---\n%s",
					name, g.Name, pc.String(), pl.String())
			}
		}
	}
}

// TestDifferentialSynthesizedLibraries synthesizes real libraries (a
// quick setup and a trimmed slice of the full setup, so genuine
// multi-result, memory, and immediate patterns are represented) and
// checks compiled-vs-linear matcher equivalence on each.
func TestDifferentialSynthesizedLibraries(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes libraries")
	}
	if raceEnabled {
		// Synthesizing two libraries under the race detector does not
		// fit the targeted race pass's budget; matcher concurrency is
		// raced in internal/isel, and this test is about rule-library
		// shape, which the race detector does not change.
		t.Skip("synthesis under -race exceeds the race-pass budget")
	}
	quick, _, err := Run(QuickSetup(), Options{Width: 8, Seed: 1,
		MaxPatternsPerGoal: 16, PerGoalTimeout: scaledTimeout(90 * time.Second)})
	if err != nil {
		t.Fatalf("quick synthesis: %v", err)
	}
	assertSelectorsAgree(t, "quick", quick)

	// A trimmed full setup: the load/store and flags groups contribute
	// memory-result and cmp/jcc rules the quick setup lacks.
	trimmed := []Group{
		{Name: "Load/Store", Goals: x86.LoadStoreGroup([]x86.AM{{Base: true}}), MaxLen: 4, AllSizes: true},
		{Name: "Flags", Goals: x86.FlagsGroup(), MaxLen: 2, AllSizes: true},
	}
	full, _, err := Run(trimmed, Options{Width: 8, Seed: 1,
		MaxPatternsPerGoal: 8, PerGoalTimeout: scaledTimeout(90 * time.Second)})
	if err != nil {
		t.Fatalf("trimmed-full synthesis: %v", err)
	}
	// Layer the synthesized rules over the quick ones so specificity
	// ordering across groups is exercised too.
	for _, r := range quick.Rules {
		full.Add(r)
	}
	assertSelectorsAgree(t, "trimmed-full", full)
}

// TestIselBenchScalesSublinearly selects the Table 1 suite with the
// handwritten library padded to 100 and 1000 rules, once through the
// index and once by linear scan, and checks the shape of the effort
// curve in counts alone: rules tried per real IR node stay flat as the
// library grows 10×, while the linear scan's grow with it.
func TestIselBenchScalesSublinearly(t *testing.T) {
	graphs := table1Suite(7)
	realNodes := 0
	for _, g := range graphs {
		realNodes += g.NumRealNodes()
	}
	// triedPerNode returns the compiled rule count of the library padded
	// to n rules and the rules it tries per real IR node of the suite.
	triedPerNode := func(n int, linear bool) (int, float64) {
		sel := target.X86().NewSelector(isel.PadLibrary(isel.HandwrittenLibrary(8), 8, n), true)
		sel.Linear = linear
		for _, g := range graphs {
			if _, _, err := sel.Select(g); err != nil {
				t.Fatalf("pad:%d linear=%v: %s: %v", n, linear, g.Name, err)
			}
		}
		return sel.Compiled.NumRules(), float64(sel.Stats().RulesTried) / float64(realNodes)
	}
	rules100, idx100 := triedPerNode(100, false)
	_, lin100 := triedPerNode(100, true)
	rules1000, idx1000 := triedPerNode(1000, false)
	_, lin1000 := triedPerNode(1000, true)
	t.Logf("rules tried per real node, 100 -> 1000 rules: index %.2f -> %.2f, linear %.1f -> %.1f",
		idx100, idx1000, lin100, lin1000)
	if rules1000 <= rules100 {
		t.Fatalf("padding did not grow the compiled library: %d vs %d", rules100, rules1000)
	}
	// Sublinear: both points contain the whole handwritten library plus
	// never-retrieved padding, so a 10× library must leave the match
	// attempts per node essentially flat (the padding differs only in
	// trie keys the workload never produces).
	if idx1000 > 2*idx100+1 {
		t.Fatalf("indexed rules tried/node grew with library size: %.2f at 100 rules, %.2f at 1000",
			idx100, idx1000)
	}
	// The linear oracle must show the growth the index avoids.
	if lin1000 < 10*idx1000 {
		t.Fatalf("linear scan should try far more rules than the index at 1000 rules: %.2f vs %.2f",
			lin1000, idx1000)
	}
}
