package driver

import (
	"testing"
	"time"

	"selgen/internal/ir"
	"selgen/internal/isel"
	"selgen/internal/pattern"
	"selgen/internal/spec"
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

// TestIselBenchScalesSublinearly runs the selection-scaling benchmark
// once (single rep — this is a correctness gate on the shape of the
// curve, not a timing assertion) and checks that rules tried per node
// stays flat as padding grows the library 100×, while the linear
// scan's effort grows with it.
func TestIselBenchScalesSublinearly(t *testing.T) {
	b, err := RunIselBench(nil, 8, 7, nil, nil, 1)
	if err != nil {
		t.Fatalf("RunIselBench: %v", err)
	}
	// The per-node denominator is the suite's real IR node count, the
	// same for every library.
	realNodes := 0
	for _, g := range table1Suite(7) {
		realNodes += g.NumRealNodes()
	}
	if b.Nodes != int64(realNodes) {
		t.Fatalf("nodes: %d, want the suite's %d real IR nodes", b.Nodes, realNodes)
	}
	if len(b.Points) != len(selBenchSizes) {
		t.Fatalf("points: %d", len(b.Points))
	}
	byName := map[string]IselBenchPoint{}
	for _, p := range b.Points {
		byName[p.Name] = p
	}
	p100, p1000 := byName["hand+pad:100"], byName["hand+pad:1000"]
	if p1000.CompiledRules <= p100.CompiledRules {
		t.Fatalf("padding did not grow the compiled library: %d vs %d",
			p100.CompiledRules, p1000.CompiledRules)
	}
	// Sublinear: both points contain the whole handwritten library plus
	// never-retrieved padding, so a 10× library must leave the match
	// attempts per node essentially flat (the padding differs only in
	// trie keys the workload never produces).
	if p1000.RulesPerNode > 2*p100.RulesPerNode+1 {
		t.Fatalf("indexed rules tried/node grew with library size: %.2f at 100 rules, %.2f at 1000",
			p100.RulesPerNode, p1000.RulesPerNode)
	}
	// The linear oracle must show the growth the index avoids.
	if p1000.LinearRulesPerNode < 10*p1000.RulesPerNode {
		t.Fatalf("linear scan should try far more rules than the index at 1000 rules: %.2f vs %.2f",
			p1000.LinearRulesPerNode, p1000.RulesPerNode)
	}
	for _, p := range b.Points {
		if p.NsPerNode <= 0 || p.LinearNsPerNode <= 0 || p.VsHandwritten <= 0 {
			t.Fatalf("non-positive timing in %+v", p)
		}
	}
}
