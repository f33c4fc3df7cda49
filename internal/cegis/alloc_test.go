package cegis

import (
	"testing"

	"selgen/internal/ir"
	"selgen/internal/sem"
	"selgen/internal/x86"
)

// maxWarmEncodingAllocs bounds TestWarmEncodingAllocs: the figure the
// encoder measured when the bound was set (399; 680 before terms were
// interned allocate-on-miss and blasted into id-indexed tables), plus a
// small margin.
const maxWarmEncodingAllocs = 440

// TestWarmEncodingAllocs bounds the allocations of one warm multiset
// encoding — newEnc, the witness and the seed test cases, then the
// Reset that ends the multiset — in a goal's synthesis context that
// has encoded the multiset before. Its component semantics are then
// already interned and the SAT core, blaster and gate table keep their
// capacity, so what is left is the new encoding's own structure
// variables and the terms over them.
func TestWarmEncodingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	e := testEngine(t, 2)
	ops := e.Ops()
	goal := x86.Andn()
	comps := []*sem.Instr{ir.ByName(ops, "Not"), ir.ByName(ops, "And")}
	sc := e.synthCtxFor(goal)
	encode := func() {
		en, err := newEnc(e.cfg, goal, comps, sc)
		if err != nil {
			t.Fatal(err)
		}
		en.addWitness()
		for _, tc := range e.seedTests(goal) {
			en.addTestCase(tc)
		}
		sc.solver.Reset()
	}
	encode()
	allocs := testing.AllocsPerRun(20, encode)
	t.Logf("%.0f allocations per warm encoding", allocs)
	if allocs > maxWarmEncodingAllocs {
		t.Errorf("a warm encoding allocates %.0f times, bound %d", allocs, maxWarmEncodingAllocs)
	}
}
