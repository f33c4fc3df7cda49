package cegis

import (
	"testing"

	"selgen/internal/bv"
	"selgen/internal/ir"
	"selgen/internal/sem"
	"selgen/internal/x86"
)

// TestNaiveMemoryEncodingAgrees checks the ablation encoding is still
// sound: synthesizing mov.load under the naive reduced-address-space
// model yields the Load pattern too.
func TestNaiveMemoryEncodingAgrees(t *testing.T) {
	goal := x86.MovLoad(x86.AM{Base: true})
	e := New(ir.Ops(), Config{Width: 8, MaxLen: 2, Seed: 1, NaiveMemSlots: 4})
	res, err := e.Synthesize(goal)
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if res.MinLen != 1 || len(res.Patterns) == 0 {
		t.Fatalf("naive encoding: ℓ=%d with %d patterns", res.MinLen, len(res.Patterns))
	}
	if res.Patterns[0].Nodes[0].Op != "Load" {
		t.Fatalf("unexpected pattern: %s", res.Patterns[0].String())
	}
}

// TestNonNormalizedModeFindsDoubling verifies the AllowNonNormalized
// switch: 2x as Add(x,x) is only expressible without the normal-form
// constraint.
func TestNonNormalizedModeFindsDoubling(t *testing.T) {
	goal := doubleGoal()
	// Normalized: Add(x,x) is banned; minimal pattern becomes
	// Shl(x, Const 1) at ℓ=2.
	e := New(ir.Ops(), Config{Width: 8, MaxLen: 2, Seed: 1})
	res, err := e.Synthesize(goal)
	if err != nil {
		t.Fatalf("normalized: %v", err)
	}
	if res.MinLen != 2 {
		t.Fatalf("normalized doubling should need ℓ=2 (Shl+Const), got ℓ=%d: %v", res.MinLen, res.Patterns)
	}
	// Non-normalized: Add(x,x) at ℓ=1.
	e2 := New(ir.Ops(), Config{Width: 8, MaxLen: 2, Seed: 1, AllowNonNormalized: true})
	res2, err := e2.Synthesize(goal)
	if err != nil {
		t.Fatalf("non-normalized: %v", err)
	}
	if res2.MinLen != 1 {
		t.Fatalf("non-normalized doubling should find Add(x,x) at ℓ=1, got ℓ=%d", res2.MinLen)
	}
	if res2.Patterns[0].Nodes[0].Op != "Add" {
		t.Fatalf("expected Add(x,x): %s", res2.Patterns[0].String())
	}
}

// TestCommutativeOrientation checks that ϕwf admits one orientation of
// each commutative component: every candidate sent to verification
// becomes a pattern, a counterexample or a timeout, none being the
// mirror image of an earlier pattern that Canon would merge. neg over
// {Add, Sub, Const} has a family of such pairs, k - (x + k) and
// k - (k + x); the normal form alone does not separate them.
func TestCommutativeOrientation(t *testing.T) {
	ops := ir.Ops()
	comps := []*sem.Instr{ir.ByName(ops, "Add"), ir.ByName(ops, "Sub"), ir.ByName(ops, "Const")}
	for _, nonNormalized := range []bool{false, true} {
		e := New(ops, Config{Width: 8, Seed: 1, MaxPatternsPerGoal: 64,
			AllowNonNormalized: nonNormalized})
		pats, err := e.CEGISAllPatterns(comps, x86.Neg())
		if err != nil {
			t.Fatalf("non-normalized=%v: %v", nonNormalized, err)
		}
		if len(pats) == 0 {
			t.Fatalf("non-normalized=%v: no patterns", nonNormalized)
		}
		st := e.Stats
		if st.VerifyQueries != st.Patterns+st.Counterexamples+st.QueryTimeouts {
			t.Fatalf("non-normalized=%v: %d verify queries for %d patterns, %d counterexamples, %d timeouts: mirror images reached verification",
				nonNormalized, st.VerifyQueries, st.Patterns, st.Counterexamples, st.QueryTimeouts)
		}
	}
}

// doubleGoal is a one-argument machine instruction computing 2x.
func doubleGoal() *sem.Instr {
	return &sem.Instr{
		Name:    "test.double",
		Args:    []sem.Kind{sem.KindValue},
		Results: []sem.Kind{sem.KindValue},
		Sem: func(ctx *sem.Ctx, va, vi []*bv.Term) sem.Effect {
			return sem.Effect{Results: []*bv.Term{ctx.B.BvAdd(va[0], va[0])}}
		},
	}
}

// TestIncrementalEquivalence checks that the incremental pipeline
// (persistent per-goal solver contexts, lazy seed promotion,
// counterexample carry-forward, concrete prefiltering) synthesizes
// exactly the same library as the from-scratch pipeline: identical
// minimal size and identical canonicalized pattern sets on the
// quickstart goal set at width 8.
func TestIncrementalEquivalence(t *testing.T) {
	goals := []*sem.Instr{
		x86.Inc(),
		x86.Andn(),
		x86.AddInstr(),
		x86.BinMemSrc(x86.AddInstr(), x86.AM{Base: true}),
		x86.CmpJcc(x86.CCB),
	}
	for _, goal := range goals {
		canonSet := func(disable bool) (int, map[string]bool) {
			e := New(ir.Ops(), Config{
				Width: 8, MaxLen: 2, Seed: 1,
				QueryConflicts:     200_000,
				DisableIncremental: disable,
			})
			res, err := e.Synthesize(goal)
			if err != nil {
				t.Fatalf("%s (disable=%v): %v", goal.Name, disable, err)
			}
			set := make(map[string]bool, len(res.Patterns))
			for _, p := range res.Patterns {
				set[p.Canon()] = true
			}
			if len(set) != len(res.Patterns) {
				t.Fatalf("%s (disable=%v): duplicate patterns emitted", goal.Name, disable)
			}
			return res.MinLen, set
		}
		incLen, inc := canonSet(false)
		freshLen, fresh := canonSet(true)
		if incLen != freshLen {
			t.Errorf("%s: MinLen %d (incremental) != %d (fresh)", goal.Name, incLen, freshLen)
		}
		for c := range inc {
			if !fresh[c] {
				t.Errorf("%s: incremental-only pattern %q", goal.Name, c)
			}
		}
		for c := range fresh {
			if !inc[c] {
				t.Errorf("%s: fresh-only pattern %q", goal.Name, c)
			}
		}
	}
}
