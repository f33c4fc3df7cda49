package pattern

import (
	"testing"

	"selgen/internal/ir"
	"selgen/internal/sem"
)

func TestExpandCommutative(t *testing.T) {
	lib := &Library{Width: 8}
	lib.Add(Rule{Goal: "andn", GoalCost: 1, Pattern: andnPattern()})
	ex := lib.ExpandCommutative()
	// andn pattern has one commutative node (And): 2 orientations.
	if len(ex.Rules) != 2 {
		t.Fatalf("expected 2 orientations, got %d", len(ex.Rules))
	}
	// Both orientations share the commutative canon.
	if ex.Rules[0].Pattern.Canon() != ex.Rules[1].Pattern.Canon() {
		t.Fatalf("orientations must share a canon")
	}
	// But differ syntactically.
	a0 := ex.Rules[0].Pattern.Nodes[1].Args[0]
	b0 := ex.Rules[1].Pattern.Nodes[1].Args[0]
	if a0 == b0 {
		t.Fatalf("orientations must differ syntactically")
	}
	// Expansion is idempotent under dedup: expanding again adds nothing.
	ex2 := ex.ExpandCommutative()
	if len(ex2.Rules) != len(ex.Rules) {
		t.Fatalf("re-expansion changed rule count: %d vs %d", len(ex2.Rules), len(ex.Rules))
	}
	// All variants remain semantically equal (evaluate both).
	for _, r := range ex.Rules {
		got := r.Pattern.Eval(ir.Ops(), 8, nil, []uint64{0b1100, 0b1010})
		if got[0] != 0b0010 {
			t.Fatalf("variant changed semantics: %v", got)
		}
	}
}

func TestExpandNonCommutativeUntouched(t *testing.T) {
	sub := Pattern{
		ArgKinds: []sem.Kind{sem.KindValue, sem.KindValue},
		Nodes: []Node{{Op: "Sub", Args: []ValueRef{
			{Kind: RefArg, Index: 0}, {Kind: RefArg, Index: 1},
		}}},
		Results: []ValueRef{{Kind: RefNode, Index: 0}},
	}
	lib := &Library{Width: 8}
	lib.Add(Rule{Goal: "sub", GoalCost: 1, Pattern: sub})
	ex := lib.ExpandCommutative()
	if len(ex.Rules) != 1 {
		t.Fatalf("Sub must not expand: %d rules", len(ex.Rules))
	}
}

func TestSortPrefersImmediateBinders(t *testing.T) {
	reg := Pattern{
		ArgKinds: []sem.Kind{sem.KindValue, sem.KindValue},
		Nodes: []Node{{Op: "Add", Args: []ValueRef{
			{Kind: RefArg, Index: 0}, {Kind: RefArg, Index: 1},
		}}},
		Results: []ValueRef{{Kind: RefNode, Index: 0}},
	}
	imm := Pattern{
		ArgKinds: []sem.Kind{sem.KindValue, sem.KindImm},
		Nodes:    reg.Nodes,
		Results:  reg.Results,
	}
	lib := &Library{Width: 8}
	lib.Add(Rule{Goal: "add", GoalCost: 1, Pattern: reg})
	lib.Add(Rule{Goal: "add.imm", GoalCost: 1, Pattern: imm})
	lib.SortBySpecificity()
	if lib.Rules[0].Goal != "add.imm" {
		t.Fatalf("immediate-binding rule must sort first")
	}
}

func TestEvalWithRefArgResults(t *testing.T) {
	// Identity pattern (mov.imm): result is the argument itself.
	p := Pattern{
		ArgKinds: []sem.Kind{sem.KindImm},
		Results:  []ValueRef{{Kind: RefArg, Index: 0}},
	}
	got := p.Eval(ir.Ops(), 8, nil, []uint64{0x42})
	if got[0] != 0x42 {
		t.Fatalf("identity pattern: %#x", got[0])
	}
}
