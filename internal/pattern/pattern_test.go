package pattern

import (
	"bytes"
	"testing"

	"selgen/internal/bv"
	"selgen/internal/ir"
	"selgen/internal/memmodel"
	"selgen/internal/sem"
)

const w = 8

// andnPattern builds And(Not(a0), a1).
func andnPattern() Pattern {
	return Pattern{
		ArgKinds: []sem.Kind{sem.KindValue, sem.KindValue},
		Nodes: []Node{
			{Op: "Not", Args: []ValueRef{{Kind: RefArg, Index: 0}}},
			{Op: "And", Args: []ValueRef{
				{Kind: RefNode, Index: 0},
				{Kind: RefArg, Index: 1},
			}},
		},
		Results: []ValueRef{{Kind: RefNode, Index: 1}},
	}
}

func TestValidate(t *testing.T) {
	ops := ir.Ops()
	p := andnPattern()
	if err := p.Validate(ops); err != nil {
		t.Fatalf("valid pattern rejected: %v", err)
	}
	// Unknown op.
	bad := andnPattern()
	bad.Nodes[0].Op = "Bogus"
	if bad.Validate(ops) == nil {
		t.Fatalf("unknown op accepted")
	}
	// Forward reference violates topological order.
	bad = andnPattern()
	bad.Nodes[0].Args[0] = ValueRef{Kind: RefNode, Index: 1}
	if bad.Validate(ops) == nil {
		t.Fatalf("forward reference accepted")
	}
	// Arity mismatch.
	bad = andnPattern()
	bad.Nodes[1].Args = bad.Nodes[1].Args[:1]
	if bad.Validate(ops) == nil {
		t.Fatalf("arity mismatch accepted")
	}
	// Out-of-range argument index.
	bad = andnPattern()
	bad.Nodes[1].Args[1] = ValueRef{Kind: RefArg, Index: 5}
	if bad.Validate(ops) == nil {
		t.Fatalf("bad arg index accepted")
	}
}

func TestSemanticsAndEval(t *testing.T) {
	p := andnPattern()
	got := p.Eval(ir.Ops(), w, nil, []uint64{0b1100, 0b1010})
	if len(got) != 1 || got[0] != 0b0010 {
		t.Fatalf("andn pattern eval: %v", got)
	}
}

func TestSemanticsWithPrecondition(t *testing.T) {
	// Shl(a0, Const 9) at width 8: precondition must be false.
	p := Pattern{
		ArgKinds: []sem.Kind{sem.KindValue},
		Nodes: []Node{
			{Op: "Const", Internals: []uint64{9}},
			{Op: "Shl", Args: []ValueRef{
				{Kind: RefArg, Index: 0},
				{Kind: RefNode, Index: 0},
			}},
		},
		Results: []ValueRef{{Kind: RefNode, Index: 1}},
	}
	b := bv.NewBuilder()
	ctx := &sem.Ctx{B: b, Width: w}
	_, pre, _ := p.Semantics(ctx, ir.Ops(), []*bv.Term{b.Const(1, w)})
	if bv.Eval(pre, nil) != 0 {
		t.Fatalf("shift-by-9 precondition should be false")
	}
}

func TestMemoryPatternEval(t *testing.T) {
	// Load(m, p) pattern evaluated with a concrete memory model.
	p := Pattern{
		ArgKinds: []sem.Kind{sem.KindMem, sem.KindValue},
		Nodes: []Node{
			{Op: "Load", Args: []ValueRef{
				{Kind: RefArg, Index: 0},
				{Kind: RefArg, Index: 1},
			}},
		},
		Results: []ValueRef{
			{Kind: RefNode, Index: 0, Result: 0},
			{Kind: RefNode, Index: 0, Result: 1},
		},
	}
	b := bv.NewBuilder()
	ptr := b.Const(0x10, w)
	model := memmodel.New(b, w, []*bv.Term{ptr})
	// Memory cell holds 0x5a (low 8 bits of the M-value).
	got := p.Eval(ir.Ops(), w, model, []uint64{0x5a, 0x10})
	if got[1] != 0x5a {
		t.Fatalf("loaded value: %#x", got[1])
	}
	if got[0] == 0x5a {
		t.Fatalf("M result must differ (access flag set), got %#x", got[0])
	}
}

func TestCanonCommutative(t *testing.T) {
	a := Pattern{
		ArgKinds: []sem.Kind{sem.KindValue, sem.KindValue},
		Nodes: []Node{{Op: "Add", Args: []ValueRef{
			{Kind: RefArg, Index: 0}, {Kind: RefArg, Index: 1},
		}}},
		Results: []ValueRef{{Kind: RefNode, Index: 0}},
	}
	bp := Pattern{
		ArgKinds: []sem.Kind{sem.KindValue, sem.KindValue},
		Nodes: []Node{{Op: "Add", Args: []ValueRef{
			{Kind: RefArg, Index: 1}, {Kind: RefArg, Index: 0},
		}}},
		Results: []ValueRef{{Kind: RefNode, Index: 0}},
	}
	if a.Canon() != bp.Canon() {
		t.Fatalf("commutative mirror images must share a canon:\n%s\n%s", a.Canon(), bp.Canon())
	}
	// Sub must not canonicalize.
	s1 := Pattern{
		ArgKinds: []sem.Kind{sem.KindValue, sem.KindValue},
		Nodes: []Node{{Op: "Sub", Args: []ValueRef{
			{Kind: RefArg, Index: 0}, {Kind: RefArg, Index: 1},
		}}},
		Results: []ValueRef{{Kind: RefNode, Index: 0}},
	}
	s2 := Pattern{
		ArgKinds: []sem.Kind{sem.KindValue, sem.KindValue},
		Nodes: []Node{{Op: "Sub", Args: []ValueRef{
			{Kind: RefArg, Index: 1}, {Kind: RefArg, Index: 0},
		}}},
		Results: []ValueRef{{Kind: RefNode, Index: 0}},
	}
	if s1.Canon() == s2.Canon() {
		t.Fatalf("Sub argument order must matter")
	}
	// Internals distinguish patterns.
	c1 := Pattern{Nodes: []Node{{Op: "Const", Internals: []uint64{1}}}, Results: []ValueRef{{Kind: RefNode}}}
	c2 := Pattern{Nodes: []Node{{Op: "Const", Internals: []uint64{2}}}, Results: []ValueRef{{Kind: RefNode}}}
	if c1.Canon() == c2.Canon() {
		t.Fatalf("internal values must distinguish patterns")
	}
}

func TestLibraryDedupSort(t *testing.T) {
	lib := &Library{Width: w}
	small := Rule{Goal: "andn", GoalCost: 1, Pattern: Pattern{
		ArgKinds: []sem.Kind{sem.KindValue, sem.KindValue},
		Nodes:    []Node{{Op: "Not", Args: []ValueRef{{Kind: RefArg, Index: 0}}}},
		Results:  []ValueRef{{Kind: RefNode, Index: 0}},
	}}
	big := Rule{Goal: "andn", GoalCost: 1, Pattern: andnPattern()}
	lib.Add(small)
	lib.Add(big)
	lib.Add(big) // duplicate
	lib.Add(big) // duplicate
	if dropped := lib.Dedup(); dropped != 2 {
		t.Fatalf("dedup dropped %d, want 2", dropped)
	}
	lib.SortBySpecificity()
	if lib.Rules[0].Pattern.Size() != 2 {
		t.Fatalf("most specific rule must sort first")
	}
	if got := len(lib.ByGoal("andn")); got != 2 {
		t.Fatalf("ByGoal: %d", got)
	}
	if gs := lib.Goals(); len(gs) != 1 || gs[0] != "andn" {
		t.Fatalf("Goals: %v", gs)
	}
	if lib.MaxPatternSize() != 2 {
		t.Fatalf("MaxPatternSize: %d", lib.MaxPatternSize())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	lib := &Library{Width: w}
	lib.Add(Rule{Goal: "andn", GoalCost: 2, Pattern: andnPattern()})
	var buf bytes.Buffer
	if err := lib.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Width != w || len(got.Rules) != 1 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	want := andnPattern()
	if got.Rules[0].Pattern.Canon() != want.Canon() {
		t.Fatalf("pattern mutated in round trip")
	}
	if got.Rules[0].GoalCost != 2 {
		t.Fatalf("goal cost lost")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not json")); err == nil {
		t.Fatalf("garbage accepted")
	}
}

func TestValueRefString(t *testing.T) {
	if (ValueRef{Kind: RefArg, Index: 2}).String() != "a2" {
		t.Fatalf("arg ref rendering")
	}
	if (ValueRef{Kind: RefNode, Index: 1}).String() != "n1" {
		t.Fatalf("node ref rendering")
	}
	if (ValueRef{Kind: RefNode, Index: 1, Result: 1}).String() != "n1.1" {
		t.Fatalf("multi-result ref rendering")
	}
}
