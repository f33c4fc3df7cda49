package pattern

import (
	"reflect"
	"testing"

	"selgen/internal/sem"
	"selgen/internal/x86"
)

// ruleAdd builds a plain Add(a0, a1) rule for goal "add".
func ruleAdd() Rule {
	return Rule{Goal: "add", GoalCost: 1, Pattern: Pattern{
		ArgKinds: []sem.Kind{sem.KindValue, sem.KindValue},
		Nodes: []Node{{Op: "Add", Args: []ValueRef{
			{Kind: RefArg, Index: 0}, {Kind: RefArg, Index: 1},
		}}},
		Results: []ValueRef{{Kind: RefNode, Index: 0}},
	}}
}

// ruleAddImm builds Add(a0, a1:imm) for goal "add.imm".
func ruleAddImm() Rule {
	r := ruleAdd()
	r.Goal = "add.imm"
	r.Pattern.ArgKinds[1] = sem.KindImm
	return r
}

// ruleAndn builds And(Not(a0), a1) for goal "andn".
func ruleAndn() Rule {
	return Rule{Goal: "andn", GoalCost: 1, Pattern: andnPattern()}
}

// ruleBlsrConst builds And(Sub(a0, Const(1)), a0) for goal "blsr" —
// the root has a concrete Const feeder and a shared-argument feeder.
func ruleBlsrConst() Rule {
	return Rule{Goal: "blsr", GoalCost: 1, Pattern: Pattern{
		ArgKinds: []sem.Kind{sem.KindValue},
		Nodes: []Node{
			{Op: "Const", Internals: []uint64{1}},
			{Op: "Sub", Args: []ValueRef{
				{Kind: RefArg, Index: 0}, {Kind: RefNode, Index: 0},
			}},
			{Op: "And", Args: []ValueRef{
				{Kind: RefNode, Index: 1}, {Kind: RefArg, Index: 0},
			}},
		},
		Results: []ValueRef{{Kind: RefNode, Index: 2}},
	}}
}

func compileLib(t *testing.T, rules ...Rule) *CompiledLibrary {
	t.Helper()
	lib := &Library{Width: w}
	for _, r := range rules {
		lib.Add(r)
	}
	return Compile(lib, x86.Registry())
}

// FeederShape describes what produces one argument of a graph node:
// the producing node's op, the consumed result index, and the
// producing node's internal values.
type FeederShape struct {
	Op        string
	Result    int
	Internals []uint64
}

// NodeShape is a graph node's neighborhood by op names.
type NodeShape struct {
	Op        string
	Internals []uint64
	Args      []FeederShape
}

// lookup runs Lookup on the tokens of a named shape.
func lookup(c *CompiledLibrary, ns NodeShape, buf []int) ([]int, int) {
	var feeders []Token
	for _, f := range ns.Args {
		feeders = append(feeders, c.NodeToken(c.OpID(f.Op), f.Internals).WithResult(f.Result))
	}
	return c.Lookup(c.NodeToken(c.OpID(ns.Op), ns.Internals), feeders, buf)
}

// linearCandidates returns, in try order, the compiled-rule indexes a
// shape-blind scan would offer — i.e. every indexed rule. It is the
// reference Lookup must be a shape-filtered subsequence of.
func linearCandidates(c *CompiledLibrary) []int {
	var out []int
	for i := 0; i < c.NumRules(); i++ {
		if c.At(i).Root >= 0 {
			out = append(out, i)
		}
	}
	return out
}

// selfShape builds the NodeShape of a compiled rule's own root: exact
// feeders for sub-node args, a Const feeder for immediate args, and an
// arbitrary non-Const feeder for plain wildcard args. Lookup on this
// shape must always retrieve the rule.
func selfShape(c *CompiledLibrary, ri int) NodeShape {
	cr := c.At(ri)
	p := &cr.Rule.Pattern
	rn := &p.Nodes[cr.Root]
	ns := NodeShape{Op: rn.Op, Internals: rn.Internals}
	for _, a := range rn.Args {
		switch {
		case a.Kind == RefArg && p.ArgKinds[a.Index] == sem.KindImm:
			ns.Args = append(ns.Args, FeederShape{Op: "Const", Internals: []uint64{7}})
		case a.Kind == RefArg:
			ns.Args = append(ns.Args, FeederShape{Op: "Shl"})
		default:
			sn := &p.Nodes[a.Index]
			ns.Args = append(ns.Args, FeederShape{Op: sn.Op, Result: a.Result, Internals: sn.Internals})
		}
	}
	return ns
}

func TestCompileDoesNotMutateInput(t *testing.T) {
	lib := &Library{Width: w}
	lib.Add(ruleAndn())
	lib.Add(ruleAdd())
	before := len(lib.Rules)
	goal0 := lib.Rules[0].Goal
	Compile(lib, x86.Registry())
	if len(lib.Rules) != before || lib.Rules[0].Goal != goal0 {
		t.Fatalf("Compile mutated the input library")
	}
}

func TestCompileSelfLookupComplete(t *testing.T) {
	c := compileLib(t, ruleAdd(), ruleAddImm(), ruleAndn(), ruleBlsrConst())
	if c.IndexedRules() == 0 {
		t.Fatalf("no rules indexed")
	}
	for i := 0; i < c.NumRules(); i++ {
		if c.At(i).Root < 0 {
			continue
		}
		got, _ := lookup(c, selfShape(c, i), nil)
		found := false
		for _, ri := range got {
			if ri == i {
				found = true
			}
		}
		if !found {
			t.Fatalf("rule %d (%s) not retrieved by its own shape; got %v",
				i, c.At(i).Rule.Goal, got)
		}
	}
}

func TestLookupPreservesSpecificityOrder(t *testing.T) {
	c := compileLib(t, ruleAdd(), ruleAddImm(), ruleAndn(), ruleBlsrConst())
	// An Add whose second operand is a Const: add, add.imm, and the
	// commuted blsr orientation (if rooted at And it won't appear here)
	// are all candidates; they must come back in ascending rank.
	ns := NodeShape{Op: "Add", Args: []FeederShape{
		{Op: "Shl"}, {Op: "Const", Internals: []uint64{7}},
	}}
	got, _ := lookup(c, ns, nil)
	if len(got) == 0 {
		t.Fatalf("no candidates for Add(x, Const)")
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("candidates not in ascending rank order: %v", got)
		}
	}
	// Both the plain and the immediate add rule must be present (both
	// commutative orientations of "add" collapse to the same shape, so
	// expect at least add, add.imm).
	goals := map[string]bool{}
	for _, ri := range got {
		goals[c.At(ri).Rule.Goal] = true
	}
	if !goals["add"] || !goals["add.imm"] {
		t.Fatalf("expected add and add.imm among candidates, got %v", goals)
	}
}

func TestLookupImmEdgeNeedsConstFeeder(t *testing.T) {
	c := compileLib(t, ruleAdd(), ruleAddImm())
	// Non-Const feeder: the imm rule must be filtered out, the plain
	// register rule retained.
	got, _ := lookup(c, NodeShape{Op: "Add", Args: []FeederShape{
		{Op: "Shl"}, {Op: "Shl"},
	}}, nil)
	for _, ri := range got {
		if c.At(ri).Rule.Goal == "add.imm" {
			t.Fatalf("imm rule retrieved for non-Const feeder")
		}
	}
	if len(got) == 0 {
		t.Fatalf("plain add rule missing for Add(Shl, Shl)")
	}
}

func TestLookupMissesForeignShapes(t *testing.T) {
	c := compileLib(t, ruleAdd(), ruleAndn(), ruleBlsrConst())
	for _, ns := range []NodeShape{
		{Op: "Mul", Args: []FeederShape{{Op: "Shl"}, {Op: "Shl"}}}, // no Mul rules
		{Op: "Add"}, // arity differs from every Add pattern root
		{Op: "Const", Internals: []uint64{3}},
	} {
		if got, _ := lookup(c, ns, nil); len(got) != 0 {
			t.Fatalf("shape %+v unexpectedly retrieved %v", ns, got)
		}
	}
}

func TestCompileDropsUnmatchableRules(t *testing.T) {
	identity := Rule{Goal: "add", GoalCost: 1, Pattern: Pattern{
		ArgKinds: []sem.Kind{sem.KindValue, sem.KindValue},
		Results:  []ValueRef{{Kind: RefArg, Index: 0}},
	}}
	unknown := ruleAdd()
	unknown.Goal = "no-such-goal"
	// A pattern with a node unreachable from the root: the matcher's
	// all-nodes-mapped check always fails it.
	unreachable := ruleAdd()
	unreachable.Pattern.Nodes = append(unreachable.Pattern.Nodes,
		Node{Op: "Not", Args: []ValueRef{{Kind: RefArg, Index: 0}}})

	c := compileLib(t, identity, unknown, unreachable, ruleAdd())
	want := 0
	for i := 0; i < c.NumRules(); i++ {
		cr := c.At(i)
		switch cr.Rule.Goal {
		case "no-such-goal":
			if cr.Root >= 0 {
				t.Fatalf("unknown-goal rule indexed")
			}
		case "add":
			switch len(cr.Rule.Pattern.Nodes) {
			case 0:
				if cr.Root >= 0 {
					t.Fatalf("identity rule indexed")
				}
			case 2:
				if cr.Root >= 0 {
					t.Fatalf("unreachable-node rule indexed")
				}
			default:
				if cr.Root < 0 {
					t.Fatalf("plain add rule not indexed")
				}
				want++
			}
		}
	}
	if c.IndexedRules() != want {
		t.Fatalf("IndexedRules = %d, want %d", c.IndexedRules(), want)
	}
}

func TestLookupIsSubsequenceOfLinear(t *testing.T) {
	c := compileLib(t, ruleAdd(), ruleAddImm(), ruleAndn(), ruleBlsrConst())
	all := linearCandidates(c)
	shapes := []NodeShape{
		{Op: "Add", Args: []FeederShape{{Op: "Shl"}, {Op: "Const", Internals: []uint64{1}}}},
		{Op: "And", Args: []FeederShape{{Op: "Not"}, {Op: "Shl"}}},
		{Op: "And", Args: []FeederShape{{Op: "Sub"}, {Op: "Shl"}}},
	}
	for _, ns := range shapes {
		got, _ := lookup(c, ns, nil)
		// Subsequence check against the full indexed-rule order.
		j := 0
		for _, ri := range got {
			for j < len(all) && all[j] != ri {
				j++
			}
			if j == len(all) {
				t.Fatalf("lookup result %v is not a subsequence of %v for %+v", got, all, ns)
			}
			j++
		}
	}
}

func TestLookupReusesBuffer(t *testing.T) {
	c := compileLib(t, ruleAdd(), ruleAddImm())
	buf := make([]int, 0, 8)
	ns := NodeShape{Op: "Add", Args: []FeederShape{{Op: "Shl"}, {Op: "Const", Internals: []uint64{1}}}}
	got1, _ := lookup(c, ns, buf)
	got2, _ := lookup(c, ns, got1[:0])
	if !reflect.DeepEqual(got1, got2) {
		t.Fatalf("buffer reuse changed results: %v vs %v", got1, got2)
	}
}

func TestTokensAreExact(t *testing.T) {
	c := compileLib(t, ruleAdd(), ruleAddImm(), ruleAndn(), ruleBlsrConst())
	// Interned tuples: equal tuples share an id, a tuple and its
	// extension or permutation do not.
	if c.intern(nil) != 0 || c.intern([]uint64{1, 2}) != c.intern([]uint64{1, 2}) {
		t.Fatalf("interning is not a function of the tuple")
	}
	ids := map[uint32]bool{}
	for _, tup := range [][]uint64{nil, {1}, {2}, {1, 2}, {2, 1}, {1, 2, 3}} {
		ids[c.intern(tup)] = true
	}
	if len(ids) != 6 {
		t.Fatalf("six distinct tuples got %d ids", len(ids))
	}

	// blsr's Const(1) sub-node: the graph-side token of Const 1 equals
	// the pattern node's, Const 2 (never interned) and an unknown op
	// equal no pattern node's token.
	var blsr *CompiledRule
	for i := 0; i < c.NumRules(); i++ {
		if c.At(i).Rule.Goal == "blsr" {
			blsr = c.At(i)
			break
		}
	}
	if blsr == nil {
		t.Fatalf("blsr rule missing")
	}
	one := c.NodeToken(c.OpID("Const"), []uint64{1})
	if one != blsr.Tokens[0] || c.OpID("Const") != opConst {
		t.Fatalf("Const 1 token %x, pattern node %x", one, blsr.Tokens[0])
	}
	others := []Token{
		c.NodeToken(c.OpID("Const"), []uint64{2}),
		c.NodeToken(c.OpID("Const"), nil),
		c.NodeToken(c.OpID("Mul"), nil), // no rule uses Mul
		c.NodeToken(NoOp, []uint64{1}),
	}
	for _, tok := range others {
		for i := 0; i < c.NumRules(); i++ {
			for _, pt := range c.At(i).Tokens {
				if tok == pt {
					t.Fatalf("token %x equals a pattern node's", tok)
				}
			}
		}
		if tok == tokAny || tok == tokImm || tok.WithResult(1) == tokImm {
			t.Fatalf("token %x collides with a wildcard", tok)
		}
	}
	if c.OpID("Mul") != NoOp {
		t.Fatalf("an op no rule uses got id %d", c.OpID("Mul"))
	}
	if one.WithResult(1) == one || one.WithResult(1).op() != opConst {
		t.Fatalf("WithResult must keep the op and change the token")
	}
}
