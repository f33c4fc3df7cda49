package isel

import (
	"testing"

	"selgen/internal/firm"
	"selgen/internal/ir"
	"selgen/internal/pattern"
	"selgen/internal/sem"
	"selgen/internal/x86"
)

func TestHandwrittenLibraryResolves(t *testing.T) {
	lib := HandwrittenLibrary(8)
	goals := x86.Registry()
	if len(lib.Rules) < 40 {
		t.Fatalf("handwritten library too small: %d rules", len(lib.Rules))
	}
	for _, r := range lib.Rules {
		if goals[r.Goal] == nil {
			t.Errorf("rule goal %q not in the x86 registry", r.Goal)
		}
		if err := r.Pattern.Validate(ir.Ops()); err != nil {
			t.Errorf("rule %s invalid: %v", r.Goal, err)
		}
		g := goals[r.Goal]
		if g == nil {
			continue
		}
		if len(r.Pattern.ArgKinds) != len(g.Args) {
			t.Errorf("rule %s: pattern has %d args, goal %d", r.Goal, len(r.Pattern.ArgKinds), len(g.Args))
		}
		if len(r.Pattern.Results) != len(g.Results) {
			t.Errorf("rule %s: pattern has %d results, goal %d", r.Goal, len(r.Pattern.Results), len(g.Results))
		}
	}
}

func TestFallbackGoalsResolve(t *testing.T) {
	sel := New(&pattern.Library{Width: 8}, x86.Registry(), true)
	g := firm.NewGraph("f", 8, ir.Ops())
	x := g.Param(sem.KindValue)
	y := g.Param(sem.KindValue)
	m := g.InitialMem()
	nodes := []*firm.Node{
		g.New("Add", x, y), g.New("Sub", x, y), g.New("Mul", x, y),
		g.New("And", x, y), g.New("Or", x, y), g.New("Eor", x, y),
		g.New("Not", x), g.New("Minus", x),
		g.New("Shl", x, y), g.New("Shr", x, y), g.New("Shrs", x, y),
		g.New("Load", m, x),
		g.Const(3),
	}
	for rel := 0; rel < ir.NumRelations; rel++ {
		nodes = append(nodes, g.NewI("Cmp", []uint64{uint64(rel)}, x, y))
	}
	// Store and Mux need nodes of the right kinds.
	st := g.New("Store", m, x, y)
	c := g.NewI("Cmp", []uint64{0}, x, y)
	mux := g.New("Mux", c, x, y)
	nodes = append(nodes, st, mux)
	var sc selection
	sc.reset(sel, g)
	for _, n := range nodes {
		if sc.fallbackGoal(n) < 0 {
			t.Errorf("no fallback for %s", n)
		}
	}
}

// TestHandwrittenRulesSemanticallySound verifies every handwritten rule
// by instantiating its pattern as a graph, selecting it with a
// one-rule library, and differentially executing graph vs program on
// random inputs — the same trust argument the synthesized rules get
// from SMT verification, applied to the hand-authored baseline.
func TestHandwrittenRulesSemanticallySound(t *testing.T) {
	goals := x86.Registry()
	lib := HandwrittenLibrary(8)
	for _, r := range lib.Rules {
		g := firm.NewGraph("case", 8, ir.Ops())
		argNodes := make([]*firm.Node, len(r.Pattern.ArgKinds))
		var params []int
		for i, k := range r.Pattern.ArgKinds {
			switch k {
			case sem.KindImm:
				argNodes[i] = g.Const(21)
			case sem.KindMem:
				argNodes[i] = g.InitialMem()
			case sem.KindBool:
				// Feed a comparison result.
				p1 := g.Param(sem.KindValue)
				p2 := g.Param(sem.KindValue)
				params = append(params, -1, -1)
				argNodes[i] = g.NewI("Cmp", []uint64{uint64(ir.RelUlt)}, p1, p2)
			default:
				argNodes[i] = g.Param(sem.KindValue)
				params = append(params, i)
			}
		}
		nodes := make([]*firm.Node, len(r.Pattern.Nodes))
		skip := false
		for ni, n := range r.Pattern.Nodes {
			args := make([]*firm.Node, len(n.Args))
			for ai, ref := range n.Args {
				if ref.Kind == 0 { // RefArg
					args[ai] = argNodes[ref.Index]
				} else {
					args[ai] = nodes[ref.Index]
				}
			}
			if len(n.Internals) > 0 {
				nodes[ni] = g.NewI(n.Op, n.Internals, args...)
			} else {
				nodes[ni] = g.New(n.Op, args...)
			}
		}
		if skip {
			continue
		}
		for _, res := range r.Pattern.Results {
			if res.Kind == 0 {
				g.Return(firm.Ref{Node: argNodes[res.Index]})
			} else {
				g.Return(firm.Ref{Node: nodes[res.Index], Result: res.Result})
			}
		}
		if err := g.Verify(); err != nil {
			t.Fatalf("rule %s: graph: %v", r.Goal, err)
		}
		sel := New(HandwrittenLibrary(8), goals, true)
		prog, _, err := sel.Select(g)
		if err != nil {
			t.Fatalf("rule %s: select: %v", r.Goal, err)
		}
		// Random inputs; skip input sets that trigger IR UB (shifts).
		for trial := 0; trial < 4; trial++ {
			in := make([]uint64, len(g.Params()))
			for i := range in {
				in[i] = uint64(trial*37+11*i) % 256
			}
			mem := map[uint64]uint64{}
			for a := uint64(0); a < 64; a++ {
				mem[a] = (a*13 + uint64(trial)) % 256
			}
			gr, err := g.Exec(in, mem)
			if err != nil {
				continue // UB input; nothing to compare
			}
			pr, err := prog.Exec(in, mem)
			if err != nil {
				t.Fatalf("rule %s: program exec: %v", r.Goal, err)
			}
			for i := range gr.Values {
				if gr.Values[i] != pr.Values[i] {
					t.Fatalf("rule %s: trial %d: result %d: %#x vs %#x\n%s\n%s",
						r.Goal, trial, i, gr.Values[i], pr.Values[i], g.String(), prog.String())
				}
			}
			for a, v := range gr.Mem {
				if pr.Mem[a] != v {
					t.Fatalf("rule %s: mem[%#x]: %#x vs %#x", r.Goal, a, v, pr.Mem[a])
				}
			}
		}
	}
}
