package firm

import (
	"fmt"

	"selgen/internal/bv"
	"selgen/internal/sem"
)

// ExecResult is the outcome of interpreting a graph.
type ExecResult struct {
	// Values holds the concrete value of each Return ref (M-value
	// results report 0; inspect Mem for memory effects).
	Values []uint64
	// Mem is the final memory contents.
	Mem map[uint64]uint64
}

// Exec interprets the graph on concrete parameter values and an initial
// memory image, using the IR operations' own semantic models (via
// sem.ConcreteMem), so the interpreter cannot diverge from the
// semantics the synthesizer saw.
func (g *Graph) Exec(params []uint64, mem map[uint64]uint64) (*ExecResult, error) {
	if len(params) != len(g.params) {
		return nil, fmt.Errorf("firm: %s takes %d params, got %d", g.Name, len(g.params), len(params))
	}
	b := bv.NewBuilder()
	cm := sem.NewConcreteMem(b, g.Width, mem)
	ctx := &sem.Ctx{B: b, Width: g.Width, Mem: cm}
	memTok := b.Const(0, 1) // placeholder M-value token

	vals := make([][]*bv.Term, len(g.nodes))
	for _, n := range g.nodes {
		switch {
		case n.IsParam():
			idx := n.Internals[0]
			var t *bv.Term
			switch g.paramKinds[idx] {
			case sem.KindBool:
				t = b.BoolConst(params[idx]&1 == 1)
			case sem.KindMem:
				t = memTok
			default:
				t = b.Const(params[idx], g.Width)
			}
			vals[n.ID] = []*bv.Term{t}
		case n.IsInitialMem():
			vals[n.ID] = []*bv.Term{memTok}
		default:
			args := make([]*bv.Term, len(n.Args))
			for i, a := range n.Args {
				r := n.argResult(i)
				if r < 0 {
					return nil, fmt.Errorf("firm: %s: v%d arg %d unresolvable", g.Name, n.ID, i)
				}
				args[i] = vals[a.ID][r]
			}
			ints := make([]*bv.Term, len(n.Internals))
			for i, v := range n.Internals {
				ints[i] = b.Const(v, g.Width)
			}
			eff := n.Instr().Apply(ctx, args, ints)
			if eff.Pre != nil && bv.Eval(eff.Pre, nil) != 1 {
				return nil, fmt.Errorf("firm: %s: v%d (%s) violates its precondition (undefined behaviour)", g.Name, n.ID, n.Op)
			}
			vals[n.ID] = eff.Results
		}
	}

	res := &ExecResult{Mem: cm.Cells}
	for _, r := range g.Returns {
		t := vals[r.Node.ID][r.Result]
		if t.Sort == cm.Sort() {
			res.Values = append(res.Values, 0)
		} else {
			res.Values = append(res.Values, bv.Eval(t, nil))
		}
	}
	return res, nil
}
