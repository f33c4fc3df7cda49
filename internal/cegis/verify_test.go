package cegis

import (
	"os"
	"path/filepath"
	"testing"

	"selgen/internal/ir"
	"selgen/internal/pattern"
	"selgen/internal/riscv"
	"selgen/internal/sem"
	"selgen/internal/x86"
)

// TestVerifyGoldenRules checks the public verification entry point on
// both quickstart goldens: every committed rule verifies against its
// goal at the library's width, and a branch rule with its root Cmp
// relation negated (a cmp.jb rule, a riscv bltu rule) yields a
// counterexample.
func TestVerifyGoldenRules(t *testing.T) {
	for name, reg := range map[string]map[string]*sem.Instr{
		"x86": x86.Registry(), "riscv": riscv.Registry(),
	} {
		f, err := os.Open(filepath.Join("..", "..", "testdata", "goldens", "quick_"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		lib, err := pattern.Load(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		e := New(ir.Ops(), Config{Width: lib.Width})
		flipped := 0
		for _, r := range lib.Rules {
			goal := reg[r.Goal]
			if goal == nil {
				t.Fatalf("%s: goal %s is not in the registry", name, r.Goal)
			}
			if cex, ok, err := e.Verify(goal, &r.Pattern); err != nil || !ok {
				t.Errorf("%s: %s rule %s: ok=%v cex=%v err=%v", name, r.Goal, r.Pattern.Canon(), ok, cex, err)
			}
			if r.Goal != "cmp.jb" && r.Goal != "bltu" {
				continue
			}
			p := r.Pattern
			p.Nodes = append([]pattern.Node(nil), p.Nodes...)
			root := &p.Nodes[p.Results[0].Index]
			root.Internals = []uint64{uint64(ir.NegateRelation(int(root.Internals[0])))}
			cex, ok, err := e.Verify(goal, &p)
			if err != nil || ok || len(cex) != len(goal.Args) {
				t.Fatalf("%s: flipped %s rule %s: ok=%v cex=%v err=%v, want a counterexample",
					name, r.Goal, p.Canon(), ok, cex, err)
			}
			flipped++
		}
		if flipped == 0 {
			t.Fatalf("%s: the golden holds no branch rule to flip", name)
		}
	}
}
