package firm

import (
	"testing"

	"selgen/internal/ir"
	"selgen/internal/sem"
)

const w = 8

func newG(name string) *Graph { return NewGraph(name, w, ir.Ops()) }

func TestBuildAndVerify(t *testing.T) {
	g := newG("f")
	x := g.Param(sem.KindValue)
	y := g.Param(sem.KindValue)
	sum := g.New("Add", x, y)
	g.Return(Ref{Node: sum})
	if err := g.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if g.NumRealNodes() != 1 {
		t.Fatalf("real nodes: %d", g.NumRealNodes())
	}
	if len(g.Params()) != 2 {
		t.Fatalf("params: %d", len(g.Params()))
	}
}

func TestExecArithmetic(t *testing.T) {
	g := newG("f")
	x := g.Param(sem.KindValue)
	y := g.Param(sem.KindValue)
	sum := g.New("Add", x, y)
	prod := g.New("Mul", sum, g.Const(3))
	g.Return(Ref{Node: prod})
	res, err := g.Exec([]uint64{10, 20}, nil)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	if res.Values[0] != 90 {
		t.Fatalf("got %d, want 90", res.Values[0])
	}
}

func TestExecMemoryChain(t *testing.T) {
	g := newG("f")
	p := g.Param(sem.KindValue)
	v := g.Param(sem.KindValue)
	m0 := g.InitialMem()
	st := g.New("Store", m0, p, v)
	ld := g.New("Load", st, p)
	g.Return(Ref{Node: ld, Result: 1}, Ref{Node: ld, Result: 0})
	if err := g.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	res, err := g.Exec([]uint64{0x10, 0x7f}, nil)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	if res.Values[0] != 0x7f {
		t.Fatalf("load after store: %#x", res.Values[0])
	}
	if res.Mem[0x10] != 0x7f {
		t.Fatalf("memory not updated: %#x", res.Mem[0x10])
	}
}

func TestExecInitialMemoryImage(t *testing.T) {
	g := newG("f")
	p := g.Param(sem.KindValue)
	ld := g.New("Load", g.InitialMem(), p)
	g.Return(Ref{Node: ld, Result: 1})
	res, err := g.Exec([]uint64{5}, map[uint64]uint64{5: 0xab})
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	if res.Values[0] != 0xab {
		t.Fatalf("got %#x", res.Values[0])
	}
}

func TestExecCmpMux(t *testing.T) {
	g := newG("f")
	x := g.Param(sem.KindValue)
	y := g.Param(sem.KindValue)
	c := g.NewI("Cmp", []uint64{uint64(ir.RelUlt)}, x, y)
	m := g.New("Mux", c, x, y) // min(x, y)
	g.Return(Ref{Node: m})
	res, err := g.Exec([]uint64{9, 4}, nil)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	if res.Values[0] != 4 {
		t.Fatalf("min(9,4) = %d", res.Values[0])
	}
}

func TestExecUndefinedBehaviourFails(t *testing.T) {
	g := newG("f")
	x := g.Param(sem.KindValue)
	sh := g.New("Shl", x, g.Const(9)) // 9 >= 8: UB
	g.Return(Ref{Node: sh})
	if _, err := g.Exec([]uint64{1}, nil); err == nil {
		t.Fatalf("UB shift must fail execution")
	}
}

func TestExecParamCountMismatch(t *testing.T) {
	g := newG("f")
	g.Param(sem.KindValue)
	if _, err := g.Exec(nil, nil); err == nil {
		t.Fatalf("param count mismatch must fail")
	}
}

func TestVerifyRejectsKindMismatch(t *testing.T) {
	g := newG("f")
	x := g.Param(sem.KindValue)
	y := g.Param(sem.KindValue)
	// Mux wants a Bool first argument; x is a Value.
	g.New("Mux", x, x, y)
	if err := g.Verify(); err == nil {
		t.Fatalf("kind mismatch must fail verification")
	}
}

func TestUsers(t *testing.T) {
	g := newG("f")
	x := g.Param(sem.KindValue)
	a := g.New("Not", x)
	b := g.New("Add", a, a)
	g.Return(Ref{Node: b})
	users := g.Users()
	if len(users[a]) != 2 {
		t.Fatalf("a has %d user entries, want 2", len(users[a]))
	}
	if len(users[x]) != 1 {
		t.Fatalf("x has %d users", len(users[x]))
	}
}

func TestStringRendering(t *testing.T) {
	g := newG("f")
	x := g.Param(sem.KindValue)
	g.Return(Ref{Node: g.New("Not", x)})
	s := g.String()
	if s == "" || len(s) < 10 {
		t.Fatalf("graph rendering too short: %q", s)
	}
}

func TestResolvedNodeFacts(t *testing.T) {
	g := newG("f")
	p := g.Param(sem.KindValue)
	ld := g.New("Load", g.InitialMem(), p)
	sum := g.New("Add", p, p)
	st := g.New("Store", ld, p, sum)
	g.Return(Ref{Node: st})

	if !p.IsPseudo() || p.Instr() != nil || p.OpIndex() != -1 {
		t.Fatalf("param resolved as an operation")
	}
	if ld.Instr() == nil || ld.Instr().Name != "Load" || g.Ops()[ld.OpIndex()] != ld.Instr() {
		t.Fatalf("Load resolved to %v", ld.Instr())
	}
	// Store's memory slot reads Load's M result (0), its value slots a
	// parameter and Add's only result.
	for i, want := range []int{0, 0, 0} {
		if got := st.ArgResult(i); got != want {
			t.Fatalf("Store arg %d consumes result %d, want %d", i, got, want)
		}
	}
	if got := g.New("Not", ld).ArgResult(0); got != 1 {
		t.Fatalf("Not(Load) consumes result %d, want the value result 1", got)
	}
	// p feeds Load, Add twice and Store: four slots.
	if p.NumUses() != 4 || sum.NumUses() != 1 || st.NumUses() != 0 {
		t.Fatalf("uses: p %d, sum %d, st %d", p.NumUses(), sum.NumUses(), st.NumUses())
	}
	// Ref indexes are dense and distinct across all results.
	seen := map[int]bool{}
	for _, n := range g.Nodes() {
		for r := 0; r < n.NumResults(); r++ {
			i := Ref{Node: n, Result: r}.Index()
			if i < 0 || i >= g.NumRefs() || seen[i] {
				t.Fatalf("v%d.%d: ref index %d (of %d) out of range or reused", n.ID, r, i, g.NumRefs())
			}
			seen[i] = true
		}
	}
	if len(seen) != g.NumRefs() {
		t.Fatalf("%d ref indexes for %d refs", len(seen), g.NumRefs())
	}
}
