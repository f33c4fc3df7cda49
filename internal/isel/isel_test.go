package isel

import (
	"testing"

	"selgen/internal/firm"
	"selgen/internal/ir"
	"selgen/internal/sem"
	"selgen/internal/x86"
)

const w = 8

func handwritten(t *testing.T) *Selector {
	t.Helper()
	return New(HandwrittenLibrary(w), x86.Registry(), true)
}

func newG(name string) *firm.Graph { return firm.NewGraph(name, w, ir.Ops()) }

// selectAndCheck selects the graph and cross-checks execution of graph
// vs machine program on the given inputs.
func selectAndCheck(t *testing.T, s *Selector, g *firm.Graph, params []uint64, mem map[uint64]uint64) (*Coverage, int) {
	t.Helper()
	if err := g.Verify(); err != nil {
		t.Fatalf("graph invalid: %v", err)
	}
	prog, cov, err := s.Select(g)
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	gRes, err := g.Exec(params, mem)
	if err != nil {
		t.Fatalf("graph exec: %v", err)
	}
	pRes, err := prog.Exec(params, mem)
	if err != nil {
		t.Fatalf("program exec: %v\n%s", err, prog.String())
	}
	if len(gRes.Values) != len(pRes.Values) {
		t.Fatalf("result arity: %d vs %d", len(gRes.Values), len(pRes.Values))
	}
	for i := range gRes.Values {
		// Memory-token returns report 0 from both sides.
		if gRes.Values[i] != pRes.Values[i] {
			t.Fatalf("result %d differs: graph %#x, machine %#x\n%s\n%s",
				i, gRes.Values[i], pRes.Values[i], g.String(), prog.String())
		}
	}
	for a, v := range gRes.Mem {
		if pRes.Mem[a] != v {
			t.Fatalf("memory[%#x] differs: graph %#x, machine %#x", a, v, pRes.Mem[a])
		}
	}
	return &cov, prog.Size()
}

func TestSelectPlainAdd(t *testing.T) {
	g := newG("f")
	x := g.Param(sem.KindValue)
	y := g.Param(sem.KindValue)
	g.Return(firm.Ref{Node: g.New("Add", x, y)})
	_, n := selectAndCheck(t, handwritten(t), g, []uint64{3, 4}, nil)
	if n != 1 {
		t.Fatalf("plain add must be 1 instruction, got %d", n)
	}
}

func TestSelectImmediateForm(t *testing.T) {
	g := newG("f")
	x := g.Param(sem.KindValue)
	g.Return(firm.Ref{Node: g.New("Add", x, g.Const(5))})
	_, n := selectAndCheck(t, handwritten(t), g, []uint64{10}, nil)
	// add.imm absorbs the constant: 1 instruction, no mov.imm.
	if n != 1 {
		t.Fatalf("add with constant must fuse to add.imm, got %d instructions", n)
	}
}

func TestSelectLeaShape(t *testing.T) {
	g := newG("f")
	b := g.Param(sem.KindValue)
	i := g.Param(sem.KindValue)
	sh := g.New("Shl", i, g.Const(2))
	inner := g.New("Add", b, sh)
	sum := g.New("Add", inner, g.Const(42))
	g.Return(firm.Ref{Node: sum})
	_, n := selectAndCheck(t, handwritten(t), g, []uint64{0x10, 3}, nil)
	if n != 1 {
		t.Fatalf("lea shape must be 1 instruction (lea.b+i*4+d), got %d", n)
	}
}

func TestSelectLoadOpFusion(t *testing.T) {
	g := newG("f")
	p := g.Param(sem.KindValue)
	y := g.Param(sem.KindValue)
	ld := g.New("Load", g.InitialMem(), p)
	sum := g.New("Add", y, ld)
	g.Return(firm.Ref{Node: sum}, firm.Ref{Node: ld, Result: 0})
	cov, n := selectAndCheck(t, handwritten(t), g, []uint64{0x20, 7}, map[uint64]uint64{0x20: 5})
	if n != 1 {
		t.Fatalf("load+add must fuse to add.ms.b, got %d instructions", n)
	}
	if cov.Covered != 2 {
		t.Fatalf("fusion covers 2 IR ops, got %d", cov.Covered)
	}
}

func TestNoFusionWhenLoadShared(t *testing.T) {
	// The loaded value has two users: fusion would duplicate the load,
	// so the non-overlap rule must fall back to separate instructions.
	g := newG("f")
	p := g.Param(sem.KindValue)
	y := g.Param(sem.KindValue)
	ld := g.New("Load", g.InitialMem(), p)
	sum := g.New("Add", y, ld)
	prod := g.New("Eor", ld, y)
	g.Return(firm.Ref{Node: sum}, firm.Ref{Node: prod}, firm.Ref{Node: ld, Result: 0})
	_, n := selectAndCheck(t, handwritten(t), g, []uint64{0x20, 7}, map[uint64]uint64{0x20: 5})
	if n != 3 {
		t.Fatalf("shared load must not fuse: want 3 instructions (mov, add, xor), got %d", n)
	}
}

func TestNoFusionWhenInteriorReturned(t *testing.T) {
	// The loaded value's only user is the add, but the value is also a
	// return root: fusing would leave it in no register.
	g := newG("f")
	p := g.Param(sem.KindValue)
	y := g.Param(sem.KindValue)
	ld := g.New("Load", g.InitialMem(), p)
	sum := g.New("Add", y, ld)
	g.Return(firm.Ref{Node: sum}, firm.Ref{Node: ld, Result: 0}, firm.Ref{Node: ld, Result: 1})
	_, n := selectAndCheck(t, handwritten(t), g, []uint64{0x20, 7}, map[uint64]uint64{0x20: 5})
	if n != 2 {
		t.Fatalf("returned load value must not fuse: want 2 instructions (mov, add), got %d", n)
	}
}

func TestSelectRMWFusion(t *testing.T) {
	g := newG("f")
	p := g.Param(sem.KindValue)
	y := g.Param(sem.KindValue)
	ld := g.New("Load", g.InitialMem(), p)
	val := g.New("Add", ld, y)
	st := g.New("Store", ld, p, val)
	g.Return(firm.Ref{Node: st})
	_, n := selectAndCheck(t, handwritten(t), g, []uint64{0x30, 2}, map[uint64]uint64{0x30: 40})
	if n != 1 {
		t.Fatalf("load-add-store must fuse to add.md.b, got %d", n)
	}
}

func TestSelectTestIdiom(t *testing.T) {
	g := newG("f")
	x := g.Param(sem.KindValue)
	y := g.Param(sem.KindValue)
	and := g.New("And", x, y)
	cmp := g.NewI("Cmp", []uint64{uint64(ir.RelEq)}, and, g.Const(0))
	mux := g.New("Mux", cmp, x, y)
	g.Return(firm.Ref{Node: mux})
	_, n := selectAndCheck(t, handwritten(t), g, []uint64{0b1100, 0b0011}, nil)
	// test.je + cmov = 2 instructions.
	if n != 2 {
		t.Fatalf("test+cmov should be 2 instructions, got %d", n)
	}
}

func TestSelectRotateIdiom(t *testing.T) {
	g := newG("f")
	x := g.Param(sem.KindValue)
	c := g.Param(sem.KindValue)
	amt := g.New("Or", g.New("And", c, g.Const(7)), g.Const(1))
	shl := g.New("Shl", x, amt)
	sub := g.New("Sub", g.Const(8), amt)
	shr := g.New("Shr", x, sub)
	rot := g.New("Or", shl, shr)
	g.Return(firm.Ref{Node: rot})
	_, n := selectAndCheck(t, handwritten(t), g, []uint64{0xa5, 3}, nil)
	// amt computation (and.imm + or.imm) + rol = 3 instructions.
	if n != 3 {
		t.Fatalf("rotate idiom: want 3 instructions, got %d", n)
	}
}

func TestSelectWithoutFallbackFails(t *testing.T) {
	lib := HandwrittenLibrary(w)
	lib.Rules = lib.Rules[:0]
	s := New(lib, x86.Registry(), false)
	g := newG("f")
	x := g.Param(sem.KindValue)
	g.Return(firm.Ref{Node: g.New("Not", x)})
	if _, _, err := s.Select(g); err == nil {
		t.Fatalf("empty library without fallback must fail")
	}
}

func TestEmptyLibraryFallbackCompilesEverything(t *testing.T) {
	lib := HandwrittenLibrary(w)
	lib.Rules = lib.Rules[:0]
	s := New(lib, x86.Registry(), true)
	g := newG("f")
	x := g.Param(sem.KindValue)
	y := g.Param(sem.KindValue)
	p := g.Param(sem.KindValue)
	ld := g.New("Load", g.InitialMem(), p)
	sum := g.New("Add", g.New("Eor", x, ld), y)
	st := g.New("Store", ld, p, sum)
	g.Return(firm.Ref{Node: st})
	cov, _ := selectAndCheck(t, s, g, []uint64{1, 2, 0x40}, map[uint64]uint64{0x40: 9})
	if cov.Covered != 0 || cov.Fallback == 0 {
		t.Fatalf("all nodes must go through fallback: %+v", cov)
	}
}

func TestDeadCodeNotEmitted(t *testing.T) {
	g := newG("f")
	x := g.Param(sem.KindValue)
	g.New("Not", x) // dead
	live := g.New("Minus", x)
	g.Return(firm.Ref{Node: live})
	prog, _, err := handwritten(t).Select(g)
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	if prog.Size() != 1 {
		t.Fatalf("dead node must not be emitted: %d instructions", prog.Size())
	}
}

func TestCoverageRatio(t *testing.T) {
	c := Coverage{Covered: 3, Fallback: 1, Total: 4}
	if c.Ratio() != 0.75 {
		t.Fatalf("ratio: %f", c.Ratio())
	}
	var zero Coverage
	if zero.Ratio() != 1 {
		t.Fatalf("empty coverage ratio should be 1")
	}
	zero.Add(c)
	if zero.Covered != 3 || zero.Total != 4 {
		t.Fatalf("add: %+v", zero)
	}
}
