package sem

import (
	"fmt"

	"selgen/internal/bv"
)

// ConcreteMem is a sem.Mem over an actual address-indexed store. It
// executes semantic models on concrete inputs: pointer and value terms
// must be constant-foldable, and stores mutate the map in program
// order. It backs the reference interpreters in internal/firm and
// internal/mach, so IR graphs and selected machine code run against the
// exact same semantic models used for synthesis.
type ConcreteMem struct {
	b     *bv.Builder
	width int
	// Cells is the memory contents, word-addressed.
	Cells map[uint64]uint64
	// Loads and Stores count accesses (for the cycle model).
	Loads, Stores int
}

// NewConcreteMem returns a concrete memory holding a copy of the image
// init (nil for an empty memory), each cell masked to the width.
func NewConcreteMem(b *bv.Builder, width int, init map[uint64]uint64) *ConcreteMem {
	c := &ConcreteMem{b: b, width: width, Cells: make(map[uint64]uint64, len(init))}
	for a, v := range init {
		c.Cells[a] = v & bv.Mask(width)
	}
	return c
}

// Sort implements Mem with a 1-bit placeholder M-value sort (the
// concrete store carries the real state).
func (c *ConcreteMem) Sort() bv.Sort { return bv.BitVec(1) }

// ByteWidth implements Mem.
func (c *ConcreteMem) ByteWidth() int { return c.width }

func (c *ConcreteMem) addr(p *bv.Term) uint64 {
	v := bv.Eval(p, nil)
	if !onlyConsts(p) {
		panic(fmt.Sprintf("sem: concrete memory requires constant pointers, got %v", p))
	}
	return v
}

func onlyConsts(t *bv.Term) bool {
	if t.Op == bv.OpVar {
		return false
	}
	for _, a := range t.Args {
		if !onlyConsts(a) {
			return false
		}
	}
	return true
}

// Ld implements Mem by reading the store.
func (c *ConcreteMem) Ld(m, p *bv.Term) (mOut, val, valid *bv.Term) {
	c.Loads++
	v := c.Cells[c.addr(p)]
	return m, c.b.Const(v, c.width), c.b.BoolConst(true)
}

// St implements Mem by mutating the store.
func (c *ConcreteMem) St(m, p, x *bv.Term) (mOut, valid *bv.Term) {
	c.Stores++
	c.Cells[c.addr(p)] = bv.Eval(x, nil) & bv.Mask(c.width)
	return m, c.b.BoolConst(true)
}

var _ Mem = (*ConcreteMem)(nil)
