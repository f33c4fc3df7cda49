// Package spec generates deterministic, SPEC-CINT2000-like IR workloads
// for the §7.3 evaluation (Table 1). The proprietary SPEC sources
// cannot be shipped, so each benchmark is modelled by a synthetic
// generator whose operation mix mirrors the benchmark's character
// (bit-twiddling for gzip/crafty, pointer chasing for mcf/vortex,
// branchy selection for gcc/parser, arithmetic for gap/vpr, …). The
// generators emit the idioms instruction selection exploits: canonical
// addressing-mode address computations, load-op and load-op-store
// chains, compare-and-select, rotate idioms, and constants feeding
// immediate forms.
package spec

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"selgen/internal/bv"
	"selgen/internal/firm"
	"selgen/internal/ir"
	"selgen/internal/sem"
)

// Profile describes one synthetic benchmark.
type Profile struct {
	// Name matches the SPEC benchmark it stands in for.
	Name string
	// Funcs and NodesPerFunc size the workload.
	Funcs, NodesPerFunc int
	// Reps scales the simulated runtime (models iteration counts).
	Reps int
	// Weights picks the next idiom: keys are idiom names understood by
	// the generator ("alu", "bit", "shift", "mul", "load", "loadop",
	// "rmw", "store", "cmpmux", "rot", "leaaddr").
	Weights map[string]int
}

// Profiles returns the eleven CINT2000 stand-ins in the paper's
// Table 1 order.
func Profiles() []Profile {
	return []Profile{
		{"164.gzip", 10, 60, 310, map[string]int{"bit": 5, "shift": 5, "load": 3, "loadop": 2, "alu": 3, "leaaddr": 2, "store": 1, "rot": 1}},
		{"175.vpr", 9, 55, 260, map[string]int{"alu": 6, "mul": 2, "cmpmux": 3, "load": 2, "leaaddr": 2, "store": 1}},
		{"176.gcc", 12, 70, 110, map[string]int{"cmpmux": 4, "alu": 4, "bit": 3, "load": 3, "loadop": 2, "store": 2, "leaaddr": 2}},
		{"181.mcf", 8, 50, 140, map[string]int{"load": 6, "loadop": 3, "store": 3, "alu": 3, "leaaddr": 3, "cmpmux": 2}},
		{"186.crafty", 10, 65, 160, map[string]int{"bit": 8, "shift": 4, "rot": 2, "alu": 2, "load": 2, "loadop": 1}},
		{"197.parser", 10, 55, 330, map[string]int{"cmpmux": 4, "bit": 3, "load": 3, "alu": 3, "leaaddr": 2, "store": 1}},
		{"253.perlbmk", 11, 60, 280, map[string]int{"alu": 4, "bit": 3, "load": 3, "store": 3, "loadop": 2, "cmpmux": 2, "leaaddr": 2}},
		{"254.gap", 9, 55, 150, map[string]int{"alu": 6, "mul": 3, "load": 2, "leaaddr": 2, "cmpmux": 1, "store": 1}},
		{"255.vortex", 11, 65, 220, map[string]int{"load": 5, "store": 4, "loadop": 2, "cmpmux": 3, "alu": 3, "leaaddr": 3}},
		{"256.bzip2", 9, 60, 260, map[string]int{"shift": 5, "alu": 4, "load": 3, "loadop": 2, "bit": 2, "leaaddr": 2, "store": 1}},
		{"300.twolf", 10, 60, 330, map[string]int{"alu": 5, "mul": 2, "cmpmux": 3, "load": 3, "leaaddr": 2, "store": 2}},
	}
}

// ProfileByName returns the named profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("spec: unknown benchmark %q", name)
}

// gen carries generation state for one graph.
type gen struct {
	g    *firm.Graph
	rng  *rand.Rand
	vals []*firm.Node // value pool
	mem  firm.Ref     // current memory chain head
	base *firm.Node   // a pointer-ish param for addresses
	w    int
}

func (s *gen) pick() *firm.Node { return s.vals[s.rng.Intn(len(s.vals))] }

func (s *gen) push(n *firm.Node) { s.vals = append(s.vals, n) }

func (s *gen) constNode(v uint64) *firm.Node { return s.g.Const(v) }

// dispConst draws a nonzero displacement in [1, 63]: a canonicalizing
// compiler folds x+0 before instruction selection, so the
// post-canonicalization IR this generator models never adds zero.
func (s *gen) dispConst() *firm.Node {
	return s.constNode(uint64(1 + s.rng.Intn(63)))
}

// aluConst draws a nonzero immediate operand for Add/Sub (x+0 and x−0
// are folded by canonicalization).
func (s *gen) aluConst() *firm.Node {
	return s.constNode(uint64(1 + s.rng.Intn(255)))
}

// bitConst draws an immediate for And/Or/Eor that is neither 0 nor the
// width's all-ones mask — both are identity or absorbing operands a
// canonicalizing compiler folds away.
func (s *gen) bitConst() *firm.Node {
	mask := uint64(1)<<s.w - 1
	hi := mask
	if hi > 255 {
		hi = 255
	}
	return s.constNode(1 + uint64(s.rng.Intn(int(hi-1))))
}

// addr builds a canonical addressing-mode computation over the base
// pointer: base, base+disp, base+(idx<<k), or base+(idx<<k)+disp.
func (s *gen) addr() *firm.Node {
	switch s.rng.Intn(4) {
	case 0:
		return s.base
	case 1:
		return s.g.New("Add", s.base, s.dispConst())
	case 2:
		idx := s.pick()
		sh := s.g.New("Shl", idx, s.constNode(uint64(1+s.rng.Intn(3))))
		return s.g.New("Add", s.base, sh)
	default:
		idx := s.pick()
		sh := s.g.New("Shl", idx, s.constNode(uint64(1+s.rng.Intn(3))))
		inner := s.g.New("Add", s.base, sh)
		return s.g.New("Add", inner, s.dispConst())
	}
}

// emit adds one idiom's nodes.
func (s *gen) emit(idiom string) {
	g := s.g
	switch idiom {
	case "alu":
		ops := []string{"Add", "Sub"}
		op := ops[s.rng.Intn(len(ops))]
		a, b := s.pick(), s.pick()
		if s.rng.Intn(3) == 0 {
			b = s.aluConst()
		}
		s.push(g.New(op, a, b))
	case "bit":
		ops := []string{"And", "Or", "Eor", "Not", "Minus"}
		op := ops[s.rng.Intn(len(ops))]
		if op == "Not" || op == "Minus" {
			s.push(g.New(op, s.pick()))
			return
		}
		a, b := s.pick(), s.pick()
		if s.rng.Intn(4) == 0 {
			b = s.bitConst()
		}
		s.push(g.New(op, a, b))
	case "shift":
		ops := []string{"Shl", "Shr", "Shrs"}
		op := ops[s.rng.Intn(len(ops))]
		amt := s.constNode(uint64(1 + s.rng.Intn(s.w-1)))
		s.push(g.New(op, s.pick(), amt))
	case "mul":
		s.push(g.New("Mul", s.pick(), s.pick()))
	case "load":
		ld := g.New("Load", s.mem.Node, s.addr())
		s.mem = firm.Ref{Node: ld, Result: 0}
		s.push(ld)
	case "loadop":
		// Load feeding exactly one ALU use: the op.ms fusion shape.
		ld := g.New("Load", s.mem.Node, s.addr())
		s.mem = firm.Ref{Node: ld, Result: 0}
		ops := []string{"Add", "Sub", "And", "Or", "Eor"}
		op := ops[s.rng.Intn(len(ops))]
		s.push(g.New(op, s.pick(), ld))
	case "rmw":
		// Load-op-store to the same address: the op.md fusion shape.
		a := s.addr()
		ld := g.New("Load", s.mem.Node, a)
		val := g.New("Add", ld, s.pick())
		st := g.New("Store", ld, a, val)
		s.mem = firm.Ref{Node: st, Result: 0}
	case "store":
		st := g.New("Store", s.mem.Node, s.addr(), s.pick())
		s.mem = firm.Ref{Node: st, Result: 0}
	case "cmpmux":
		rel := []int{ir.RelEq, ir.RelNe, ir.RelSlt, ir.RelSle, ir.RelUlt, ir.RelUle}[s.rng.Intn(6)]
		c := g.NewI("Cmp", []uint64{uint64(rel)}, s.pick(), s.pick())
		s.push(g.New("Mux", c, s.pick(), s.pick()))
	case "rot":
		// Variable-count rotate idiom with a provably in-range count:
		// amt = (v & (W-1)) | 1 ∈ [1, W-1].
		x := s.pick()
		amt := g.New("Or",
			g.New("And", s.pick(), s.constNode(uint64(s.w-1))),
			s.constNode(1))
		shl := g.New("Shl", x, amt)
		sub := g.New("Sub", s.constNode(uint64(s.w)), amt)
		shr := g.New("Shr", x, sub)
		s.push(g.New("Or", shl, shr))
	case "leaaddr":
		// Pure address arithmetic kept in a register: the lea shape.
		idx := s.pick()
		sh := g.New("Shl", idx, s.constNode(uint64(1+s.rng.Intn(3))))
		inner := g.New("Add", s.pick(), sh)
		s.push(g.New("Add", inner, s.dispConst()))
	default:
		panic(fmt.Sprintf("spec: unknown idiom %q", idiom))
	}
}

// nameSalt derives a deterministic per-name salt for RNG seeding:
// FNV-1a over the full name, so profiles (and graphs) whose names have
// equal length still draw from distinct pseudo-random streams
// (length-derived salts collided e.g. "175.vpr" with "181.mcf").
func nameSalt(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64())
}

// Generate builds the benchmark's graphs deterministically from the
// profile and seed.
func Generate(p Profile, width int, ops []*sem.Instr, seed int64) []*firm.Graph {
	rng := rand.New(rand.NewSource(seed ^ nameSalt(p.Name)))
	var out []*firm.Graph

	// Weighted idiom choice.
	var keys []string
	total := 0
	for k, w := range p.Weights {
		keys = append(keys, k)
		total += w
	}
	// Deterministic key order (map iteration is random).
	sortStrings(keys)
	choose := func(r *rand.Rand) string {
		x := r.Intn(total)
		for _, k := range keys {
			x -= p.Weights[k]
			if x < 0 {
				return k
			}
		}
		return keys[len(keys)-1]
	}

	for f := 0; f < p.Funcs; f++ {
		g := firm.NewGraph(fmt.Sprintf("%s_f%d", p.Name, f), width, ops)
		st := &gen{g: g, rng: rng, w: width}
		nParams := 3 + rng.Intn(3)
		for i := 0; i < nParams; i++ {
			st.push(g.Param(sem.KindValue))
		}
		st.base = g.Param(sem.KindValue)
		st.mem = firm.Ref{Node: g.InitialMem()}

		budget := p.NodesPerFunc
		for g.NumRealNodes() < budget {
			st.emit(choose(rng))
		}

		// Return every value that is still unused (keeps all
		// computation live) plus the final memory state.
		users := g.Users()
		for _, n := range g.Nodes() {
			if n.IsPseudo() || len(users[n]) > 0 {
				continue
			}
			if n.Op == "Store" {
				continue // covered by the memory chain return below
			}
			r := firm.Ref{Node: n}
			if n.Op == "Load" {
				r.Result = 1
			}
			g.Return(r)
		}
		if st.mem.Node != nil && !st.mem.Node.IsInitialMem() {
			g.Return(st.mem)
		}
		out = append(out, g)
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Inputs builds deterministic input vectors for a graph: parameter
// values and an initial memory image around the base pointer.
func Inputs(g *firm.Graph, seed int64, sets int) ([][]uint64, []map[uint64]uint64) {
	rng := rand.New(rand.NewSource(seed ^ nameSalt(g.Name)))
	var params [][]uint64
	var mems []map[uint64]uint64
	for s := 0; s < sets; s++ {
		ps := make([]uint64, len(g.Params()))
		for i := range ps {
			ps[i] = rng.Uint64() & bv.Mask(g.Width)
		}
		// The base pointer is the last parameter; give it a stable
		// value so address arithmetic stays in a small region.
		ps[len(ps)-1] = 0x40
		mem := make(map[uint64]uint64, 0x200)
		for a := uint64(0); a < 0x200; a++ {
			mem[a] = rng.Uint64() & bv.Mask(g.Width)
		}
		params = append(params, ps)
		mems = append(mems, mem)
	}
	return params, mems
}

// LoadIdiomNote documents why the generator emits "loadop" with a
// single use: only then may a selector fuse the load into a memory
// operand without duplicating the load (§7.3's overlap discussion).
const LoadIdiomNote = "loadop emits single-use loads so op.ms fusion is legal"
