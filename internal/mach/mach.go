// Package mach represents selected machine code (sequences of machine
// instructions over virtual registers, for any backend in
// internal/target) and executes it against the same semantic models
// used for synthesis, with a per-instruction cycle-cost model. It stands in for running native binaries in the paper's §7.3
// evaluation: what instruction selection changes — the number and kind
// of instructions executed — is exactly what the simulator measures.
package mach

import (
	"fmt"
	"slices"

	"selgen/internal/bv"
	"selgen/internal/sem"
)

// Value is a virtual register (or memory token) id. Values
// 0..NumParams-1 are the function parameters.
type Value int32

// Span is a run of Len elements from Off in one of a Program's arrays.
type Span struct{ Off, Len int32 }

// Instr is one machine instruction instance. It holds no pointers: its
// goal is an index into Program.Goals, and its operands, results and
// immediates are spans of Program.Vals and Program.Imms. Read it
// through the Program's accessors (Goal, Args, Results, Imm).
type Instr struct {
	// Goal indexes Program.Goals: the instruction's semantic model.
	Goal int32
	// Args spans the operands, one per goal argument, and Results the
	// defined values, one per goal result, both in Program.Vals.
	Args, Results Span
	// Imms spans the immediates in Program.Imms, at most one per
	// argument: an argument with an entry takes its constant (set for
	// KindImm operands matched against Const nodes) and ignores its
	// operand.
	Imms Span
}

// Imm pins argument Arg of an instruction to the constant Val.
type Imm struct {
	Arg int32
	Val uint64
}

// Program is a straight-line machine program in SSA-like form. Its
// instructions, values and immediates live in three arrays that hold
// no pointers, so emitting a program takes no GC write barrier and the
// collector never scans them; only the Program itself is scanned.
type Program struct {
	Name      string
	Width     int
	NumParams int
	// Goals is the goal table Instr.Goal indexes. Every program a
	// selector returns shares the selector's table, capacity-clipped,
	// so Append on one copies the table instead of writing into it.
	Goals  []*sem.Instr
	Instrs []Instr
	// Vals holds every instruction's operands and results (and, in a
	// selected program, the returned values Rets is carved from).
	Vals []Value
	// Imms holds every instruction's immediates.
	Imms []Imm
	// Rets lists the returned values (mirrors the graph's Returns).
	Rets []Value

	nextValue int
}

// NewProgram returns an empty program with the given parameter count.
func NewProgram(name string, width, numParams int) *Program {
	return &Program{Name: name, Width: width, NumParams: numParams, nextValue: numParams}
}

// NewValue allocates a fresh virtual register.
func (p *Program) NewValue() Value {
	v := Value(p.nextValue)
	p.nextValue++
	return v
}

// NumValues returns the total number of values (params + defined).
func (p *Program) NumValues() int { return p.nextValue }

// Append adds a hand-built instruction: goal applied to the operands
// args, defining results, with the immediates imms.
func (p *Program) Append(goal *sem.Instr, args, results []Value, imms ...Imm) {
	gi := slices.Index(p.Goals, goal)
	if gi < 0 {
		gi = len(p.Goals)
		p.Goals = append(p.Goals, goal)
	}
	in := Instr{Goal: int32(gi), Args: p.push(args), Results: p.push(results),
		Imms: Span{int32(len(p.Imms)), int32(len(imms))}}
	p.Imms = append(p.Imms, imms...)
	p.Instrs = append(p.Instrs, in)
}

// push appends vs to Vals and returns their span.
func (p *Program) push(vs []Value) Span {
	s := Span{int32(len(p.Vals)), int32(len(vs))}
	p.Vals = append(p.Vals, vs...)
	return s
}

// Goal returns instruction i's semantic model.
func (p *Program) Goal(i int) *sem.Instr { return p.Goals[p.Instrs[i].Goal] }

// Args returns instruction i's operands.
func (p *Program) Args(i int) []Value { return p.vals(p.Instrs[i].Args) }

// Results returns the values instruction i defines.
func (p *Program) Results(i int) []Value { return p.vals(p.Instrs[i].Results) }

func (p *Program) vals(s Span) []Value { return p.Vals[s.Off : s.Off+s.Len : s.Off+s.Len] }

// Imm returns the constant pinned to argument arg of instruction i, if
// any.
func (p *Program) Imm(i, arg int) (uint64, bool) {
	s := p.Instrs[i].Imms
	for _, im := range p.Imms[s.Off : s.Off+s.Len] {
		if int(im.Arg) == arg {
			return im.Val, true
		}
	}
	return 0, false
}

// Cycles returns the cost-model cycle count of one straight-line
// execution.
func (p *Program) Cycles() int {
	c := 0
	for i := range p.Instrs {
		c += p.Goals[p.Instrs[i].Goal].CostOrDefault()
	}
	return c
}

// Size returns the instruction count.
func (p *Program) Size() int { return len(p.Instrs) }

func (p *Program) String() string {
	s := fmt.Sprintf("program %s (%d params) {\n", p.Name, p.NumParams)
	for i := range p.Instrs {
		s += "  " + p.instrString(i) + "\n"
	}
	s += "  ret"
	for _, r := range p.Rets {
		s += fmt.Sprintf(" r%d", r)
	}
	return s + "\n}"
}

func (p *Program) instrString(i int) string {
	s := p.Goal(i).Name
	for ai, a := range p.Args(i) {
		if v, ok := p.Imm(i, ai); ok {
			s += fmt.Sprintf(" $%d", v)
		} else {
			s += fmt.Sprintf(" r%d", a)
		}
	}
	s += " ->"
	for _, r := range p.Results(i) {
		s += fmt.Sprintf(" r%d", r)
	}
	return s
}

// ExecResult is the outcome of executing a program.
type ExecResult struct {
	// Values holds the concrete values of Rets (memory tokens as 0).
	Values []uint64
	// Mem is the final memory contents.
	Mem map[uint64]uint64
	// Cycles is the cost-model cycle count.
	Cycles int
}

// Exec runs the program on concrete parameters and an initial memory
// image through the instructions' own semantic models.
func (p *Program) Exec(params []uint64, mem map[uint64]uint64) (*ExecResult, error) {
	if len(params) != p.NumParams {
		return nil, fmt.Errorf("mach: %s takes %d params, got %d", p.Name, p.NumParams, len(params))
	}
	b := bv.NewBuilder()
	cm := sem.NewConcreteMem(b, p.Width, mem)
	ctx := &sem.Ctx{B: b, Width: p.Width, Mem: cm}
	memTok := b.Const(0, 1)

	vals := make([]*bv.Term, p.NumValues())
	for i := 0; i < p.NumParams; i++ {
		vals[i] = b.Const(params[i], p.Width)
	}
	for ii := range p.Instrs {
		goal, ins, outs := p.Goal(ii), p.Args(ii), p.Results(ii)
		args := make([]*bv.Term, len(ins))
		for i, kind := range goal.Args {
			if imm, ok := p.Imm(ii, i); ok {
				args[i] = b.Const(imm, p.Width)
				continue
			}
			if kind == sem.KindMem {
				args[i] = memTok
				continue
			}
			v := vals[ins[i]]
			if v == nil {
				return nil, fmt.Errorf("mach: %s: use of undefined value r%d", p.Name, ins[i])
			}
			args[i] = v
		}
		eff := goal.Apply(ctx, args, nil)
		if eff.Pre != nil && bv.Eval(eff.Pre, nil) != 1 {
			return nil, fmt.Errorf("mach: %s: %s violates its precondition", p.Name, goal.Name)
		}
		for r, kind := range goal.Results {
			if kind == sem.KindMem {
				vals[outs[r]] = memTok
			} else {
				vals[outs[r]] = eff.Results[r]
			}
		}
	}

	res := &ExecResult{Mem: cm.Cells, Cycles: p.Cycles()}
	for _, r := range p.Rets {
		v := vals[r]
		if v == nil || v.Sort == memTok.Sort {
			res.Values = append(res.Values, 0)
		} else {
			res.Values = append(res.Values, bv.Eval(v, nil))
		}
	}
	return res, nil
}
