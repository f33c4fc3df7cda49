// Package mach represents selected machine code (sequences of machine
// instructions over virtual registers, for any backend in
// internal/target) and executes it against the same semantic models
// used for synthesis, with a per-instruction cycle-cost model. It stands in for running native binaries in the paper's §7.3
// evaluation: what instruction selection changes — the number and kind
// of instructions executed — is exactly what the simulator measures.
package mach

import (
	"fmt"

	"selgen/internal/bv"
	"selgen/internal/sem"
)

// Value is a virtual register (or memory token) id. Values
// 0..NumParams-1 are the function parameters.
type Value int

// Instr is one machine instruction instance.
type Instr struct {
	// Goal is the machine instruction's semantic model.
	Goal *sem.Instr
	// Args are the instruction's operands, one per Goal.Args entry.
	Args []Value
	// Results are the defined values, one per Goal.Results entry.
	Results []Value
	// Imms optionally pins immediate operands, at most one per
	// argument: an argument with an entry takes its constant (set for
	// KindImm operands matched against Const nodes) and ignores
	// Args[i]. Read it through Imm.
	Imms []Imm
}

// Imm pins argument Arg of an instruction to the constant Val.
type Imm struct {
	Arg int
	Val uint64
}

// Imm returns the constant pinned to argument i, if any.
func (in *Instr) Imm(i int) (uint64, bool) {
	for _, im := range in.Imms {
		if im.Arg == i {
			return im.Val, true
		}
	}
	return 0, false
}

func (in *Instr) String() string {
	s := in.Goal.Name
	for i, a := range in.Args {
		if v, ok := in.Imm(i); ok {
			s += fmt.Sprintf(" $%d", v)
		} else {
			s += fmt.Sprintf(" r%d", a)
		}
	}
	s += " ->"
	for _, r := range in.Results {
		s += fmt.Sprintf(" r%d", r)
	}
	return s
}

// Program is a straight-line machine program in SSA-like form.
type Program struct {
	Name      string
	Width     int
	NumParams int
	Instrs    []Instr
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

// Append adds an instruction.
func (p *Program) Append(in Instr) { p.Instrs = append(p.Instrs, in) }

// Cycles returns the cost-model cycle count of one straight-line
// execution.
func (p *Program) Cycles() int {
	c := 0
	for _, in := range p.Instrs {
		c += in.Goal.CostOrDefault()
	}
	return c
}

// Size returns the instruction count.
func (p *Program) Size() int { return len(p.Instrs) }

func (p *Program) String() string {
	s := fmt.Sprintf("program %s (%d params) {\n", p.Name, p.NumParams)
	for i := range p.Instrs {
		s += "  " + p.Instrs[i].String() + "\n"
	}
	s += "  ret"
	for _, r := range p.Rets {
		s += fmt.Sprintf(" r%d", r)
	}
	return s + "\n}"
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
	cm := sem.NewConcreteMem(b, p.Width)
	for a, v := range mem {
		cm.Cells[a] = v & bv.Mask(p.Width)
	}
	ctx := &sem.Ctx{B: b, Width: p.Width, Mem: cm}
	memTok := b.Const(0, 1)

	vals := make([]*bv.Term, p.NumValues())
	for i := 0; i < p.NumParams; i++ {
		vals[i] = b.Const(params[i], p.Width)
	}
	for ii := range p.Instrs {
		in := &p.Instrs[ii]
		args := make([]*bv.Term, len(in.Args))
		for i, kind := range in.Goal.Args {
			if imm, ok := in.Imm(i); ok {
				args[i] = b.Const(imm, p.Width)
				continue
			}
			switch kind {
			case sem.KindMem:
				args[i] = memTok
			case sem.KindBool:
				v := vals[in.Args[i]]
				if v == nil {
					return nil, fmt.Errorf("mach: %s: use of undefined value r%d", p.Name, in.Args[i])
				}
				args[i] = v
			default:
				v := vals[in.Args[i]]
				if v == nil {
					return nil, fmt.Errorf("mach: %s: use of undefined value r%d", p.Name, in.Args[i])
				}
				args[i] = v
			}
		}
		eff := in.Goal.Apply(ctx, args, nil)
		if eff.Pre != nil && bv.Eval(eff.Pre, nil) != 1 {
			return nil, fmt.Errorf("mach: %s: %s violates its precondition", p.Name, in.Goal.Name)
		}
		for r, kind := range in.Goal.Results {
			if kind == sem.KindMem {
				vals[in.Results[r]] = memTok
			} else {
				vals[in.Results[r]] = eff.Results[r]
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
