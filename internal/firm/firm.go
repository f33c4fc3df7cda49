// Package firm is a small SSA graph IR in the style of libFirm, the
// research compiler the reproduced paper evaluates in (§7.1): a
// function body is a data-dependence DAG over the IR operations of
// internal/ir, with memory threaded through an M-value chain. It is the
// input language of the instruction selectors in internal/isel and the
// substrate for the SPEC-like workloads in internal/spec.
package firm

import (
	"fmt"

	"selgen/internal/bv"
	"selgen/internal/sem"
)

// Node is one SSA value (or M-value) in a graph. Op is either an IR
// operation name from internal/ir, or one of the pseudo-ops "Param"
// (function argument; Internals[0] is its index) and "InitialMem" (the
// incoming memory state).
type Node struct {
	ID        int
	Op        string
	Args      []*Node
	Internals []uint64

	graph *Graph
	// Resolved once, when the node is added: the index of its IR
	// operation in Graph.Ops() (-1 for pseudo-ops), how many argument
	// slots of later nodes read it, the ref index of its result 0, and
	// where Graph.argResults holds the result each argument feeds its
	// slot with.
	opIndex  int32
	uses     int32
	firstRef int32
	argBase  int32
}

// IsParam reports whether the node is a function parameter.
func (n *Node) IsParam() bool { return n.Op == "Param" }

// IsInitialMem reports whether the node is the incoming memory state.
func (n *Node) IsInitialMem() bool { return n.Op == "InitialMem" }

// IsPseudo reports whether the node is a pseudo-op (not a real IR
// operation that instruction selection must translate).
func (n *Node) IsPseudo() bool { return n.opIndex < 0 }

// Instr returns the node's IR operation (nil for pseudo-ops).
func (n *Node) Instr() *sem.Instr {
	if n.opIndex < 0 {
		return nil
	}
	return n.graph.ops[n.opIndex]
}

// OpIndex returns the index of the node's operation in Graph.Ops(), or
// -1 for a pseudo-op.
func (n *Node) OpIndex() int { return int(n.opIndex) }

// NumResults returns how many results the node produces (pseudo-ops
// produce one).
func (n *Node) NumResults() int {
	if n.opIndex < 0 {
		return 1
	}
	return len(n.graph.ops[n.opIndex].Results)
}

// ResultKind returns the kind of result r.
func (n *Node) ResultKind(r int) sem.Kind {
	switch {
	case n.IsParam():
		return n.graph.paramKinds[n.Internals[0]]
	case n.IsInitialMem():
		return sem.KindMem
	}
	return n.graph.ops[n.opIndex].Results[r]
}

// ArgResult returns which result of Args[i] feeds slot i: the first
// result whose kind is compatible with the slot (used by the
// instruction selectors to interpret dataflow edges).
func (n *Node) ArgResult(i int) int {
	r := n.argResult(i)
	if r < 0 {
		panic(fmt.Sprintf("firm: v%d arg %d unresolvable", n.ID, i))
	}
	return r
}

// argResult is ArgResult, -1 when no result of Args[i] has a kind
// compatible with slot i.
func (n *Node) argResult(i int) int { return int(n.graph.argResults[int(n.argBase)+i]) }

// NumUses returns how many argument slots of the graph's nodes read
// this node (a node reading it twice counts twice). Return roots are
// not included.
func (n *Node) NumUses() int { return int(n.uses) }

func (n *Node) String() string {
	s := fmt.Sprintf("v%d = %s", n.ID, n.Op)
	for _, a := range n.Args {
		s += fmt.Sprintf(" v%d", a.ID)
	}
	for _, iv := range n.Internals {
		s += fmt.Sprintf(" [%d]", iv)
	}
	return s
}

// Ref identifies one result of a node (most nodes have one result;
// Load has an M result and a value result).
type Ref struct {
	Node   *Node
	Result int
}

// Index returns the ref's dense index in [0, Graph.NumRefs()): every
// node's results numbered in creation order, so per-result state can
// live in a slice.
func (r Ref) Index() int { return int(r.Node.firstRef) + r.Result }

// Graph is one function body: a DAG of nodes with designated parameter
// nodes, an optional memory chain, and return roots.
type Graph struct {
	Name  string
	Width int

	nodes      []*Node
	params     []*Node
	paramKinds []sem.Kind
	initialMem *Node

	// Returns are the live roots (returned values and/or final memory).
	Returns []Ref

	ops []*sem.Instr
	// argResults holds every node's ArgResult values (-1 when
	// unresolvable), from Node.argBase on.
	argResults []int8
	numRefs    int
}

// NewGraph returns an empty graph over the given IR operation set.
func NewGraph(name string, width int, ops []*sem.Instr) *Graph {
	return &Graph{Name: name, Width: width, ops: ops}
}

// Ops returns the IR operation set the graph is built over.
func (g *Graph) Ops() []*sem.Instr { return g.ops }

// Nodes returns all nodes in creation (topological) order.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Params returns the parameter nodes in index order.
func (g *Graph) Params() []*Node { return g.params }

// NumRefs returns how many node results the graph has (see Ref.Index).
func (g *Graph) NumRefs() int { return g.numRefs }

// add appends n, an instance of g.ops[opIndex] (or a pseudo-op when
// opIndex is -1), and resolves what the accessors read.
func (g *Graph) add(n *Node, opIndex int) *Node {
	n.ID = len(g.nodes)
	n.graph = g
	n.opIndex = int32(opIndex)
	n.argBase = int32(len(g.argResults))
	for i, a := range n.Args {
		picked := int8(-1)
		for r := 0; r < a.NumResults(); r++ {
			if a.ResultKind(r).Compatible(g.ops[opIndex].Args[i]) {
				picked = int8(r)
				break
			}
		}
		g.argResults = append(g.argResults, picked)
		a.uses++
	}
	n.firstRef = int32(g.numRefs)
	g.numRefs += n.NumResults()
	g.nodes = append(g.nodes, n)
	return n
}

// Param appends a function parameter of the given kind.
func (g *Graph) Param(kind sem.Kind) *Node {
	n := g.add(&Node{Op: "Param", Internals: []uint64{uint64(len(g.params))}}, -1)
	g.params = append(g.params, n)
	g.paramKinds = append(g.paramKinds, kind)
	return n
}

// InitialMem returns (creating on first use) the incoming memory state.
func (g *Graph) InitialMem() *Node {
	if g.initialMem == nil {
		g.initialMem = g.add(&Node{Op: "InitialMem"}, -1)
	}
	return g.initialMem
}

// opIndex returns the index of the named operation in g.ops.
func (g *Graph) opIndex(op string) int {
	for i, o := range g.ops {
		if o.Name == op {
			return i
		}
	}
	panic(fmt.Sprintf("firm: unknown op %q", op))
}

// New appends an IR operation node. Argument count must match the
// operation's interface.
func (g *Graph) New(op string, args ...*Node) *Node {
	oi := g.opIndex(op)
	o := g.ops[oi]
	if len(args) != len(o.Args) {
		panic(fmt.Sprintf("firm: %s takes %d args, got %d", op, len(o.Args), len(args)))
	}
	if len(o.Internals) != 0 {
		panic(fmt.Sprintf("firm: %s needs internals; use NewI", op))
	}
	return g.add(&Node{Op: op, Args: args}, oi)
}

// NewI appends an IR operation node with internal attribute values.
func (g *Graph) NewI(op string, internals []uint64, args ...*Node) *Node {
	oi := g.opIndex(op)
	o := g.ops[oi]
	if len(args) != len(o.Args) || len(internals) != len(o.Internals) {
		panic(fmt.Sprintf("firm: %s interface mismatch", op))
	}
	return g.add(&Node{Op: op, Args: args, Internals: internals}, oi)
}

// Const appends a Const node with the given value.
func (g *Graph) Const(v uint64) *Node {
	return g.NewI("Const", []uint64{v & bv.Mask(g.Width)})
}

// Return marks refs as live roots.
func (g *Graph) Return(refs ...Ref) {
	g.Returns = append(g.Returns, refs...)
}

// Users returns, for each node, the list of nodes using it as an
// argument. Return roots are not included (check Returns separately).
func (g *Graph) Users() map[*Node][]*Node {
	out := make(map[*Node][]*Node)
	for _, n := range g.nodes {
		for _, a := range n.Args {
			out[a] = append(out[a], n)
		}
	}
	return out
}

// Verify checks structural invariants: acyclicity by construction
// (args precede uses), argument kinds, and that Returns reference valid
// results.
func (g *Graph) Verify() error {
	for _, n := range g.nodes {
		for i, a := range n.Args {
			if a.ID >= n.ID {
				return fmt.Errorf("firm: %s: v%d uses later node v%d", g.Name, n.ID, a.ID)
			}
			// Some result of a must be compatible with the arg slot.
			if n.argResult(i) < 0 {
				return fmt.Errorf("firm: %s: v%d arg %d kind mismatch (%s)", g.Name, n.ID, i, a.Op)
			}
		}
	}
	for _, r := range g.Returns {
		if r.Node == nil || r.Result >= r.Node.NumResults() {
			return fmt.Errorf("firm: %s: bad return ref", g.Name)
		}
	}
	return nil
}

// NumRealNodes counts the non-pseudo nodes (the denominator of the
// coverage metric in §7.3).
func (g *Graph) NumRealNodes() int {
	c := 0
	for _, n := range g.nodes {
		if !n.IsPseudo() {
			c++
		}
	}
	return c
}

// String renders the graph.
func (g *Graph) String() string {
	s := fmt.Sprintf("graph %s {\n", g.Name)
	for _, n := range g.nodes {
		s += "  " + n.String() + "\n"
	}
	s += "  return"
	for _, r := range g.Returns {
		s += fmt.Sprintf(" v%d.%d", r.Node.ID, r.Result)
	}
	return s + "\n}"
}
