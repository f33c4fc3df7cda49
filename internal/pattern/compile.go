// Compiled matching: a compile-once indexed form of the rule library
// for sublinear instruction selection (BURG-style tree-pattern
// indexing; cf. §7.3's discussion of selection cost).
//
// The prototype selector originally tried every rule at every graph
// node, so per-node cost scaled linearly with library size. Compile
// canonicalizes each pattern to a bounded-depth shape — the root
// operation, its internal attribute values, and one token per root
// argument position describing what feeds it — and inserts the rule
// into a discrimination trie keyed on that shape. Selection then walks
// the trie with the graph node's own neighborhood shape and retrieves
// only the rules whose shape prefix is compatible, in the exact
// specificity order the linear scanner would have tried them.
//
// Argument-position tokens:
//
//	any          a pattern argument of any non-immediate kind (matches
//	             every feeder)
//	imm          an immediate pattern argument (matches only Const
//	             feeders)
//	Op.r[ints]   a pattern sub-node: operation Op, consumed result r,
//	             exact internal values ints (matches only a feeder node
//	             with identical op, result, and internals)
//
// Tokens are exact packed integers (see Token), built without strings
// on both the insert and the lookup side.
//
// The trie over-approximates: a retrieved rule may still fail the full
// structural match (deeper levels, DAG sharing, the non-overlap rule),
// but a rule it skips can never match — op, internals, result index,
// and sub-node internals are all compared exactly by the matcher, and
// immediate arguments only ever bind Const feeders. Lookup therefore
// preserves the linear scanner's semantics while visiting only a
// neighborhood-sized slice of the library.
package pattern

import (
	"slices"

	"selgen/internal/sem"
)

// OpID is an operation's id in one CompiledLibrary, fixed by Compile.
type OpID uint16

// NoOp is the OpID of every operation no rule of the library uses; no
// trie edge or pattern node carries it.
const NoOp OpID = 1<<16 - 1

// opConst is the id Compile always gives "Const": immediate edges
// match only Const feeders.
const opConst OpID = 1

// Token is an exact trie-edge key. A node token packs an op id (bits
// 48–63), a consumed result index (bits 32–47, 0 for a node's own
// identity) and the id of the node's internal values (bits 0–31). The
// wildcard tokens tokAny and tokImm carry op id 0, which no operation
// has, so they never collide with a node token.
type Token uint64

const (
	tokAny Token = iota
	tokImm
)

const (
	opShift  = 48
	resShift = 32
	// noInternals is the internals id of tuples no rule carries.
	noInternals = 1<<32 - 1
)

// WithResult returns the token of an argument slot that consumes
// result r of the node whose token t is.
func (t Token) WithResult(r int) Token { return t | Token(r)<<resShift }

func (t Token) op() OpID { return OpID(t >> opShift) }

func (t Token) internals() Token { return t & noInternals }

// trieNode is one discrimination-trie node. Levels are: root op (the
// roots table) → root internals → one level per root argument
// position. Edges are sorted by token; rule indexes live at full
// depth, in ascending specificity-rank order.
type trieNode struct {
	edges []trieEdge
	rules []int
}

type trieEdge struct {
	tok   Token
	child int32
}

// child returns the node the edge labelled tok leads to, or 0 (the
// unused sentinel node) when there is none.
func (n *trieNode) child(tok Token) int32 {
	i, ok := search(n.edges, tok)
	if !ok {
		return 0
	}
	return n.edges[i].child
}

// search binary-searches the sorted edges for tok.
func search(edges []trieEdge, tok Token) (int, bool) {
	lo, hi := 0, len(edges)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if edges[m].tok < tok {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(edges) && edges[lo].tok == tok
}

// CompiledRule is one rule of a CompiledLibrary: the expanded-
// orientation rule plus everything the matcher needs precomputed.
type CompiledRule struct {
	// Rule is the rule in one concrete commutative orientation.
	Rule Rule
	// Goal is the resolved goal instruction (nil when the registry does
	// not know the goal; such rules never match), and GoalIndex its
	// index in CompiledLibrary.Goals (-1 when nil).
	Goal      *sem.Instr
	GoalIndex int32
	// Root is the pattern node index the matcher roots at (the producer
	// of the primary = last non-memory result). It is -1 when the rule
	// can never root a match: unknown goal, an identity (argument)
	// primary result, or pattern nodes unreachable from the root.
	Root int
	// Tokens holds each pattern node's token (op and internals), so the
	// matcher compares a graph node against a pattern node with one
	// integer comparison (see CompiledLibrary.NodeToken).
	Tokens []Token
}

// CompiledLibrary is the selector-facing compiled form of a Library:
// the commutatively expanded, specificity-sorted rules plus the shape
// trie that indexes them. It is immutable after Compile and safe for
// concurrent lookups from multiple goroutines.
type CompiledLibrary struct {
	width int
	rules []CompiledRule
	// ops gives every operation the patterns use an id; ints interns
	// internal-value tuples: the tuple (v0..vk) has id
	// ints[{id(v0..vk-1), vk}], the empty tuple id 0.
	ops  map[string]OpID
	ints map[[2]uint64]uint32
	// nodes[0] is an unused sentinel, so child index 0 means "none";
	// roots[op] is the op-level node of operation op (0 when no indexed
	// rule is rooted at it).
	nodes   []trieNode
	roots   []int32
	indexed int
	maxSize int
	// goals is the goal registry in name order (goalNames), the table
	// GoalIndex and CompiledRule.GoalIndex index.
	goals     []*sem.Instr
	goalNames []string
}

// Compile canonicalizes and indexes a rule library: it expands
// commutative orientations (the database stores one per §5.5; the
// syntactic matcher needs both), sorts by the selector's specificity
// ranking, resolves goals, and builds the shape trie. The input
// library is not modified.
func Compile(lib *Library, goals map[string]*sem.Instr) *CompiledLibrary {
	ex := lib.ExpandCommutative()
	ex.SortBySpecificity()
	c := &CompiledLibrary{
		width: ex.Width,
		rules: make([]CompiledRule, len(ex.Rules)),
		ops:   map[string]OpID{"Const": opConst},
		ints:  map[[2]uint64]uint32{},
		nodes: make([]trieNode, 1),
	}
	c.goalNames = make([]string, 0, len(goals))
	for name := range goals {
		c.goalNames = append(c.goalNames, name)
	}
	slices.Sort(c.goalNames)
	c.goals = make([]*sem.Instr, len(c.goalNames))
	for i, name := range c.goalNames {
		c.goals[i] = goals[name]
	}
	for i, r := range ex.Rules {
		gi := c.GoalIndex(r.Goal)
		cr := &c.rules[i]
		*cr = CompiledRule{Rule: r, GoalIndex: gi, Tokens: make([]Token, len(r.Pattern.Nodes))}
		if gi >= 0 {
			cr.Goal = c.goals[gi]
		}
		cr.Root = matchRoot(&cr.Rule.Pattern, cr.Goal)
		for pi := range r.Pattern.Nodes {
			pn := &r.Pattern.Nodes[pi]
			cr.Tokens[pi] = nodeToken(c.opID(pn.Op), c.intern(pn.Internals))
		}
		if s := r.Pattern.Size(); s > c.maxSize {
			c.maxSize = s
		}
		c.insert(i)
	}
	return c
}

func nodeToken(op OpID, internals uint32) Token {
	return Token(op)<<opShift | Token(internals)
}

// opID returns op's id, assigning the next free one on first use
// (Compile only).
func (c *CompiledLibrary) opID(op string) OpID {
	id, ok := c.ops[op]
	if !ok {
		id = OpID(len(c.ops) + 1)
		c.ops[op] = id
	}
	return id
}

// intern returns the id of an internal-value tuple, assigning fresh
// ids on first use (Compile only).
func (c *CompiledLibrary) intern(vals []uint64) uint32 {
	id := uint32(0)
	for _, v := range vals {
		k := [2]uint64{uint64(id), v}
		next, ok := c.ints[k]
		if !ok {
			next = uint32(len(c.ints) + 1)
			c.ints[k] = next
		}
		id = next
	}
	return id
}

// OpID returns the id Compile gave the named operation, or NoOp when no
// rule uses it.
func (c *CompiledLibrary) OpID(name string) OpID {
	if id, ok := c.ops[name]; ok {
		return id
	}
	return NoOp
}

// NodeToken returns the token of a graph node with operation op (an id
// from OpID) and the given internal values: what Lookup takes for a
// root and, through Token.WithResult, for a feeder, and what
// CompiledRule.Tokens holds for a pattern node. A node whose op or
// internals no rule carries gets a token no trie edge or pattern node
// has.
func (c *CompiledLibrary) NodeToken(op OpID, internals []uint64) Token {
	if op == NoOp {
		return nodeToken(NoOp, 0)
	}
	id := uint32(0)
	for _, v := range internals {
		next, ok := c.ints[[2]uint64{uint64(id), v}]
		if !ok {
			return nodeToken(op, noInternals)
		}
		id = next
	}
	return nodeToken(op, id)
}

// GoalIndex returns the index of the named goal in Goals, or -1 when
// the registry Compile was given does not know it.
func (c *CompiledLibrary) GoalIndex(name string) int32 {
	if i, ok := slices.BinarySearch(c.goalNames, name); ok {
		return int32(i)
	}
	return -1
}

// Goals returns the goal table: the registry Compile was given, in name
// order. It is shared and capacity-clipped, so appending to it copies.
func (c *CompiledLibrary) Goals() []*sem.Instr { return c.goals[:len(c.goals):len(c.goals)] }

// matchRoot computes the root pattern node the matcher anchors at, or
// -1 when the rule is unmatchable (see CompiledRule.Root).
func matchRoot(p *Pattern, goal *sem.Instr) int {
	if goal == nil || len(p.Results) == 0 || len(p.Results) != len(goal.Results) {
		return -1
	}
	// The primary result is the last non-memory result; patterns whose
	// only result is memory root at the memory-producing node.
	primary := -1
	for i := len(p.Results) - 1; i >= 0; i-- {
		if goal.Results[i] != sem.KindMem {
			primary = i
			break
		}
	}
	if primary == -1 {
		primary = len(p.Results) - 1
	}
	root := p.Results[primary]
	if root.Kind != RefNode {
		return -1 // identity patterns never root a match
	}
	// Every pattern node must be reachable from the root through
	// argument references, or the matcher's all-nodes-mapped check
	// fails unconditionally; drop such rules from the index.
	reached := make([]bool, len(p.Nodes))
	stack := []int{root.Index}
	reached[root.Index] = true
	n := 1
	for len(stack) > 0 {
		ni := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range p.Nodes[ni].Args {
			if a.Kind == RefNode && !reached[a.Index] {
				reached[a.Index] = true
				n++
				stack = append(stack, a.Index)
			}
		}
	}
	if n != len(p.Nodes) {
		return -1
	}
	return root.Index
}

// insert adds rule ri to the trie under its shape tokens.
func (c *CompiledLibrary) insert(ri int) {
	cr := &c.rules[ri]
	if cr.Root < 0 {
		return
	}
	p := &cr.Rule.Pattern
	rn := &p.Nodes[cr.Root]
	root := cr.Tokens[cr.Root]
	if int(root.op()) >= len(c.roots) {
		c.roots = append(c.roots, make([]int32, int(root.op())+1-len(c.roots))...)
	}
	if c.roots[root.op()] == 0 {
		c.roots[root.op()] = c.newNode()
	}
	node := c.step(c.roots[root.op()], root.internals())
	for _, a := range rn.Args {
		switch {
		case a.Kind == RefArg && p.ArgKinds[a.Index] == sem.KindImm:
			node = c.step(node, tokImm)
		case a.Kind == RefArg:
			node = c.step(node, tokAny)
		default:
			node = c.step(node, cr.Tokens[a.Index].WithResult(a.Result))
		}
	}
	c.nodes[node].rules = append(c.nodes[node].rules, ri)
	c.indexed++
}

func (c *CompiledLibrary) newNode() int32 {
	c.nodes = append(c.nodes, trieNode{})
	return int32(len(c.nodes) - 1)
}

// step returns the child of node ni along tok, creating it (and keeping
// the edges sorted) when absent.
func (c *CompiledLibrary) step(ni int32, tok Token) int32 {
	i, ok := search(c.nodes[ni].edges, tok)
	if ok {
		return c.nodes[ni].edges[i].child
	}
	child := c.newNode()
	n := &c.nodes[ni]
	n.edges = slices.Insert(n.edges, i, trieEdge{tok, child})
	return child
}

// Lookup appends to buf the indexes of every indexed rule whose shape
// is compatible with a graph node — its own token root (from
// NodeToken) and one token per argument, feeders[i] for the result
// feeding slot i (NodeToken(...).WithResult(r)) — in ascending
// specificity rank (the order the linear scanner tries rules), and
// reports how many trie nodes were visited. Rules outside the result
// can never match the node; rules inside still need the full
// structural match.
func (c *CompiledLibrary) Lookup(root Token, feeders []Token, buf []int) ([]int, int) {
	op := root.op()
	if int(op) >= len(c.roots) || c.roots[op] == 0 {
		return buf, 1
	}
	node := c.nodes[c.roots[op]].child(root.internals())
	if node == 0 {
		return buf, 2
	}
	start := len(buf)
	buf, visits := c.walk(node, feeders, buf)
	// Each rule has exactly one shape path, and distinct explored paths
	// are distinct token sequences, so no rule appears twice; merging
	// the (individually ascending) leaf lists is a plain sort.
	slices.Sort(buf[start:])
	return buf, 2 + visits
}

// walk appends the rules below node ni compatible with the remaining
// feeders and returns how many trie nodes it visited.
func (c *CompiledLibrary) walk(ni int32, feeders []Token, buf []int) ([]int, int) {
	n := &c.nodes[ni]
	if len(feeders) == 0 {
		return append(buf, n.rules...), 1
	}
	visits := 1
	f, rest := feeders[0], feeders[1:]
	// tokAny and tokImm are the two smallest tokens, so they head the
	// sorted edges when present; only f's own edge needs a search.
	edges := n.edges
	if len(edges) > 0 && edges[0].tok == tokAny {
		var v int
		buf, v = c.walk(edges[0].child, rest, buf)
		visits += v
		edges = edges[1:]
	}
	if len(edges) > 0 && edges[0].tok == tokImm {
		if f.op() == opConst {
			var v int
			buf, v = c.walk(edges[0].child, rest, buf)
			visits += v
		}
		edges = edges[1:]
	}
	if i, ok := search(edges, f); ok {
		var v int
		buf, v = c.walk(edges[i].child, rest, buf)
		visits += v
	}
	return buf, visits
}

// Width returns the word width the library was compiled at.
func (c *CompiledLibrary) Width() int { return c.width }

// NumRules returns the number of compiled (expanded, sorted) rules.
func (c *CompiledLibrary) NumRules() int { return len(c.rules) }

// At returns compiled rule i (rank order = try order).
func (c *CompiledLibrary) At(i int) *CompiledRule { return &c.rules[i] }

// IndexedRules returns how many rules the trie indexes (matchable
// rules; the rest have Root < 0 and can never root a match).
func (c *CompiledLibrary) IndexedRules() int { return c.indexed }

// MaxPatternSize returns the largest pattern size among the rules.
func (c *CompiledLibrary) MaxPatternSize() int { return c.maxSize }
