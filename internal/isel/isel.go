// Package isel contains the instruction selectors of the paper's §7.3
// evaluation: a greedy DAG-pattern matcher driven by a rule library
// (the generated prototype selector, §5.6) with a per-node fallback,
// plus the hand-tuned baseline library that stands in for libFirm's
// handwritten x86 backend.
//
// The rule library is compiled once, in New, into an indexed form
// (pattern.CompiledLibrary): a discrimination trie over pattern shapes
// that retrieves, per graph node, only the rules whose shape prefix
// matches the node's neighborhood — so per-node cost is near-
// independent of library size instead of linear in it. The legacy
// one-rule-at-a-time scan survives behind Selector.Linear as the
// differential oracle.
//
// Selection is non-overlapping: a rule only matches when the pattern's
// interior values have no users outside the match, mirroring the
// prototype selector's restriction discussed in §7.3.
package isel

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"selgen/internal/firm"
	"selgen/internal/ir"
	"selgen/internal/mach"
	"selgen/internal/obs"
	"selgen/internal/pattern"
	"selgen/internal/sem"
)

// Coverage reports how much of a graph the rule library translated
// (the §7.3 coverage metric).
type Coverage struct {
	// Covered counts IR operations translated by library rules.
	Covered int
	// Fallback counts IR operations handled by the per-node fallback.
	Fallback int
	// Total counts all real IR operations.
	Total int
}

// Ratio returns Covered/Total (1 for empty graphs).
func (c Coverage) Ratio() float64 {
	if c.Total == 0 {
		return 1
	}
	return float64(c.Covered) / float64(c.Total)
}

// Add accumulates another graph's coverage.
func (c *Coverage) Add(o Coverage) {
	c.Covered += o.Covered
	c.Fallback += o.Fallback
	c.Total += o.Total
}

// SelStats are cumulative selection-effort counters across a
// Selector's lifetime (all Select calls, all goroutines).
type SelStats struct {
	// Nodes counts graph nodes that reached the rule-matching loop.
	Nodes int64
	// RulesTried counts full structural match attempts.
	RulesTried int64
	// TrieVisits counts shape-trie nodes visited during candidate
	// retrieval (0 when Linear).
	TrieVisits int64
	// Matches counts nodes translated by a library rule; Fallbacks
	// counts nodes handled by the per-node fallback.
	Matches, Fallbacks int64
}

// Selector translates firm graphs to machine programs using a compiled
// rule library and (optionally) a per-node fallback for uncovered
// nodes. A Selector is immutable after New (aside from internal atomic
// counters and its pool of per-call scratch state) and safe for
// concurrent Select calls.
type Selector struct {
	// Compiled is the indexed rule library, built once in New. Its goal
	// table (pattern.CompiledLibrary.Goals) is the Goals table of every
	// program the Selector returns.
	Compiled *pattern.CompiledLibrary
	// Fallback enables per-node translation of uncovered operations.
	Fallback bool
	// Linear forces the legacy one-rule-at-a-time scan over the whole
	// sorted library instead of the trie lookup; it is the differential
	// oracle for the indexed matcher (see differential_test.go). Set it
	// before the first Select.
	Linear bool
	// FB is the per-target fallback translation table. Nil selects the
	// x86 mapping (X86Fallback), preserving the historical behaviour;
	// other targets set it before the first Select (internal/target
	// wires it per backend).
	FB *FallbackMap
	// Obs, when non-nil, receives isel.* counters (rules tried, trie
	// visits, matches, fallbacks) and a per-graph "isel.select" span.
	// Set it before the first Select; a nil tracer disables
	// instrumentation.
	Obs *obs.Tracer

	nodes, rulesTried, trieVisits, matches, fallbacks atomic.Int64
	// states recycles per-call scratch state (*selection): each Select
	// call takes one for itself and returns it emptied.
	states sync.Pool
}

// New returns a selector over the given library and goal registry. The
// library is compiled (commutative expansion, specificity sort, shape
// indexing, goal table) eagerly here; the caller's library is left
// untouched.
func New(lib *pattern.Library, goals map[string]*sem.Instr, fallback bool) *Selector {
	return &Selector{
		Compiled: pattern.Compile(lib, goals),
		Fallback: fallback,
	}
}

// Stats returns the Selector's cumulative selection-effort counters.
func (s *Selector) Stats() SelStats {
	return SelStats{
		Nodes:      s.nodes.Load(),
		RulesTried: s.rulesTried.Load(),
		TrieVisits: s.trieVisits.Load(),
		Matches:    s.matches.Load(),
		Fallbacks:  s.fallbacks.Load(),
	}
}

// match is one decided rule application: the compiled rule's index
// and the offsets of its maps in nodeArena (pattern node index → graph
// node ID) and argArena (pattern argument index → the graph ref feeding
// it, node -1 when the pattern never references the argument; an
// immediate argument binds a Const node, whose value the instruction
// encodes). The maps are as long as the rule's pattern has nodes and
// arguments.
type match struct{ rule, node, arg int32 }

// binding is a graph ref as plain integers: the ID of its node (-1 for
// none) and its result.
type binding struct{ node, res int32 }

// decision classifies what happens to each graph node.
type decision uint8

const (
	decDead decision = iota
	decRoot
	decInterior
	decFallback
)

// selection is one Select call's state. Everything per node or per
// result lives in slices indexed by node ID or firm.Ref.Index; the
// slices are recycled through Selector.states, so a warm Select
// allocates only the program it returns. A state serves one call at a
// time, and the program never aliases it. The per-node loops store no
// pointers into it: matches and bindings are plain integers, and the
// rule and root of an attempt travel as arguments.
type selection struct {
	s *Selector
	c *pattern.CompiledLibrary
	g *firm.Graph
	// nodes is g.Nodes(), indexed by the node IDs the maps hold.
	nodes []*firm.Node
	st    SelStats
	// operands and imms count the program's operands and results, and
	// its immediates.
	operands, imms int

	// The op set of the last graph and what selection needs of each
	// of its operations, resolved once per op set (a suite's graphs
	// share one) and kept while the next graph has the same one: the
	// op's pattern.OpID and fallback goal (an index into the goal
	// table, -1 for none), the index of Cmp, whose goal depends on its
	// relation, and the relation → goal table.
	ops   []*sem.Instr
	opIDs []pattern.OpID
	opFB  []int32
	cmpOp int
	cmpFB []int32

	// tok[id] is node id's trie token (pattern.CompiledLibrary.NodeToken).
	tok []pattern.Token
	dec []decision
	// needed[id] is set once a decided consumer reads node id.
	needed []bool
	// retained[ref] marks return roots.
	retained []bool
	// rooted[id] indexes matches for a decRoot node.
	rooted  []int32
	matches []match
	// nodeArena and argArena back the decided matches' maps.
	nodeArena []int32
	argArena  []binding

	// The maps of the attempt in progress.
	nodeMap []int32
	argBind []binding

	feeders []pattern.Token
	cand    []int

	// Emission: the program, and the machine value of each emitted
	// graph ref (-1 until emitted).
	prog *mach.Program
	vals []mach.Value
}

// reset readies x for selecting g with s.
func (x *selection) reset(s *Selector, g *firm.Graph) {
	nodes := g.Nodes()
	x.s, x.c, x.g, x.nodes, x.st, x.operands, x.imms = s, s.Compiled, g, nodes, SelStats{}, 0, 0
	x.tok = sized(x.tok, len(nodes))
	x.dec = sized(x.dec, len(nodes))
	x.needed = sized(x.needed, len(nodes))
	x.retained = sized(x.retained, g.NumRefs())
	x.rooted = sized(x.rooted, len(nodes))
	x.vals = sized(x.vals, g.NumRefs())
	x.matches, x.nodeArena, x.argArena = x.matches[:0], x.nodeArena[:0], x.argArena[:0]

	if ops := g.Ops(); !slices.Equal(x.ops, ops) {
		x.resolveOps(ops)
	}
	for _, n := range nodes {
		op := pattern.NoOp
		if !n.IsPseudo() {
			op = x.opIDs[n.OpIndex()]
		}
		x.tok[n.ID] = x.c.NodeToken(op, n.Internals)
	}
	for _, r := range g.Returns {
		x.retained[r.Index()] = true
		x.needed[r.Node.ID] = true
	}
}

// resolveOps resolves the OpID and the fallback goal of each operation
// of ops, and the Cmp relation → goal table.
func (x *selection) resolveOps(ops []*sem.Instr) {
	fb := x.s.FB
	if fb == nil {
		fb = x86Fallback
	}
	x.ops = append(x.ops[:0], ops...)
	x.opIDs, x.opFB, x.cmpOp = x.opIDs[:0], x.opFB[:0], -1
	for i, o := range ops {
		x.opIDs = append(x.opIDs, x.c.OpID(o.Name))
		goal := int32(-1)
		if name, ok := fb.Direct[o.Name]; ok {
			goal = x.c.GoalIndex(name)
		} else if o.Name == "Cmp" {
			x.cmpOp = i
		} else if o.Name == "Const" {
			goal = x.c.GoalIndex(fb.Const)
		}
		x.opFB = append(x.opFB, goal)
	}
	x.cmpFB = x.cmpFB[:0]
	for rel := 0; rel < ir.NumRelations; rel++ {
		x.cmpFB = append(x.cmpFB, x.c.GoalIndex(fb.Cmp[rel]))
	}
}

// fallbackGoal maps an IR node to a single machine instruction using
// the goals resolveOps found for its operation: its index in the goal
// table, or -1.
func (x *selection) fallbackGoal(n *firm.Node) int32 {
	oi := n.OpIndex()
	if oi != x.cmpOp {
		return x.opFB[oi]
	}
	if rel := n.Internals[0]; rel < uint64(len(x.cmpFB)) {
		return x.cmpFB[rel]
	}
	return -1
}

// release drops x's references into the graph and the program, so a
// pooled state keeps neither alive. The resolved op set stays for the
// next call; it pins only the operations it names.
func (x *selection) release() {
	x.g, x.nodes, x.prog = nil, nil, nil
}

// Select translates one graph. Without fallback it fails when a live
// node is uncovered by the rule library.
func (s *Selector) Select(g *firm.Graph) (*mach.Program, Coverage, error) {
	var sp obs.Span
	if s.Obs != nil {
		sp = s.Obs.Span(0, "isel.select", obs.Str("graph", g.Name))
	}
	x, _ := s.states.Get().(*selection)
	if x == nil {
		x = new(selection)
	}
	x.reset(s, g)
	x.decide()
	prog, cov, err := x.emit()
	s.record(x.st, sp)
	x.release()
	s.states.Put(x)
	return prog, cov, err
}

// record adds one Select call's effort to the Selector's counters and
// its tracer.
func (s *Selector) record(st SelStats, sp obs.Span) {
	s.nodes.Add(st.Nodes)
	s.rulesTried.Add(st.RulesTried)
	s.trieVisits.Add(st.TrieVisits)
	s.matches.Add(st.Matches)
	s.fallbacks.Add(st.Fallbacks)
	if s.Obs == nil {
		return
	}
	s.Obs.Add("isel.nodes", st.Nodes)
	s.Obs.Add("isel.rules_tried", st.RulesTried)
	s.Obs.Add("isel.trie_visits", st.TrieVisits)
	s.Obs.Add("isel.matches", st.Matches)
	s.Obs.Add("isel.fallbacks", st.Fallbacks)
	sp.End(obs.Int("nodes", st.Nodes), obs.Int("rules_tried", st.RulesTried),
		obs.Int("matches", st.Matches), obs.Int("fallbacks", st.Fallbacks))
}

// decide is the decision pass: roots first (reverse topological
// order). When it reaches a node, every potential consumer has already
// recorded whether it needs this node's value.
func (x *selection) decide() {
	nodes := x.g.Nodes()
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		if n.IsPseudo() || x.dec[n.ID] == decInterior || !x.needed[n.ID] {
			continue // pseudo, swallowed, or dead
		}
		x.st.Nodes++
		if ri := x.firstMatch(n); ri >= 0 {
			cr := x.c.At(ri)
			x.st.Matches++
			x.dec[n.ID] = decRoot
			x.operands += len(cr.Rule.Pattern.ArgKinds) + len(cr.Goal.Results)
			x.keep(ri, n)
			for _, id := range x.nodeMap {
				if int(id) != n.ID && !isShareable(x.nodes[id].Op) {
					x.dec[id] = decInterior
				}
			}
			for ai, b := range x.argBind {
				// An immediate, or an argument the pattern never
				// references, is encoded in the instruction.
				if b.node < 0 || cr.Rule.Pattern.ArgKinds[ai] == sem.KindImm {
					x.imms++
				} else {
					x.needed[b.node] = true
				}
			}
			continue
		}
		x.st.Fallbacks++
		x.dec[n.ID] = decFallback
		// One operand per IR argument (a Const's immediate for Const),
		// one result per IR result.
		x.operands += max(len(n.Args), 1) + n.NumResults()
		if n.Op == "Const" {
			x.imms++
		}
		// Fallback encodes Const internals directly; other args are
		// register operands.
		for _, a := range n.Args {
			x.needed[a.ID] = true
		}
	}
}

// firstMatch returns the index of the first rule, in specificity rank,
// that matches rooted at n (leaving its maps in x.nodeMap and
// x.argBind), or -1.
func (x *selection) firstMatch(n *firm.Node) int {
	if x.s.Linear {
		for ri := 0; ri < x.c.NumRules(); ri++ {
			x.st.RulesTried++
			if x.tryMatch(x.c.At(ri), n) {
				return ri
			}
		}
		return -1
	}
	x.feeders = x.feeders[:0]
	for ai, a := range n.Args {
		x.feeders = append(x.feeders, x.tok[a.ID].WithResult(n.ArgResult(ai)))
	}
	cand, visits := x.c.Lookup(x.tok[n.ID], x.feeders, x.cand[:0])
	if cap(cand) != cap(x.cand) {
		x.cand = cand // keep the grown buffer
	}
	x.st.TrieVisits += int64(visits)
	for _, ri := range cand {
		x.st.RulesTried++
		if x.tryMatch(x.c.At(ri), n) {
			return ri
		}
	}
	return -1
}

// keep records the successful attempt's maps as the match of rule ri
// rooted at root.
func (x *selection) keep(ri int, root *firm.Node) {
	x.rooted[root.ID] = int32(len(x.matches))
	x.matches = append(x.matches, match{int32(ri), int32(len(x.nodeArena)), int32(len(x.argArena))})
	x.nodeArena = append(x.nodeArena, x.nodeMap...)
	x.argArena = append(x.argArena, x.argBind...)
}

// isShareable reports whether a matched interior node may also be used
// outside the match. Constants are rematerializable and never block a
// match.
func isShareable(op string) bool { return op == "Const" }

// sized returns s resliced to n zero elements, reallocating only when
// its capacity is short.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// refill reslices *s to n elements set to v. It stores a new array only
// when the capacity is short, so a warm call writes no pointer (and
// takes no GC write barrier).
func refill[T any](s *[]T, n int, v T) {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	for i := range *s {
		(*s)[i] = v
	}
}

// tryMatch attempts to match the rule's pattern with its primary
// result rooted at graph node n, leaving the maps in x.nodeMap and
// x.argBind. It allocates nothing once the scratch maps have grown to
// the library's largest pattern.
func (x *selection) tryMatch(cr *pattern.CompiledRule, n *firm.Node) bool {
	if cr.Root < 0 {
		// Identity patterns, unknown goals, and patterns with nodes
		// unreachable from the root never root a match.
		return false
	}
	p := &cr.Rule.Pattern
	refill(&x.nodeMap, len(p.Nodes), -1)
	refill(&x.argBind, len(p.ArgKinds), binding{node: -1})
	if !x.matchNode(cr, n, cr.Root, n) {
		return false
	}
	for _, id := range x.nodeMap {
		if id < 0 {
			return false // unmatched pattern node (dead node in pattern)
		}
	}

	// Non-overlap check: every matched node's results may only be used
	// inside the match or exposed as a pattern result.
	for _, id := range x.nodeMap {
		gn := x.nodes[id]
		if isShareable(gn.Op) {
			continue
		}
		hidden := false
		for rr := 0; rr < gn.NumResults(); rr++ {
			if x.exposed(cr, id, rr) {
				continue
			}
			if x.retained[firm.Ref{Node: gn, Result: rr}.Index()] {
				return false
			}
			hidden = true
		}
		if hidden && x.usesInMatch(gn) != gn.NumUses() {
			return false
		}
	}

	// Argument bindings must come from outside the match (or from a
	// shareable node, or an exposed result): an operand produced by a
	// swallowed interior value would have no register to live in.
	for _, b := range x.argBind {
		if b.node < 0 || !slices.Contains(x.nodeMap, b.node) {
			continue
		}
		if isShareable(x.nodes[b.node].Op) || x.exposed(cr, b.node, int(b.res)) {
			continue
		}
		return false
	}

	// The root must be the last matched node so its operands are all
	// emitted before the instruction.
	for _, id := range x.nodeMap {
		if int(id) > n.ID {
			return false
		}
	}
	return true
}

// matchNode matches pattern node pi of rule cr, attempted at root,
// against graph node gn.
func (x *selection) matchNode(cr *pattern.CompiledRule, root *firm.Node, pi int, gn *firm.Node) bool {
	if id := x.nodeMap[pi]; id >= 0 {
		return int(id) == gn.ID
	}
	// Equal tokens mean equal op and internals; pseudo nodes match no
	// pattern node.
	if x.tok[gn.ID] != cr.Tokens[pi] {
		return false
	}
	// A node already consumed by another match (or already chosen as
	// another instruction's root) cannot be interior here.
	if gn != root && x.dec[gn.ID] != decDead {
		return false
	}
	x.nodeMap[pi] = int32(gn.ID)
	for i, pa := range cr.Rule.Pattern.Nodes[pi].Args {
		if !x.matchRef(cr, root, pa, firm.Ref{Node: gn.Args[i], Result: gn.ArgResult(i)}) {
			return false
		}
	}
	return true
}

// matchRef matches a pattern value reference of rule cr against the
// graph ref gr.
func (x *selection) matchRef(cr *pattern.CompiledRule, root *firm.Node, pr pattern.ValueRef, gr firm.Ref) bool {
	if pr.Kind != pattern.RefArg {
		return gr.Result == pr.Result && x.matchNode(cr, root, pr.Index, gr.Node)
	}
	if b := x.argBind[pr.Index]; b.node >= 0 {
		return int(b.node) == gr.Node.ID && int(b.res) == gr.Result
	}
	if cr.Rule.Pattern.ArgKinds[pr.Index] == sem.KindImm {
		// Immediate operands must match compile-time constants that the
		// goal's immediate field can encode (ImmOK nil = any word
		// constant, the x86 behaviour; RISC-style targets restrict e.g.
		// to sign-extended 12-bit values).
		if gr.Node.Op != "Const" {
			return false
		}
		goal := cr.Goal
		if goal.ImmOK != nil && !goal.ImmOK(pr.Index, gr.Node.Internals[0], x.g.Width) {
			return false
		}
	}
	x.argBind[pr.Index] = binding{int32(gr.Node.ID), int32(gr.Result)}
	return true
}

// exposed reports whether result r of matched node id is a result of
// rule cr's pattern.
func (x *selection) exposed(cr *pattern.CompiledRule, id int32, r int) bool {
	for _, res := range cr.Rule.Pattern.Results {
		if res.Kind == pattern.RefNode && res.Result == r && x.nodeMap[res.Index] == id {
			return true
		}
	}
	return false
}

// usesInMatch counts the argument slots of the matched nodes (each
// counted once, however many pattern nodes map to it) that read gn.
func (x *selection) usesInMatch(gn *firm.Node) int {
	uses := 0
	for pi, id := range x.nodeMap {
		if slices.Contains(x.nodeMap[:pi], id) {
			continue
		}
		for _, a := range x.nodes[id].Args {
			if a == gn {
				uses++
			}
		}
	}
	return uses
}

// emit is the emission pass: leaves first. The program's arrays are
// sized from decide's counts; they hold no pointers, so they are
// allocated unscanned and filled without write barriers.
func (x *selection) emit() (*mach.Program, Coverage, error) {
	g := x.g
	for i := range x.vals {
		x.vals[i] = -1
	}
	for i, p := range g.Params() {
		x.vals[firm.Ref{Node: p}.Index()] = mach.Value(i)
	}
	prog := mach.NewProgram(g.Name, g.Width, len(g.Params()))
	prog.Goals = x.c.Goals()
	prog.Instrs = make([]mach.Instr, 0, x.st.Matches+x.st.Fallbacks)
	prog.Vals = make([]mach.Value, 0, x.operands+len(g.Returns))
	prog.Imms = make([]mach.Imm, 0, x.imms)
	x.prog = prog
	cov := Coverage{Total: g.NumRealNodes()}

	for _, n := range g.Nodes() {
		switch {
		case n.IsInitialMem():
			x.vals[firm.Ref{Node: n}.Index()] = prog.NewValue()
		case n.IsPseudo():
			// Params pre-seeded.
		case x.dec[n.ID] == decRoot:
			m := x.matches[x.rooted[n.ID]]
			if err := x.emitMatch(m); err != nil {
				return nil, cov, err
			}
			// Shareable interiors like Const are counted at every match
			// that absorbs them; a Const kept alive elsewhere re-emits
			// via fallback.
			cov.Covered += x.c.At(int(m.rule)).Rule.Pattern.Size()
		case x.dec[n.ID] == decFallback:
			if !x.s.Fallback {
				return nil, cov, fmt.Errorf("isel: %s: no rule matches v%d (%s)", g.Name, n.ID, n.Op)
			}
			if err := x.emitFallback(n); err != nil {
				return nil, cov, err
			}
			cov.Fallback++
		}
	}

	_, prog.Rets = x.values(len(g.Returns))
	for i, r := range g.Returns {
		v := x.vals[r.Index()]
		if v < 0 {
			return nil, cov, fmt.Errorf("isel: %s: return ref v%d.%d was never emitted", g.Name, r.Node.ID, r.Result)
		}
		prog.Rets[i] = v
	}
	return prog, cov, nil
}

// values appends n zero values to the program's value array (growing
// it when decide's count falls short) and returns their span and the
// values themselves, to be filled in.
func (x *selection) values(n int) (mach.Span, []mach.Value) {
	p := x.prog
	l := len(p.Vals)
	if l+n > cap(p.Vals) {
		p.Vals = slices.Grow(p.Vals, n)
	}
	p.Vals = p.Vals[:l+n]
	return mach.Span{Off: int32(l), Len: int32(n)}, p.Vals[l : l+n : l+n]
}

// newResults allocates the n result values of the instruction being
// emitted.
func (x *selection) newResults(n int) (mach.Span, []mach.Value) {
	sp, rs := x.values(n)
	for i := range rs {
		rs[i] = x.prog.NewValue()
	}
	return sp, rs
}

// pinImm appends an immediate for operand ai of the instruction being
// emitted to the program's immediate array.
func (x *selection) pinImm(ai int, v uint64) {
	x.prog.Imms = append(x.prog.Imms, mach.Imm{Arg: int32(ai), Val: v})
}

// immsSince returns the span of the immediates pinned from index start
// of the program's immediate array on: the instruction's own.
func (x *selection) immsSince(start int) mach.Span {
	return mach.Span{Off: int32(start), Len: int32(len(x.prog.Imms) - start)}
}

// emitMatch emits the machine instruction for a decided match.
func (x *selection) emitMatch(m match) error {
	cr := x.c.At(int(m.rule))
	p := &cr.Rule.Pattern
	in := mach.Instr{Goal: cr.GoalIndex}
	var args []mach.Value
	in.Args, args = x.values(len(p.ArgKinds))
	start := len(x.prog.Imms)
	for ai, b := range x.argArena[m.arg : int(m.arg)+len(p.ArgKinds)] {
		switch {
		case b.node < 0:
			// The pattern never references this argument; verification
			// then proved the goal is independent of it (under the
			// pattern's precondition), so any operand works.
			x.pinImm(ai, 0)
		case p.ArgKinds[ai] == sem.KindImm:
			x.pinImm(ai, x.nodes[b.node].Internals[0])
		default:
			ref := firm.Ref{Node: x.nodes[b.node], Result: int(b.res)}
			v := x.vals[ref.Index()]
			if v < 0 {
				return fmt.Errorf("isel: %s: operand v%d.%d of %s not yet emitted", x.g.Name, ref.Node.ID, ref.Result, cr.Rule.Goal)
			}
			args[ai] = v
		}
	}
	in.Imms = x.immsSince(start)
	var results []mach.Value
	in.Results, results = x.newResults(len(cr.Goal.Results))
	x.prog.Instrs = append(x.prog.Instrs, in)
	// Publish the produced refs. Identity (RefArg) results need no
	// publication: the bound operand already has a value.
	nodeMap := x.nodeArena[m.node : int(m.node)+len(p.Nodes)]
	for ri, res := range p.Results {
		if res.Kind == pattern.RefNode {
			x.vals[firm.Ref{Node: x.nodes[nodeMap[res.Index]], Result: res.Result}.Index()] = results[ri]
		}
	}
	return nil
}

// FallbackMap describes a target's per-node fallback translation: how
// each IR operation maps to one machine instruction whose operand
// order matches the IR argument order.
type FallbackMap struct {
	// Direct maps an IR op name to a goal name.
	Direct map[string]string
	// Cmp maps an ir.Rel relation to the compare-and-branch goal name.
	Cmp map[int]string
	// Const names the constant-materializing goal (mov.imm, li).
	Const string
}

// X86Fallback returns the x86 fallback table (the historical default
// a Selector uses when FB is nil).
func X86Fallback() *FallbackMap {
	return &FallbackMap{
		Direct: map[string]string{
			"Add": "add", "Sub": "sub", "Mul": "imul",
			"And": "and", "Or": "or", "Eor": "xor",
			"Not": "not", "Minus": "neg",
			"Shl": "shl", "Shr": "shr", "Shrs": "sar",
			"Load": "mov.load.b", "Store": "mov.store.b",
			"Mux": "cmov",
		},
		Cmp: map[int]string{
			ir.RelEq: "cmp.je", ir.RelNe: "cmp.jne",
			ir.RelSlt: "cmp.jl", ir.RelSle: "cmp.jle",
			ir.RelSgt: "cmp.jg", ir.RelSge: "cmp.jge",
			ir.RelUlt: "cmp.jb", ir.RelUle: "cmp.jbe",
			ir.RelUgt: "cmp.ja", ir.RelUge: "cmp.jae",
		},
		Const: "mov.imm",
	}
}

// x86Fallback is the shared default table (never mutated).
var x86Fallback = X86Fallback()

// emitFallback translates one node directly.
func (x *selection) emitFallback(n *firm.Node) error {
	gi := x.fallbackGoal(n)
	if gi < 0 {
		return fmt.Errorf("isel: %s: no fallback for op %s", x.g.Name, n.Op)
	}
	in := mach.Instr{Goal: gi}
	if n.Op == "Const" {
		in.Args, _ = x.values(1)
		start := len(x.prog.Imms)
		x.pinImm(0, n.Internals[0])
		in.Imms = x.immsSince(start)
	} else {
		// IR argument order matches the machine instruction's operand
		// order for every fallback pair (Cmp's relation internal is
		// carried by the condition code).
		var args []mach.Value
		in.Args, args = x.values(len(n.Args))
		for i, a := range n.Args {
			v := x.vals[firm.Ref{Node: a, Result: n.ArgResult(i)}.Index()]
			if v < 0 {
				return fmt.Errorf("isel: %s: fallback operand v%d not emitted", x.g.Name, a.ID)
			}
			args[i] = v
		}
	}
	var results []mach.Value
	in.Results, results = x.newResults(len(x.prog.Goals[gi].Results))
	x.prog.Instrs = append(x.prog.Instrs, in)
	for r := 0; r < n.NumResults() && r < len(results); r++ {
		x.vals[firm.Ref{Node: n, Result: r}.Index()] = results[r]
	}
	return nil
}
