// Package pattern represents synthesized IR patterns (DAGs of IR
// operations over the goal instruction's arguments) and the rule
// library that aggregates them (§5.5 of the reproduced paper). Patterns
// are reconstructed from CEGIS models by internal/cegis, canonicalized
// for deduplication, serialized to JSON for the pattern database, and
// consumed by the code generator in internal/isel and the test-case
// generator in internal/testgen.
package pattern

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"selgen/internal/bv"
	"selgen/internal/ir"
	"selgen/internal/sem"
)

// RefKind distinguishes pattern-argument references from node-result
// references.
type RefKind int

const (
	// RefArg references the pattern's i-th argument.
	RefArg RefKind = iota
	// RefNode references result Result of node Index.
	RefNode
)

// ValueRef identifies a value source inside a pattern.
type ValueRef struct {
	Kind   RefKind `json:"kind"`
	Index  int     `json:"index"`
	Result int     `json:"result,omitempty"`
}

func (v ValueRef) String() string {
	if v.Kind == RefArg {
		return fmt.Sprintf("a%d", v.Index)
	}
	if v.Result == 0 {
		return fmt.Sprintf("n%d", v.Index)
	}
	return fmt.Sprintf("n%d.%d", v.Index, v.Result)
}

// Node is one IR operation instance in a pattern. Args are in the
// operation's argument order; Internals hold synthesized attribute
// values (e.g. the constant of a Const node or the relation of a Cmp).
type Node struct {
	Op        string     `json:"op"`
	Args      []ValueRef `json:"args,omitempty"`
	Internals []uint64   `json:"internals,omitempty"`
}

// Pattern is a DAG of IR operations implementing a goal instruction.
// Nodes are topologically ordered: a node only references earlier
// nodes.
type Pattern struct {
	// ArgKinds are the pattern's (= goal's) argument kinds.
	ArgKinds []sem.Kind `json:"argKinds"`
	// Nodes in topological order.
	Nodes []Node `json:"nodes"`
	// Results selects the source of each goal result.
	Results []ValueRef `json:"results"`
}

// Size returns the number of IR operations in the pattern.
func (p *Pattern) Size() int { return len(p.Nodes) }

// Validate checks topological ordering and reference ranges against
// the given IR operation set.
func (p *Pattern) Validate(ops []*sem.Instr) error {
	for i, n := range p.Nodes {
		op := ir.ByName(ops, n.Op)
		if op == nil {
			return fmt.Errorf("pattern: node %d references unknown op %q", i, n.Op)
		}
		if len(n.Args) != len(op.Args) {
			return fmt.Errorf("pattern: node %d (%s) has %d args, want %d", i, n.Op, len(n.Args), len(op.Args))
		}
		if len(n.Internals) != len(op.Internals) {
			return fmt.Errorf("pattern: node %d (%s) has %d internals, want %d", i, n.Op, len(n.Internals), len(op.Internals))
		}
		for _, a := range n.Args {
			if err := p.checkRef(a, i, ops); err != nil {
				return fmt.Errorf("pattern: node %d (%s): %w", i, n.Op, err)
			}
		}
	}
	for _, r := range p.Results {
		if err := p.checkRef(r, len(p.Nodes), ops); err != nil {
			return fmt.Errorf("pattern: result: %w", err)
		}
	}
	return nil
}

func (p *Pattern) checkRef(r ValueRef, before int, ops []*sem.Instr) error {
	switch r.Kind {
	case RefArg:
		if r.Index < 0 || r.Index >= len(p.ArgKinds) {
			return fmt.Errorf("argument index %d out of range", r.Index)
		}
	case RefNode:
		if r.Index < 0 || r.Index >= before {
			return fmt.Errorf("node reference %d violates topological order (< %d)", r.Index, before)
		}
		op := ir.ByName(ops, p.Nodes[r.Index].Op)
		if op == nil {
			return fmt.Errorf("reference to unknown op")
		}
		if r.Result < 0 || r.Result >= len(op.Results) {
			return fmt.Errorf("result index %d out of range for %s", r.Result, op.Name)
		}
	default:
		return fmt.Errorf("bad ref kind %d", r.Kind)
	}
	return nil
}

// Semantics builds the pattern's term semantics over the given argument
// terms: the result terms, the conjoined precondition P+ (§5.1), and
// the conjoined memory-validity condition V+ ⊆ V.
func (p *Pattern) Semantics(ctx *sem.Ctx, ops []*sem.Instr, va []*bv.Term) (results []*bv.Term, pre, memOK *bv.Term) {
	b := ctx.B
	pre = b.BoolConst(true)
	memOK = b.BoolConst(true)
	nodeRes := make([][]*bv.Term, len(p.Nodes))
	resolve := func(r ValueRef) *bv.Term {
		if r.Kind == RefArg {
			return va[r.Index]
		}
		return nodeRes[r.Index][r.Result]
	}
	for i, n := range p.Nodes {
		op := ir.ByName(ops, n.Op)
		if op == nil {
			panic(fmt.Sprintf("pattern: unknown op %q", n.Op))
		}
		args := make([]*bv.Term, len(n.Args))
		for j, a := range n.Args {
			args[j] = resolve(a)
		}
		ints := make([]*bv.Term, len(n.Internals))
		for j, v := range n.Internals {
			ints[j] = b.Const(v, ctx.Width)
		}
		eff := op.Apply(ctx, args, ints)
		nodeRes[i] = eff.Results
		if eff.Pre != nil {
			pre = b.And(pre, eff.Pre)
		}
		if eff.MemOK != nil {
			memOK = b.And(memOK, eff.MemOK)
		}
	}
	results = make([]*bv.Term, len(p.Results))
	for i, r := range p.Results {
		results[i] = resolve(r)
	}
	return results, pre, memOK
}

// Eval runs the pattern on concrete inputs with an optional concrete
// memory (nil for pure patterns); it returns the concrete results.
// Used by the test generator and the simulated compilers.
func (p *Pattern) Eval(ops []*sem.Instr, width int, mem sem.Mem, args []uint64) []uint64 {
	b := bv.NewBuilder()
	ctx := &sem.Ctx{B: b, Width: width, Mem: mem}
	va := make([]*bv.Term, len(args))
	for i, a := range args {
		sort := ctx.SortOf(p.ArgKinds[i])
		va[i] = b.Const(a, sort.Width)
	}
	res, _, _ := p.Semantics(ctx, ops, va)
	out := make([]uint64, len(res))
	for i, r := range res {
		out[i] = bv.Eval(r, nil)
	}
	return out
}

// commutativeOps lists IR operations whose two value arguments commute;
// canonicalization orders their arguments to merge mirror-image
// patterns (§5.5 duplicate filtering).
var commutativeOps = map[string]bool{
	"Add": true, "Mul": true, "And": true, "Or": true, "Eor": true,
}

// Commutative reports whether the IR operation's two value arguments
// commute. Canon merges a pattern with its mirror images over these
// operations, and the synthesis encoding enumerates one orientation.
func Commutative(op string) bool { return commutativeOps[op] }

// Canon returns a canonical fingerprint of the pattern: mirror images
// of commutative operations map to the same string. Patterns with equal
// fingerprints are duplicates.
func (p *Pattern) Canon() string {
	var sb strings.Builder
	for i, n := range p.Nodes {
		fmt.Fprintf(&sb, "n%d=%s(", i, n.Op)
		args := make([]string, len(n.Args))
		for j, a := range n.Args {
			args[j] = a.String()
		}
		if commutativeOps[n.Op] && len(args) == 2 && args[1] < args[0] {
			args[0], args[1] = args[1], args[0]
		}
		sb.WriteString(strings.Join(args, ","))
		sb.WriteByte(')')
		for _, v := range n.Internals {
			fmt.Fprintf(&sb, "[%d]", v)
		}
		sb.WriteByte(';')
	}
	sb.WriteString("out=")
	for i, r := range p.Results {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(r.String())
	}
	return sb.String()
}

// String renders the pattern human-readably, e.g.
// "n0=And(a0,a1); out=n0".
func (p *Pattern) String() string { return p.Canon() }

// Rule pairs a goal machine instruction with one of its IR patterns.
type Rule struct {
	// Goal is the machine instruction's name.
	Goal string `json:"goal"`
	// GoalCost is the instruction's selection cost.
	GoalCost int `json:"goalCost"`
	// Cost is the total cycle cost of the IR multiset the pattern was
	// synthesized from (sum of CostOrDefault over the pattern's nodes).
	// Zero means the rule predates cost-aware synthesis; use
	// Pattern.CycleCost to recompute it.
	Cost int `json:"cost,omitempty"`
	// Pattern is the IR pattern implementing the goal.
	Pattern Pattern `json:"pattern"`
}

// CycleCost sums the cycle costs of the pattern's nodes under the given
// IR operation set (unknown operations count as the default cost 1).
// Because the synthesizer emits exactly one node per multiset
// component, this equals the originating multiset's total cost.
func (p *Pattern) CycleCost(ops []*sem.Instr) int {
	total := 0
	for _, n := range p.Nodes {
		if op := ir.ByName(ops, n.Op); op != nil {
			total += op.CostOrDefault()
		} else {
			total++
		}
	}
	return total
}

// Specificity orders rules for the greedy matcher: larger patterns
// first (more IR operations covered per machine instruction), then
// lower goal cost.
func (r *Rule) Specificity() int { return r.Pattern.Size() }

// Library is the pattern database: the set of synthesized rules.
type Library struct {
	// Width is the word width the rules were synthesized at.
	Width int `json:"width"`
	// Rules holds all (goal, pattern) pairs.
	Rules []Rule `json:"rules"`
}

// Add appends a rule.
func (l *Library) Add(r Rule) { l.Rules = append(l.Rules, r) }

// Dedup removes duplicated patterns per goal (commutative mirror images
// and repeats from aggregated runs). The survivor keeps the first
// occurrence's position but is the lowest-cost duplicate, with the
// smaller strict fingerprint breaking cost ties — so journal-replayed
// and freshly synthesized libraries dedup to identical stores
// regardless of aggregation order. It reports how many rules were
// dropped.
func (l *Library) Dedup() int {
	idx := make(map[string]int)
	kept := l.Rules[:0]
	dropped := 0
	for _, r := range l.Rules {
		key := r.Goal + "|" + r.Pattern.Canon()
		if at, ok := idx[key]; ok {
			dropped++
			cur := &kept[at]
			if r.Cost < cur.Cost ||
				(r.Cost == cur.Cost && r.Pattern.exactKey() < cur.Pattern.exactKey()) {
				*cur = r
			}
			continue
		}
		idx[key] = len(kept)
		kept = append(kept, r)
	}
	l.Rules = kept
	return dropped
}

// SortCanonical orders each goal's rules by cost, then size, then
// strict fingerprint, and gathers them at the position of the goal's
// first rule, so goals keep their order. After Dedup a goal holds no
// two rules with one fingerprint, so the order is total and the
// library's bytes depend only on its rule set, not on the order in
// which a search found the rules.
func (l *Library) SortCanonical() {
	first := make(map[string]int)
	type keyed struct {
		goal, cost, size int
		exact            string
		rule             Rule
	}
	ks := make([]keyed, len(l.Rules))
	for i, r := range l.Rules {
		if _, ok := first[r.Goal]; !ok {
			first[r.Goal] = i
		}
		ks[i] = keyed{goal: first[r.Goal], cost: r.Cost, size: r.Pattern.Size(),
			exact: r.Pattern.exactKey(), rule: r}
	}
	sort.Slice(ks, func(i, j int) bool {
		a, b := &ks[i], &ks[j]
		if a.goal != b.goal {
			return a.goal < b.goal
		}
		if a.cost != b.cost {
			return a.cost < b.cost
		}
		if a.size != b.size {
			return a.size < b.size
		}
		return a.exact < b.exact
	})
	for i := range ks {
		l.Rules[i] = ks[i].rule
	}
}

// immArgs counts KindImm pattern arguments; rules that bind immediates
// are preferred among same-size rules (they absorb a Const node).
func (r *Rule) immArgs() int {
	c := 0
	for _, k := range r.Pattern.ArgKinds {
		if k == sem.KindImm {
			c++
		}
	}
	return c
}

// exactKey is a strict syntactic fingerprint (no commutative
// canonicalization), used when expanding orientation variants.
func (p *Pattern) exactKey() string {
	var sb strings.Builder
	for i, n := range p.Nodes {
		fmt.Fprintf(&sb, "n%d=%s(", i, n.Op)
		for j, a := range n.Args {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(a.String())
		}
		sb.WriteByte(')')
		for _, v := range n.Internals {
			fmt.Fprintf(&sb, "[%d]", v)
		}
		sb.WriteByte(';')
	}
	for _, r := range p.Results {
		sb.WriteString(r.String())
	}
	return sb.String()
}

// ExpandCommutative returns a library with both argument orientations
// of every commutative operation, so a purely syntactic matcher can
// match either order. The pattern database itself stays deduplicated
// (§5.5); selectors expand on load.
func (l *Library) ExpandCommutative() *Library {
	out := &Library{Width: l.Width}
	seen := make(map[string]bool)
	for _, r := range l.Rules {
		for _, v := range commutativeVariants(r.Pattern) {
			key := r.Goal + "|" + v.exactKey()
			if seen[key] {
				continue
			}
			seen[key] = true
			out.Add(Rule{Goal: r.Goal, GoalCost: r.GoalCost, Cost: r.Cost, Pattern: v})
		}
	}
	return out
}

// commutativeVariants enumerates all argument orientations of the
// pattern's commutative binary nodes.
func commutativeVariants(p Pattern) []Pattern {
	var idxs []int
	for i, n := range p.Nodes {
		if commutativeOps[n.Op] && len(n.Args) == 2 {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) > 6 {
		idxs = idxs[:6] // bound the expansion; larger patterns are rare
	}
	var out []Pattern
	for mask := 0; mask < 1<<len(idxs); mask++ {
		v := Pattern{
			ArgKinds: p.ArgKinds,
			Nodes:    make([]Node, len(p.Nodes)),
			Results:  p.Results,
		}
		copy(v.Nodes, p.Nodes)
		for b, ni := range idxs {
			if mask>>b&1 == 1 {
				n := v.Nodes[ni]
				args := []ValueRef{n.Args[1], n.Args[0]}
				n.Args = args
				v.Nodes[ni] = n
			}
		}
		out = append(out, v)
	}
	return out
}

// SortBySpecificity orders rules from more specific to less specific
// (the code generator tries them in order, §5.6): larger patterns
// first, then immediate-binding rules, then cheaper goals, then
// cheaper patterns. The remaining ties are broken by goal name and
// pattern fingerprints, making the order a strict total order: the
// sorted library — and hence isel.Select output — is identical no
// matter what order rules were inserted in (aggregated runs, journal
// replay, permuted merges).
func (l *Library) SortBySpecificity() {
	type keyed struct {
		spec, imm, goalCost, cost int
		goal, canon, exact        string
		rule                      Rule
	}
	ks := make([]keyed, len(l.Rules))
	for i, r := range l.Rules {
		ks[i] = keyed{
			spec:     r.Specificity(),
			imm:      r.immArgs(),
			goalCost: r.GoalCost,
			cost:     r.Cost,
			goal:     r.Goal,
			canon:    r.Pattern.Canon(),
			exact:    r.Pattern.exactKey(),
			rule:     r,
		}
	}
	sort.Slice(ks, func(i, j int) bool {
		a, b := &ks[i], &ks[j]
		if a.spec != b.spec {
			return a.spec > b.spec
		}
		if a.imm != b.imm {
			return a.imm > b.imm
		}
		if a.goalCost != b.goalCost {
			return a.goalCost < b.goalCost
		}
		if a.cost != b.cost {
			return a.cost < b.cost
		}
		if a.goal != b.goal {
			return a.goal < b.goal
		}
		if a.canon != b.canon {
			return a.canon < b.canon
		}
		return a.exact < b.exact
	})
	for i := range ks {
		l.Rules[i] = ks[i].rule
	}
}

// ByGoal returns the rules for one goal instruction.
func (l *Library) ByGoal(goal string) []Rule {
	var out []Rule
	for _, r := range l.Rules {
		if r.Goal == goal {
			out = append(out, r)
		}
	}
	return out
}

// Goals returns the distinct goal names, sorted.
func (l *Library) Goals() []string {
	set := make(map[string]bool)
	for _, r := range l.Rules {
		set[r.Goal] = true
	}
	out := make([]string, 0, len(set))
	for g := range set {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// MaxPatternSize returns the largest pattern size in the library.
func (l *Library) MaxPatternSize() int {
	m := 0
	for _, r := range l.Rules {
		if s := r.Pattern.Size(); s > m {
			m = s
		}
	}
	return m
}

// Save writes the library as JSON.
func (l *Library) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(l)
}

// Load reads a library from JSON.
func Load(r io.Reader) (*Library, error) {
	var l Library
	if err := json.NewDecoder(r).Decode(&l); err != nil {
		return nil, fmt.Errorf("pattern: loading library: %w", err)
	}
	return &l, nil
}
