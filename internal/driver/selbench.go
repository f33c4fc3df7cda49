package driver

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"selgen/internal/firm"
	"selgen/internal/ir"
	"selgen/internal/isel"
	"selgen/internal/pattern"
	"selgen/internal/spec"
	"selgen/internal/target"
)

// IselBenchPoint is one library size in the selection-time scaling
// curve (BENCH_isel.json).
type IselBenchPoint struct {
	// Name labels the library ("hand+pad:100", "basic", "full", ...).
	Name string `json:"name"`
	// Rules is the pre-expansion library size; CompiledRules the
	// commutatively expanded count the matchers actually see.
	Rules         int `json:"rules"`
	CompiledRules int `json:"compiledRules"`
	// NsPerNode and RulesPerNode describe the indexed (trie) matcher.
	NsPerNode    float64 `json:"nsPerNode"`
	RulesPerNode float64 `json:"rulesPerNode"`
	// TrieVisitsPerNode is the mean trie-walk cost per node.
	TrieVisitsPerNode float64 `json:"trieVisitsPerNode"`
	// LinearNsPerNode and LinearRulesPerNode describe the legacy
	// shape-blind scan over the same library.
	LinearNsPerNode    float64 `json:"linearNsPerNode"`
	LinearRulesPerNode float64 `json:"linearRulesPerNode"`
	// VsHandwritten is indexed selection time over the handwritten
	// baseline's (same workload, same matcher machinery).
	VsHandwritten float64 `json:"vsHandwritten"`
	// LinearVsHandwritten is the same factor for the linear scan.
	LinearVsHandwritten float64 `json:"linearVsHandwritten"`
}

// IselBench is the full selection-time benchmark (BENCH_isel.json).
// Every per-node figure divides by Nodes, the suite's real IR node
// count, which does not depend on the library (isel.SelStats.Nodes
// counts only the nodes that reach the matcher, so it does).
type IselBench struct {
	Width int `json:"width"`
	// Workload identifies the graph suite; Graphs and Nodes its size
	// (Σ firm.Graph.NumRealNodes).
	Workload string `json:"workload"`
	Graphs   int    `json:"graphs"`
	Nodes    int64  `json:"nodes"`
	// HandNsPerNode is the handwritten baseline (indexed matcher at the
	// handwritten library's natural size).
	HandNsPerNode float64          `json:"handNsPerNode"`
	Points        []IselBenchPoint `json:"points"`
}

// selBenchSizes are the padded-library sizes of the scaling curve.
var selBenchSizes = []int{10, 100, 1000}

// measureSelection runs sel over the workload reps times and returns
// the best-of wall time plus per-node effort.
func measureSelection(sel *isel.Selector, graphs []*firm.Graph, reps int) (time.Duration, isel.SelStats, error) {
	var best time.Duration
	for r := 0; r < reps; r++ {
		start := time.Now()
		for _, g := range graphs {
			if _, _, err := sel.Select(g); err != nil {
				return 0, isel.SelStats{}, fmt.Errorf("iselbench: %s: %w", g.Name, err)
			}
		}
		if d := time.Since(start); r == 0 || d < best {
			best = d
		}
	}
	st := sel.Stats()
	// Stats accumulate across reps; scale back to one pass.
	st.Nodes /= int64(reps)
	st.RulesTried /= int64(reps)
	st.TrieVisits /= int64(reps)
	st.Matches /= int64(reps)
	st.Fallbacks /= int64(reps)
	return best, st, nil
}

// RunIselBench measures selection time and matching effort as the rule
// library grows: the target's handwritten library padded with
// never-matching rules to 10/100/1000 (see isel.PadLibrary), plus the
// synthesized basic and full libraries when given (either may be nil).
// A nil target means x86. Each library is measured with the indexed
// matcher and with the legacy linear scan, so the JSON tracks both the
// trajectory and the speedup.
func RunIselBench(tgt *target.Target, width int, seed int64, basicLib, fullLib *pattern.Library, reps int) (*IselBench, error) {
	if reps < 1 {
		reps = 1
	}
	if tgt == nil {
		tgt = target.X86()
	}
	ops := ir.Ops()
	var graphs []*firm.Graph
	for _, prof := range spec.Profiles() {
		graphs = append(graphs, spec.Generate(prof, width, ops, seed)...)
	}

	b := &IselBench{Width: width, Workload: "table1", Graphs: len(graphs)}
	for _, g := range graphs {
		b.Nodes += int64(g.NumRealNodes())
	}
	if b.Nodes == 0 {
		return nil, fmt.Errorf("iselbench: workload has no selectable nodes")
	}
	nodes := float64(b.Nodes)

	hand := tgt.Handwritten(width)
	handSel := tgt.NewSelector(hand, true)
	handTime, _, err := measureSelection(handSel, graphs, reps)
	if err != nil {
		return nil, err
	}
	b.HandNsPerNode = float64(handTime.Nanoseconds()) / nodes

	type entry struct {
		name string
		lib  *pattern.Library
	}
	var entries []entry
	for _, n := range selBenchSizes {
		entries = append(entries, entry{fmt.Sprintf("hand+pad:%d", n), isel.PadLibrary(hand, width, n)})
	}
	if basicLib != nil {
		entries = append(entries, entry{"basic", basicLib})
	}
	if fullLib != nil {
		entries = append(entries, entry{"full", fullLib})
	}

	for _, e := range entries {
		sel := tgt.NewSelector(e.lib, true)
		lin := tgt.NewSelector(e.lib, true)
		lin.Linear = true
		t, st, err := measureSelection(sel, graphs, reps)
		if err != nil {
			return nil, fmt.Errorf("%s (indexed): %w", e.name, err)
		}
		lt, lst, err := measureSelection(lin, graphs, reps)
		if err != nil {
			return nil, fmt.Errorf("%s (linear): %w", e.name, err)
		}
		b.Points = append(b.Points, IselBenchPoint{
			Name:                e.name,
			Rules:               len(e.lib.Rules),
			CompiledRules:       sel.Compiled.NumRules(),
			NsPerNode:           float64(t.Nanoseconds()) / nodes,
			RulesPerNode:        float64(st.RulesTried) / nodes,
			TrieVisitsPerNode:   float64(st.TrieVisits) / nodes,
			LinearNsPerNode:     float64(lt.Nanoseconds()) / nodes,
			LinearRulesPerNode:  float64(lst.RulesTried) / nodes,
			VsHandwritten:       float64(t) / float64(handTime),
			LinearVsHandwritten: float64(lt) / float64(handTime),
		})
	}
	return b, nil
}

// WriteJSON writes the benchmark as indented JSON (BENCH_isel.json).
func (b *IselBench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// Write renders a human-readable summary.
func (b *IselBench) Write(w io.Writer) {
	fmt.Fprintf(w, "selection benchmark: %d graphs, %d nodes, handwritten %.0f ns/node\n",
		b.Graphs, b.Nodes, b.HandNsPerNode)
	fmt.Fprintf(w, "%-14s %7s %9s %14s %14s %14s %12s %12s\n",
		"library", "rules", "compiled", "ns/node", "rules/node", "linear ns/nd", "vs-hand", "linear vs-h")
	for _, p := range b.Points {
		fmt.Fprintf(w, "%-14s %7d %9d %14.0f %14.2f %14.0f %11.2fx %11.2fx\n",
			p.Name, p.Rules, p.CompiledRules, p.NsPerNode, p.RulesPerNode,
			p.LinearNsPerNode, p.VsHandwritten, p.LinearVsHandwritten)
	}
}
