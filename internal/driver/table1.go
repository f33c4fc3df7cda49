package driver

import (
	"fmt"
	"io"
	"math"
	"time"

	"selgen/internal/ir"
	"selgen/internal/isel"
	"selgen/internal/obs"
	"selgen/internal/pattern"
	"selgen/internal/spec"
	"selgen/internal/target"
)

// Table1Row is one benchmark line of the paper's Table 1.
type Table1Row struct {
	Benchmark string
	// Coverage is the full-library coverage ratio (§7.3).
	Coverage float64
	// Basic, Full, Handwritten are simulated runtimes (cycle units).
	Basic, Full, Handwritten float64
	// BasicRatio, FullRatio are Basic/Handwritten and Full/Handwritten.
	BasicRatio, FullRatio float64
}

// SelEffort summarizes one selector's matching effort across the whole
// workload (the isel.* observability counters plus wall time).
type SelEffort struct {
	// Rules is the compiled (commutatively expanded) rule count.
	Rules int
	// RealNodes is the workload's real IR node count (Σ
	// firm.Graph.NumRealNodes), the denominator of the per-node
	// figures. It is the same for every library; Stats.Nodes counts
	// only the nodes that reach the matcher, so it is not.
	RealNodes int
	// Stats are the cumulative selection counters.
	Stats isel.SelStats
	// Time is total wall time spent inside Select.
	Time time.Duration
}

// RulesTriedPerNode is the mean number of full match attempts per real
// IR node — the metric that must stay sublinear in Rules.
func (e SelEffort) RulesTriedPerNode() float64 {
	return e.perNode(e.Stats.RulesTried)
}

// TrieVisitsPerNode is the mean number of trie nodes visited per real
// IR node.
func (e SelEffort) TrieVisitsPerNode() float64 {
	return e.perNode(e.Stats.TrieVisits)
}

func (e SelEffort) perNode(n int64) float64 {
	if e.RealNodes == 0 {
		return 0
	}
	return float64(n) / float64(e.RealNodes)
}

// Table1 is the whole experiment result.
type Table1 struct {
	Rows []Table1Row
	// GeoMeanCoverage, GeoMeanBasic, GeoMeanFull are the geometric
	// means of the last three columns.
	GeoMeanCoverage, GeoMeanBasic, GeoMeanFull float64
	// CompileBasic and CompileFull are instruction-selection times
	// relative to the handwritten selector (the paper reports 1.66×
	// for basic and 1217–1804× for its 60 000-rule full setup, §7.3).
	CompileBasic, CompileFull float64
	// Sel reports per-selector matching effort, keyed "hand", "basic",
	// "full".
	Sel map[string]SelEffort
}

// RunTable1 compiles every synthetic CINT2000 benchmark with the
// target's handwritten selector and with prototype selectors generated
// from the basic and full libraries, executes the selected code in the
// cycle-cost simulator, verifies all three agree with the IR semantics,
// and tallies runtimes. A nil target means x86. A non-nil tracer
// receives isel.* counters and per-graph selection spans.
func RunTable1(tgt *target.Target, width int, seed int64, basicLib, fullLib *pattern.Library, tr *obs.Tracer) (*Table1, error) {
	if tgt == nil {
		tgt = target.X86()
	}
	ops := ir.Ops()

	// Selectors are built once: New compiles the library eagerly and
	// Select is read-only, so one selector serves every profile (and
	// selection time below measures matching, not library expansion).
	type selEntry struct {
		name string
		sel  *isel.Selector
	}
	mkSel := func(lib *pattern.Library) *isel.Selector {
		s := tgt.NewSelector(lib, true)
		s.Obs = tr
		return s
	}
	sels := []selEntry{
		{"basic", mkSel(basicLib)},
		{"full", mkSel(fullLib)},
		{"hand", mkSel(tgt.Handwritten(width))},
	}

	t := &Table1{}
	sumLogCov, sumLogBasic, sumLogFull := 0.0, 0.0, 0.0
	selTime := map[string]time.Duration{}
	realNodes := 0
	for _, prof := range spec.Profiles() {
		graphs := spec.Generate(prof, width, ops, seed)
		cycles := map[string]float64{}
		var fullCov isel.Coverage
		for _, g := range graphs {
			realNodes += g.NumRealNodes()
			params, mems := spec.Inputs(g, seed, 1)
			ref, err := g.Exec(params[0], mems[0])
			if err != nil {
				return nil, fmt.Errorf("driver: %s: IR execution: %w", g.Name, err)
			}
			for _, se := range sels {
				selStart := time.Now()
				prog, cov, err := se.sel.Select(g)
				selTime[se.name] += time.Since(selStart)
				if err != nil {
					return nil, fmt.Errorf("driver: %s with %s: %w", g.Name, se.name, err)
				}
				if se.name == "full" {
					fullCov.Add(cov)
				}
				got, err := prog.Exec(params[0], mems[0])
				if err != nil {
					return nil, fmt.Errorf("driver: %s with %s: execution: %w", g.Name, se.name, err)
				}
				for i := range ref.Values {
					if ref.Values[i] != got.Values[i] {
						return nil, fmt.Errorf("driver: %s with %s: result %d differs (%#x vs %#x)",
							g.Name, se.name, i, ref.Values[i], got.Values[i])
					}
				}
				cycles[se.name] += float64(prog.Cycles() * prof.Reps)
			}
		}
		row := Table1Row{
			Benchmark:   prof.Name,
			Coverage:    fullCov.Ratio(),
			Basic:       cycles["basic"],
			Full:        cycles["full"],
			Handwritten: cycles["hand"],
		}
		row.BasicRatio = row.Basic / row.Handwritten
		row.FullRatio = row.Full / row.Handwritten
		t.Rows = append(t.Rows, row)
		sumLogCov += math.Log(row.Coverage)
		sumLogBasic += math.Log(row.BasicRatio)
		sumLogFull += math.Log(row.FullRatio)
	}
	n := float64(len(t.Rows))
	t.GeoMeanCoverage = math.Exp(sumLogCov / n)
	t.GeoMeanBasic = math.Exp(sumLogBasic / n)
	t.GeoMeanFull = math.Exp(sumLogFull / n)
	if hand := selTime["hand"]; hand > 0 {
		t.CompileBasic = float64(selTime["basic"]) / float64(hand)
		t.CompileFull = float64(selTime["full"]) / float64(hand)
	}
	t.Sel = map[string]SelEffort{}
	for _, se := range sels {
		t.Sel[se.name] = SelEffort{
			Rules:     se.sel.Compiled.NumRules(),
			RealNodes: realNodes,
			Stats:     se.sel.Stats(),
			Time:      selTime[se.name],
		}
	}
	return t, nil
}

// Write renders the table in the paper's layout (runtimes in simulated
// kilocycles).
func (t *Table1) Write(w io.Writer) {
	fmt.Fprintf(w, "%-14s %9s %12s %12s %12s %10s %10s\n",
		"Benchmark", "Coverage", "Basic", "Full", "Handwritten", "Basic/Hand", "Full/Hand")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-14s %8.2f%% %11.0fk %11.0fk %11.0fk %9.2f%% %9.2f%%\n",
			r.Benchmark, 100*r.Coverage, r.Basic/1000, r.Full/1000, r.Handwritten/1000,
			100*r.BasicRatio, 100*r.FullRatio)
	}
	fmt.Fprintf(w, "%-14s %8.2f%% %12s %12s %12s %9.2f%% %9.2f%%\n",
		"Geom. Mean", 100*t.GeoMeanCoverage, "", "", "", 100*t.GeoMeanBasic, 100*t.GeoMeanFull)
	fmt.Fprintf(w, "selection time vs handwritten: basic %.2fx, full %.2fx\n",
		t.CompileBasic, t.CompileFull)
	for _, name := range []string{"hand", "basic", "full"} {
		e, ok := t.Sel[name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "selection effort %-5s: %5d rules, %.2f rules tried/node, %.2f trie visits/node, %d matches, %d fallbacks\n",
			name, e.Rules, e.RulesTriedPerNode(), e.TrieVisitsPerNode(),
			e.Stats.Matches, e.Stats.Fallbacks)
	}
}
