package driver

import (
	"fmt"
	"io"
	"time"

	"selgen/internal/ir"
	"selgen/internal/isel"
	"selgen/internal/obs"
	"selgen/internal/pattern"
	"selgen/internal/spec"
	"selgen/internal/target"
)

// SelectionReport is what SelectionCheck learned about a freshly
// synthesized library: how much of the workload it covers, what the
// selected code costs, and how much matching effort the compiled
// selector spent.
type SelectionReport struct {
	Coverage isel.Coverage
	Effort   SelEffort
	// Graphs is the workload size; Cycles the simulated cycle total of
	// all selected programs (the cross-target cost yardstick: same IR
	// workload, different ISAs).
	Graphs int
	Cycles int64
}

// MeanCycles is the mean simulated cycle cost per selected graph.
func (r *SelectionReport) MeanCycles() float64 {
	if r.Graphs == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Graphs)
}

// SelectionCheck compiles lib into a selector for the given target
// (nil = x86) and selects the whole synthetic Table 1 workload with it
// (fallback on). A non-nil tracer receives the isel.* counters and
// per-graph selection spans, so a `selgen -trace` run that passes its
// tracer here gets selection alongside synthesis in the same timeline.
func SelectionCheck(lib *pattern.Library, tgt *target.Target, width int, seed int64, tr *obs.Tracer) (*SelectionReport, error) {
	if tgt == nil {
		tgt = target.X86()
	}
	sel := tgt.NewSelector(lib, true)
	sel.Obs = tr
	ops := ir.Ops()
	rep := &SelectionReport{}
	start := time.Now()
	for _, prof := range spec.Profiles() {
		for _, g := range spec.Generate(prof, width, ops, seed) {
			prog, cov, err := sel.Select(g)
			if err != nil {
				return nil, fmt.Errorf("driver: selection check: %s: %w", g.Name, err)
			}
			rep.Coverage.Add(cov)
			rep.Graphs++
			rep.Cycles += int64(prog.Cycles())
		}
	}
	rep.Effort = SelEffort{
		Rules:     sel.Compiled.NumRules(),
		RealNodes: rep.Coverage.Total,
		Stats:     sel.Stats(),
		Time:      time.Since(start),
	}
	return rep, nil
}

// Write renders a one-paragraph summary.
func (r *SelectionReport) Write(w io.Writer) {
	fmt.Fprintf(w, "selection check: %.2f%% coverage (%d covered, %d fallback of %d ops); %.1f mean cycles/graph; %d rules compiled, %.2f rules tried/node, %.2f trie visits/node, %s\n",
		100*r.Coverage.Ratio(), r.Coverage.Covered, r.Coverage.Fallback, r.Coverage.Total,
		r.MeanCycles(),
		r.Effort.Rules, r.Effort.RulesTriedPerNode(), r.Effort.TrieVisitsPerNode(),
		r.Effort.Time.Round(time.Millisecond))
}
