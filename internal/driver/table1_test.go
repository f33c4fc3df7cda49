package driver

import (
	"bytes"
	"strings"
	"testing"

	"selgen/internal/isel"
	"selgen/internal/target"
)

// TestRunTable1WithHandwrittenLibraries exercises the full Table-1
// pipeline cheaply by using the handwritten library for both the
// "basic" and "full" slots: every ratio must then be ≥ ~1 relative to
// itself (exactly 1.0) and coverage well-defined.
func TestRunTable1WithHandwrittenLibraries(t *testing.T) {
	lib := isel.HandwrittenLibrary(8)
	tab, err := RunTable1(nil, 8, 99, lib, lib, nil)
	if err != nil {
		t.Fatalf("RunTable1: %v", err)
	}
	if len(tab.Rows) != 11 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r.BasicRatio != r.FullRatio {
			t.Fatalf("%s: same library must give same ratio (%.3f vs %.3f)",
				r.Benchmark, r.BasicRatio, r.FullRatio)
		}
		if r.Handwritten <= 0 || r.Basic <= 0 {
			t.Fatalf("%s: non-positive runtimes", r.Benchmark)
		}
		if r.BasicRatio < 0.99 || r.BasicRatio > 1.01 {
			t.Fatalf("%s: identical libraries must tie (%.3f)", r.Benchmark, r.BasicRatio)
		}
		if r.Coverage < 0 || r.Coverage > 1 {
			t.Fatalf("%s: coverage out of range: %f", r.Benchmark, r.Coverage)
		}
	}
	var buf bytes.Buffer
	tab.Write(&buf)
	out := buf.String()
	if !strings.Contains(out, "164.gzip") || !strings.Contains(out, "Geom. Mean") {
		t.Fatalf("table rendering:\n%s", out)
	}
}

// TestRunTable1EmptyVsHandwritten checks the expected ordering: an
// empty (fallback-only) library must be slower than the handwritten
// one on every benchmark.
func TestRunTable1EmptyVsHandwritten(t *testing.T) {
	empty := isel.HandwrittenLibrary(8)
	empty.Rules = empty.Rules[:0]
	full := isel.HandwrittenLibrary(8)
	tab, err := RunTable1(nil, 8, 99, empty, full, nil)
	if err != nil {
		t.Fatalf("RunTable1: %v", err)
	}
	for _, r := range tab.Rows {
		if r.BasicRatio <= 1.0 {
			t.Errorf("%s: fallback-only must be slower than handwritten (%.3f)",
				r.Benchmark, r.BasicRatio)
		}
		if r.FullRatio < 0.99 || r.FullRatio > 1.01 {
			t.Errorf("%s: handwritten-vs-handwritten must tie (%.3f)", r.Benchmark, r.FullRatio)
		}
	}
	if tab.GeoMeanBasic <= 1.0 {
		t.Fatalf("geometric mean of fallback-only must exceed 1: %f", tab.GeoMeanBasic)
	}
}

// TestSelectionEffortPerRealNode checks the denominator of the
// per-node effort figures: the workload's real IR nodes (Σ
// NumRealNodes), which do not depend on the library, rather than the
// nodes that reached the matcher, which do. SelectionCheck and the
// Table 1 run must agree on the same library and suite.
func TestSelectionEffortPerRealNode(t *testing.T) {
	hand := target.X86().Handwritten(8)
	rep, err := SelectionCheck(hand, nil, 8, 99, nil)
	if err != nil {
		t.Fatalf("SelectionCheck: %v", err)
	}
	realNodes := 0
	for _, g := range table1Suite(99) {
		realNodes += g.NumRealNodes()
	}
	e := rep.Effort
	if got, want := e.RulesTriedPerNode(), float64(e.Stats.RulesTried)/float64(realNodes); got != want {
		t.Fatalf("rules tried/node %.4f, want %d tried / %d real IR nodes = %.4f",
			got, e.Stats.RulesTried, realNodes, want)
	}
	tab, err := RunTable1(nil, 8, 99, hand, hand, nil)
	if err != nil {
		t.Fatalf("RunTable1: %v", err)
	}
	if got := tab.Sel["hand"].RulesTriedPerNode(); got != e.RulesTriedPerNode() {
		t.Fatalf("Table 1 hand: %.4f rules tried/node, SelectionCheck %.4f", got, e.RulesTriedPerNode())
	}
}
