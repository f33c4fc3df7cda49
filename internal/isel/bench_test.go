package isel

import (
	"fmt"
	"testing"

	"selgen/internal/ir"
	"selgen/internal/spec"
	"selgen/internal/x86"
)

// BenchmarkSelectWorkload measures greedy selection throughput with the
// handwritten library over one synthetic benchmark's graphs.
func BenchmarkSelectWorkload(b *testing.B) {
	goals := x86.Registry()
	prof, err := spec.ProfileByName("164.gzip")
	if err != nil {
		b.Fatal(err)
	}
	graphs := spec.Generate(prof, 8, ir.Ops(), 7)
	sel := New(HandwrittenLibrary(8), goals, true)
	// Warm the expanded, sorted library.
	if _, _, err := sel.Select(graphs[0]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	nodes := 0
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			if _, cov, err := sel.Select(g); err != nil {
				b.Fatal(err)
			} else {
				nodes += cov.Total
			}
		}
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}

// benchSelectAtSize measures selection throughput with the handwritten
// library padded (or truncated) to n rules, with either the indexed
// matcher or the legacy linear scan.
func benchSelectAtSize(b *testing.B, n int, linear bool) {
	goals := x86.Registry()
	prof, err := spec.ProfileByName("164.gzip")
	if err != nil {
		b.Fatal(err)
	}
	graphs := spec.Generate(prof, 8, ir.Ops(), 7)
	sel := New(PadLibrary(HandwrittenLibrary(8), 8, n), goals, true)
	sel.Linear = linear
	b.ResetTimer()
	realNodes := 0
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			_, cov, err := sel.Select(g)
			if err != nil {
				b.Fatal(err)
			}
			realNodes += cov.Total
		}
	}
	b.StopTimer()
	// Per real IR node, the same denominator for every library size.
	b.ReportMetric(float64(sel.Stats().RulesTried)/float64(realNodes), "rules-tried/node")
}

// BenchmarkSelectLibrarySize tracks how per-node selection cost scales
// with library size: the indexed matcher should stay flat while the
// linear oracle grows with the rule count.
func BenchmarkSelectLibrarySize(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("indexed/%d", n), func(b *testing.B) { benchSelectAtSize(b, n, false) })
		b.Run(fmt.Sprintf("linear/%d", n), func(b *testing.B) { benchSelectAtSize(b, n, true) })
	}
}

// BenchmarkExecuteSelected measures the cycle simulator.
func BenchmarkExecuteSelected(b *testing.B) {
	goals := x86.Registry()
	prof, _ := spec.ProfileByName("181.mcf")
	graphs := spec.Generate(prof, 8, ir.Ops(), 7)
	sel := New(HandwrittenLibrary(8), goals, true)
	prog, _, err := sel.Select(graphs[0])
	if err != nil {
		b.Fatal(err)
	}
	params, mems := spec.Inputs(graphs[0], 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Exec(params[0], mems[0]); err != nil {
			b.Fatal(err)
		}
	}
}
