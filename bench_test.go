// Package selgen_test is the experiment harness: one benchmark per
// table or figure of the reproduced paper's evaluation (§7), plus the
// ablations called out in DESIGN.md. Each benchmark regenerates its
// artifact and prints it; EXPERIMENTS.md records paper-vs-measured.
//
// Run everything with:
//
//	go test -bench=. -benchmem -timeout 4h
//
// Individual experiments:
//
//	go test -bench=Table1 -timeout 1h       # §7.3, Table 1
//	go test -bench=Table2 -timeout 1h       # §7.2, Table 2
//	go test -bench=IterativeVsClassical     # §7.2 comparison experiment
//	go test -bench=Table3                   # §7.4 missing patterns
//	go test -bench=SearchSpace              # §5.4 estimate
//	go test -bench=MemoryEncoding           # §4.1 ablation
package selgen_test

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"selgen/internal/cegis"
	"selgen/internal/driver"
	"selgen/internal/ir"
	"selgen/internal/pattern"
	"selgen/internal/sem"
	"selgen/internal/testgen"
	"selgen/internal/x86"
)

const benchWidth = 8

// benchOpts bounds library synthesis for the benchmarks: generous
// enough for every goal's canonical patterns, small enough that the
// whole harness completes in minutes rather than the paper's 100 hours.
// The pattern cap and the per-query conflict budget bound each goal;
// no wall-clock timeout does, so the libraries, and the Table 1–3
// figures computed from them, do not depend on host load.
func benchOpts() driver.Options {
	return driver.Options{
		Width:              benchWidth,
		MaxPatternsPerGoal: 24,
		QueryConflicts:     100_000,
		Seed:               1,
	}
}

var benchLibs struct {
	sync.Once
	basic, full *pattern.Library
	basicRep    *driver.Report
	fullRep     *driver.Report
	err         error
}

// libraries synthesizes (once) the basic and full rule libraries shared
// by the Table 1, Table 2 and Table 3 benchmarks.
func libraries(b *testing.B) (basic, full *pattern.Library) {
	b.Helper()
	benchLibs.Do(func() {
		fmt.Println("[bench] synthesizing basic library...")
		benchLibs.basic, benchLibs.basicRep, benchLibs.err = driver.Run(driver.BasicSetup(), benchOpts())
		if benchLibs.err != nil {
			return
		}
		fmt.Println("[bench] synthesizing full library (takes a few minutes)...")
		benchLibs.full, benchLibs.fullRep, benchLibs.err = driver.Run(driver.FullSetup(), benchOpts())
	})
	if benchLibs.err != nil {
		b.Fatalf("library synthesis: %v", benchLibs.err)
	}
	return benchLibs.basic, benchLibs.full
}

// BenchmarkTable1SpecCINT regenerates Table 1: coverage and simulated
// runtimes of the basic/full prototype selectors against the
// handwritten selector over the eleven CINT2000-like workloads (E1).
func BenchmarkTable1SpecCINT(b *testing.B) {
	basic, full := libraries(b)
	b.ResetTimer()
	var t *driver.Table1
	var err error
	for i := 0; i < b.N; i++ {
		t, err = driver.RunTable1(nil, benchWidth, 99, basic, full, nil)
		if err != nil {
			b.Fatalf("table 1: %v", err)
		}
	}
	b.StopTimer()
	fmt.Println("\n=== Table 1 (§7.3): runtimes of generated code, simulated cycles ===")
	t.Write(os.Stdout)
	b.ReportMetric(100*t.GeoMeanCoverage, "coverage_%")
	b.ReportMetric(100*t.GeoMeanBasic, "basic/hand_%")
	b.ReportMetric(100*t.GeoMeanFull, "full/hand_%")
}

// BenchmarkTable2SynthesisGroups regenerates Table 2: per-group
// synthesis time, goal count, pattern count and maximum size (E2).
func BenchmarkTable2SynthesisGroups(b *testing.B) {
	libraries(b) // ensures the shared reports exist
	b.ResetTimer()
	b.StopTimer()
	fmt.Println("\n=== Table 2 (§7.2): synthesis time per instruction group ===")
	fmt.Println("basic setup:")
	benchLibs.basicRep.WriteTable(os.Stdout)
	fmt.Println("full setup:")
	benchLibs.fullRep.WriteTable(os.Stdout)
	b.ReportMetric(float64(benchLibs.fullRep.Total.Patterns), "patterns")
	b.ReportMetric(float64(benchLibs.fullRep.Total.Goals), "goals")
	b.ReportMetric(benchLibs.fullRep.Total.Elapsed.Seconds(), "synth_s")
	// The benchmark must do work proportional to b.N for the harness:
	// re-synthesize the (cheap) BMI group.
	b.StartTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := driver.Run(driver.BMISetup(), benchOpts()); err != nil {
			b.Fatalf("bmi group: %v", err)
		}
	}
}

// BenchmarkIterativeVsClassicalCEGIS reproduces the §7.2 comparison:
// synthesizing add-with-memory-operand takes seconds with iterative
// CEGIS but does not finish with classical CEGIS over the oversupplied
// component pool (the paper: 5 s vs >64 h; here the classical run is
// cut off by a conflict budget) (E3).
func BenchmarkIterativeVsClassicalCEGIS(b *testing.B) {
	goal := x86.BinMemSrc(x86.AddInstr(), x86.AM{Base: true})

	b.Run("iterative", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := cegis.New(ir.Ops(), cegis.Config{Width: benchWidth, MaxLen: 2, Seed: 1})
			res, err := e.Synthesize(goal)
			if err != nil {
				b.Fatalf("iterative: %v", err)
			}
			if len(res.Patterns) == 0 {
				b.Fatalf("iterative found no pattern")
			}
		}
	})

	b.Run("classical", func(b *testing.B) {
		// Classical CEGIS: one big multiset with every operation
		// supplied twice (2×16 components, as in the paper's 2×21
		// example). A two-minute wall-clock cutoff stands in for the
		// paper's 64-hour one; finding nothing within it is the
		// expected result (the paper's run also never finished).
		var pool []*sem.Instr
		for i := 0; i < 2; i++ {
			pool = append(pool, ir.Ops()...)
		}
		for i := 0; i < b.N; i++ {
			e := cegis.New(ir.Ops(), cegis.Config{
				Width: benchWidth, Seed: 1,
				QueryConflicts:     400_000,
				MaxPatternsPerGoal: 1,
				Deadline:           time.Now().Add(2 * time.Minute),
			})
			ps, err := e.CEGISAllPatterns(pool, goal)
			if err != nil && !errors.Is(err, cegis.ErrDeadline) {
				b.Fatalf("classical: %v", err)
			}
			if errors.Is(err, cegis.ErrDeadline) || e.Stats.QueryTimeouts > 0 {
				b.ReportMetric(1, "timed_out")
			}
			b.ReportMetric(float64(len(ps)), "patterns")
		}
	})
}

// BenchmarkTable3MissingPatterns regenerates the §7.4 comparison: every
// full-library pattern becomes a test case; the simulated GCC and Clang
// comparators compile each; unsupported counts are tallied (E4).
func BenchmarkTable3MissingPatterns(b *testing.B) {
	_, full := libraries(b)
	b.ResetTimer()
	var rep *testgen.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = testgen.Run(full, ir.Ops(), testgen.Comparators(benchWidth))
		if err != nil {
			b.Fatalf("testgen: %v", err)
		}
	}
	b.StopTimer()
	fmt.Println("\n=== §7.4: missing patterns in the simulated comparators ===")
	fmt.Print(rep.Summary())
	fmt.Printf("unsupported by both gcc and clang: %d\n", rep.MissedBy("gcc", "clang"))
	b.ReportMetric(float64(len(rep.Cases)), "cases")
	b.ReportMetric(float64(rep.Missing["gcc"]), "gcc_missing")
	b.ReportMetric(float64(rep.Missing["clang"]), "clang_missing")
	b.ReportMetric(float64(rep.MissedBy("gcc", "clang")), "both_missing")
}

// BenchmarkSearchSpaceEstimate regenerates the §5.4 search-space
// comparison: |I| = 21, ℓmax = 7 gives ≈2^65 arrangements for classical
// CEGIS and ≈2^32 for iterative CEGIS (E5).
func BenchmarkSearchSpaceEstimate(b *testing.B) {
	var classical, iterative float64
	for i := 0; i < b.N; i++ {
		classical = cegis.Log2(cegis.ClassicalSearchSpace(21))
		iterative = cegis.Log2(cegis.IterativeSearchSpace(21, 7))
	}
	fmt.Printf("\n=== §5.4 search-space estimate: classical ≈ 2^%.1f, iterative ≈ 2^%.1f ===\n",
		classical, iterative)
	b.ReportMetric(classical, "classical_log2")
	b.ReportMetric(iterative, "iterative_log2")
}

// BenchmarkMemoryEncodingAblation compares the paper's valid-pointer
// M-value encoding against the naive reduced-address-space encoding on
// the memory goals (E6). The paper reports the array-theory route ran
// out of memory entirely; here the naive route is merely much slower.
func BenchmarkMemoryEncodingAblation(b *testing.B) {
	// Width 6 so the naive encoding can model 8 cells (8×7 = 56 bits):
	// the M-value then muxes over 8 slots on every access, versus 1
	// slot under the valid-pointer analysis.
	const ablWidth = 6
	goals := []*sem.Instr{
		x86.MovLoad(x86.AM{Base: true}),
		x86.MovStore(x86.AM{Base: true}),
		x86.BinMemSrc(x86.AddInstr(), x86.AM{Base: true}),
		x86.BinMemDst(x86.AddInstr(), x86.AM{Base: true}),
	}
	run := func(b *testing.B, naiveSlots int) {
		patterns := 0
		for i := 0; i < b.N; i++ {
			patterns = 0
			for _, g := range goals {
				e := cegis.New(ir.Ops(), cegis.Config{
					Width: ablWidth, MaxLen: 3, Seed: 1,
					NaiveMemSlots:      naiveSlots,
					MaxPatternsPerGoal: 8,
					QueryConflicts:     200_000,
					Deadline:           time.Now().Add(3 * time.Minute),
				})
				res, err := e.Synthesize(g)
				if err != nil && !errors.Is(err, cegis.ErrDeadline) {
					b.Fatalf("%s: %v", g.Name, err)
				}
				patterns += len(res.Patterns)
			}
		}
		b.ReportMetric(float64(patterns), "patterns")
	}
	b.Run("valid-pointers", func(b *testing.B) { run(b, 0) })
	b.Run("naive-address-space", func(b *testing.B) { run(b, 8) })
}

// BenchmarkPruningAblation measures the §5.4 skip criteria: multisets
// tried with and without pruning for one memory goal.
func BenchmarkPruningAblation(b *testing.B) {
	// cmp.js needs ℓ = 3 (Cmp[slt](Sub(x,y), Const 0)), so the
	// enumeration sweeps all 3-multisets; pruning skips those that
	// cannot source a Bool result or feed memory operations.
	goal := x86.CmpJcc(x86.CCS)
	run := func(b *testing.B, disable bool) {
		var tried int64
		for i := 0; i < b.N; i++ {
			e := cegis.New(ir.Ops(), cegis.Config{
				Width: benchWidth, MaxLen: 3, Seed: 1, DisablePruning: disable,
			})
			if _, err := e.Synthesize(goal); err != nil {
				b.Fatalf("synthesize: %v", err)
			}
			tried = e.Stats.MultisetsTried
		}
		b.ReportMetric(float64(tried), "multisets")
	}
	b.Run("pruned", func(b *testing.B) { run(b, false) })
	b.Run("unpruned", func(b *testing.B) { run(b, true) })
}

// BenchmarkSimplifierAblation measures the bv rewriting simplifier's
// effect on synthesis (DESIGN.md ablation list).
func BenchmarkSimplifierAblation(b *testing.B) {
	goal := x86.Andn()
	run := func(b *testing.B, disable bool) {
		for i := 0; i < b.N; i++ {
			e := cegis.New(ir.Ops(), cegis.Config{
				Width: benchWidth, MaxLen: 2, Seed: 1, DisableTermSimplify: disable,
			})
			if _, err := e.Synthesize(goal); err != nil {
				b.Fatalf("synthesize: %v", err)
			}
		}
	}
	b.Run("simplified", func(b *testing.B) { run(b, false) })
	b.Run("unsimplified", func(b *testing.B) { run(b, true) })
}

// BenchmarkAndnIntroExample times the paper's introductory example
// (E7): enumerating all minimal patterns of andn.
func BenchmarkAndnIntroExample(b *testing.B) {
	var count int
	for i := 0; i < b.N; i++ {
		e := cegis.New(ir.Ops(), cegis.Config{Width: benchWidth, MaxLen: 2, Seed: 1})
		res, err := e.Synthesize(x86.Andn())
		if err != nil {
			b.Fatalf("andn: %v", err)
		}
		count = len(res.Patterns)
	}
	b.ReportMetric(float64(count), "patterns")
}

// quickstartGoals is the goal set of examples/quickstart plus a
// representative sample of the other groups (memory operand, flags),
// used by the incremental-CEGIS benchmarks below.
func quickstartGoals() []*sem.Instr {
	return []*sem.Instr{
		x86.Inc(),
		x86.Andn(),
		x86.AddInstr(),
		x86.BinMemSrc(x86.AddInstr(), x86.AM{Base: true}),
		x86.CmpJcc(x86.CCB),
	}
}

func benchCEGIS(b *testing.B, disable bool) {
	goals := quickstartGoals()
	for i := 0; i < b.N; i++ {
		for _, g := range goals {
			e := cegis.New(ir.Ops(), cegis.Config{
				Width: benchWidth, MaxLen: 2, Seed: 1,
				QueryConflicts:     200_000,
				DisableIncremental: disable,
			})
			res, err := e.Synthesize(g)
			if err != nil {
				b.Fatalf("%s: %v", g.Name, err)
			}
			if len(res.Patterns) == 0 {
				b.Fatalf("%s: no patterns", g.Name)
			}
		}
	}
}

// BenchmarkCEGISIncremental times the incremental pipeline (persistent
// per-goal solver contexts, shared term builder, lazy seed promotion,
// counterexample carry-forward with concrete prefiltering) on the
// quickstart goal set at width 8. Compare against BenchmarkCEGISFresh;
// TestIncrementalEquivalence in internal/cegis proves both modes emit
// identical libraries.
func BenchmarkCEGISIncremental(b *testing.B) { benchCEGIS(b, false) }

// BenchmarkCEGISFresh times the same synthesis with
// Config.DisableIncremental: fresh builder, solver, and test suite per
// multiset (the pre-incremental pipeline).
func BenchmarkCEGISFresh(b *testing.B) { benchCEGIS(b, true) }
