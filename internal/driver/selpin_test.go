package driver

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"selgen/internal/firm"
	"selgen/internal/ir"
	"selgen/internal/isel"
	"selgen/internal/pattern"
	"selgen/internal/spec"
	"selgen/internal/target"
)

// pinnedLibrary is one library the selection pins cover.
type pinnedLibrary struct {
	name string
	tgt  *target.Target
	lib  *pattern.Library
}

// loadLibraryFile reads a committed library.
func loadLibraryFile(t testing.TB, path string) *pattern.Library {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lib, err := pattern.Load(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return lib
}

// pinnedLibraries returns both targets' handwritten and quick-golden
// libraries, plus the committed basic x86 library the select-table1
// benchmark selects with.
func pinnedLibraries(t testing.TB) []pinnedLibrary {
	t.Helper()
	var libs []pinnedLibrary
	for _, name := range []string{"x86", "riscv"} {
		tgt, err := target.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		libs = append(libs,
			pinnedLibrary{name + "/hand", tgt, tgt.Handwritten(8)},
			pinnedLibrary{name + "/quick", tgt, loadLibraryFile(t, goldenPath(name))})
	}
	return append(libs, pinnedLibrary{"x86/basic", target.X86(),
		loadLibraryFile(t, filepath.Join("..", "..", "bench", "testdata", "basic_x86.json"))})
}

// table1Suite generates the Table 1 graphs at width 8.
func table1Suite(seed int64) []*firm.Graph {
	var graphs []*firm.Graph
	for _, prof := range spec.Profiles() {
		graphs = append(graphs, spec.Generate(prof, 8, ir.Ops(), seed)...)
	}
	return graphs
}

// selectionHash selects every graph with sel and hashes each graph's
// name, selected program text (or error) and coverage.
func selectionHash(sel *isel.Selector, graphs []*firm.Graph) string {
	h := sha256.New()
	for _, g := range graphs {
		prog, cov, err := sel.Select(g)
		if err != nil {
			fmt.Fprintf(h, "%s\nerror: %v\n", g.Name, err)
			continue
		}
		fmt.Fprintf(h, "%s\n%s\n%d %d %d\n", g.Name, prog.String(), cov.Covered, cov.Fallback, cov.Total)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestSelectionPinned pins the selector's output: the hash of every
// program it emits over the Table 1 suite, with its coverage, at seeds
// 1 and 7 for each pinned library, and the selection-effort counters
// of that pass (nodes, rules tried, trie visits, matches, fallbacks).
// The compiled-vs-linear differential tests share the structural
// matcher, so a matcher bug shows on both sides there and passes; this
// test catches it. The pins change only when selection output or
// effort changes on purpose (or a pinned library file is regenerated);
// re-record them then.
func TestSelectionPinned(t *testing.T) {
	want := map[string]string{
		"x86/hand/seed1":    "4a7d85865cb9ad41 3379/6542/19734/3228/151",
		"x86/hand/seed7":    "a4eb1989632f2116 3471/6684/20020/3316/155",
		"x86/quick/seed1":   "ef31d39a4e4948ab 6696/1892/15841/1697/4999",
		"x86/quick/seed7":   "183720acd5d369e0 6677/1856/15671/1675/5002",
		"riscv/hand/seed1":  "6fe45c494afcc876 5116/6005/26538/4558/558",
		"riscv/hand/seed7":  "75e5324903e985a6 5116/5991/26621/4602/514",
		"riscv/quick/seed1": "41c16d91a0cf2fca 6243/2809/17342/1695/4548",
		"riscv/quick/seed7": "00cb75d87d6340f5 6202/2742/17161/1674/4528",
		"x86/basic/seed1":   "f408ed9cbfa873c0 6714/4483/24797/4483/2231",
		"x86/basic/seed7":   "46e873898f666416 6695/4496/24813/4495/2200",
	}
	for _, pl := range pinnedLibraries(t) {
		for _, seed := range []int64{1, 7} {
			sel := pl.tgt.NewSelector(pl.lib, true)
			key := fmt.Sprintf("%s/seed%d", pl.name, seed)
			got := selectionHash(sel, table1Suite(seed))
			st := sel.Stats()
			got += fmt.Sprintf(" %d/%d/%d/%d/%d", st.Nodes, st.RulesTried, st.TrieVisits, st.Matches, st.Fallbacks)
			if got != want[key] {
				t.Errorf("%s: selection %q, pinned %q", key, got, want[key])
			}
		}
	}
}

// maxSelectAllocsPerGraph bounds a warm selection pass's heap
// allocations per selected graph. The returned program takes four: the
// Program, its instructions, one array for every operand, result and
// returned value, and one for the immediates (none in a graph without
// one). The pinned libraries read 4.00; a map per instruction with an
// immediate would take them to 25–38.
const maxSelectAllocsPerGraph = 5

// TestSelectAllocs guards the selection kernel against allocation
// creep: a warm pass over the Table 1 suite may allocate at most
// maxSelectAllocsPerGraph times per graph with any pinned library.
func TestSelectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	graphs := table1Suite(1)
	for _, pl := range pinnedLibraries(t) {
		sel := pl.tgt.NewSelector(pl.lib, true)
		perGraph := testing.AllocsPerRun(3, func() {
			for _, g := range graphs {
				if _, _, err := sel.Select(g); err != nil {
					t.Fatal(err)
				}
			}
		}) / float64(len(graphs))
		t.Logf("%s: %.2f allocations per graph", pl.name, perGraph)
		if perGraph > maxSelectAllocsPerGraph {
			t.Errorf("%s: %.2f allocations per graph, bound %d", pl.name, perGraph, maxSelectAllocsPerGraph)
		}
	}
}
