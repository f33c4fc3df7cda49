package main

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"time"

	"selgen/internal/firm"
	"selgen/internal/ir"
	"selgen/internal/isel"
	"selgen/internal/pattern"
	"selgen/internal/spec"
	"selgen/internal/target"
)

// width is selgen's default word width, used by every workload.
const width = 8

// suite is the Table 1 workload at one seed: the eleven CINT2000
// stand-in profiles' graphs, one input set per graph, and the IR
// interpreter's output on it, which selected code must reproduce.
type suite struct {
	graphs []*firm.Graph
	inputs []graphInput
	// nodes is the real IR node count (Σ firm.Graph.NumRealNodes), the
	// denominator of every per-node metric. It does not depend on the
	// library, unlike isel.SelStats.Nodes.
	nodes int
}

type graphInput struct {
	params []uint64
	mem    map[uint64]uint64
	ref    *firm.ExecResult
}

func newSuite(b *bench) (*suite, error) {
	start := time.Now()
	ops := ir.Ops()
	s := &suite{}
	for _, prof := range spec.Profiles() {
		s.graphs = append(s.graphs, spec.Generate(prof, width, ops, b.cfg.seed)...)
	}
	b.add("spec.generate_ms", ms(time.Since(start)))
	for _, g := range s.graphs {
		params, mems := spec.Inputs(g, b.cfg.seed, 1)
		ref, err := g.Exec(params[0], mems[0])
		if err != nil {
			return nil, fmt.Errorf("IR interpreter: %w", err)
		}
		s.inputs = append(s.inputs, graphInput{params[0], mems[0], ref})
		s.nodes += g.NumRealNodes()
	}
	return s, nil
}

// selTotals are one selection pass's outputs; every pass over the same
// suite with the same library must produce the same totals.
type selTotals struct {
	cycles int64
	graphs int
	cov    isel.Coverage
}

func (t *selTotals) add(o selTotals) {
	t.cycles += o.cycles
	t.graphs += o.graphs
	t.cov.Add(o.cov)
}

// meanCycles is driver.SelectionReport.MeanCycles over these totals.
func (t selTotals) meanCycles() float64 { return float64(t.cycles) / float64(t.graphs) }

// selectPass selects every graph of the suite once.
func selectPass(sel *isel.Selector, s *suite) (selTotals, error) {
	var t selTotals
	for _, g := range s.graphs {
		prog, cov, err := sel.Select(g)
		if err != nil {
			return t, fmt.Errorf("selecting %s: %w", g.Name, err)
		}
		t.cycles += int64(prog.Cycles())
		t.graphs++
		t.cov.Add(cov)
	}
	return t, nil
}

// checkSelection selects every graph with sel and executes the selected
// code on the graph's inputs: return values and final memory must equal
// the IR interpreter's.
func checkSelection(sel *isel.Selector, s *suite) (selTotals, error) {
	var t selTotals
	for i, g := range s.graphs {
		prog, cov, err := sel.Select(g)
		if err != nil {
			return t, fmt.Errorf("selecting %s: %w", g.Name, err)
		}
		in := s.inputs[i]
		got, err := prog.Exec(in.params, in.mem)
		if err != nil {
			return t, fmt.Errorf("%s: executing the selected code: %w", g.Name, err)
		}
		if !slices.Equal(got.Values, in.ref.Values) {
			return t, fmt.Errorf("%s: selected code returns %#x, the IR interpreter %#x", g.Name, got.Values, in.ref.Values)
		}
		if !maps.Equal(got.Mem, in.ref.Mem) {
			return t, fmt.Errorf("%s: selected code leaves different memory than the IR interpreter", g.Name)
		}
		t.cycles += int64(prog.Cycles())
		t.graphs++
		t.cov.Add(cov)
	}
	return t, nil
}

// libTarget is a library together with the backend it selects for.
type libTarget struct {
	tgt *target.Target
	lib *pattern.Library
}

// checkLibraries is the post-loop check shared by the synthesis and farm
// workloads: each library's selected code must reproduce the IR
// interpreter's output. It records the libraries' size and the
// selected code's mean cycles and coverage.
func checkLibraries(b *bench, s *suite, libs []libTarget) error {
	sp := b.htr.Span(0, "bench.check")
	defer sp.End()
	var tot selTotals
	rules := 0
	for _, lt := range libs {
		t, err := checkSelection(lt.tgt.NewSelector(lt.lib, true), s)
		if err != nil {
			return fmt.Errorf("%s library: %w", lt.tgt.Name, err)
		}
		tot.add(t)
		rules += len(lt.lib.Rules)
	}
	b.add("rules", float64(rules))
	b.add("selected_cycles", tot.meanCycles())
	b.add("isel.coverage", tot.cov.Ratio())
	return nil
}

// selSampler times selection with the libraries a synthesis or farm
// iteration produced. It runs between iterations, so its samples span
// the whole run like the iterations' own: a burst of interference from
// other tenants then slows only some of them.
type selSampler struct {
	b     *bench
	suite *suite
	// want is the first pass's totals per library; every later pass
	// must repeat them.
	want   []selTotals
	stats  isel.SelStats
	passes int // passes × libraries
}

// sample compiles libs (pattern.compile_ms) and selects the suite with
// all of them (one select_ns_per_node sample per pass), for at least one
// pass and about a twentieth of the iteration time d.
func (ss *selSampler) sample(libs []libTarget, d time.Duration) error {
	b := ss.b
	csp := b.htr.Span(0, "bench.compile")
	start := time.Now()
	sels := make([]*isel.Selector, len(libs))
	for i, lt := range libs {
		sels[i] = lt.tgt.NewSelector(lt.lib, true)
		sels[i].Obs = b.htr
	}
	b.add("pattern.compile_ms", ms(time.Since(start)))
	csp.End()

	start = time.Now()
	for first := true; first || time.Since(start) < d/20; first = false {
		psp := b.htr.Span(0, "bench.select_pass")
		passStart := time.Now()
		for i, sel := range sels {
			t, err := selectPass(sel, ss.suite)
			if err == nil && i < len(ss.want) && t != ss.want[i] {
				err = fmt.Errorf("%s library: selection pass differs from the first one", libs[i].tgt.Name)
			}
			if err != nil {
				psp.End()
				return err
			}
			if i == len(ss.want) {
				ss.want = append(ss.want, t)
			}
		}
		b.add("select_ns_per_node", float64(time.Since(passStart).Nanoseconds())/float64(ss.suite.nodes*len(sels)))
		psp.End()
		ss.passes += len(sels)
	}
	for _, sel := range sels {
		st := sel.Stats()
		ss.stats.RulesTried += st.RulesTried
		ss.stats.TrieVisits += st.TrieVisits
		ss.stats.Fallbacks += st.Fallbacks
	}
	return nil
}

// finish records the matcher's effort over every sampled pass.
func (ss *selSampler) finish() { addPerNode(ss.b, ss.stats, ss.passes*ss.suite.nodes) }

// addPerNode records the matcher's effort per real IR node.
func addPerNode(b *bench, st isel.SelStats, nodes int) {
	n := float64(nodes)
	b.add("isel.rules_tried_per_node", float64(st.RulesTried)/n)
	b.add("isel.trie_visits_per_node", float64(st.TrieVisits)/n)
	b.add("isel.fallbacks_per_node", float64(st.Fallbacks)/n)
}

// libraryBytes is a library in its on-disk form (what selgen -o writes).
func libraryBytes(lib *pattern.Library) []byte {
	var buf bytes.Buffer
	lib.Save(&buf) // writes to a bytes.Buffer cannot fail
	return buf.Bytes()
}

// sameLibrary is the determinism gate: every iteration's library must
// be byte-identical to the first one's.
func sameLibrary(first, got []byte, what string) error {
	if !bytes.Equal(first, got) {
		return fmt.Errorf("%s library differs from the first iteration's (%d vs %d bytes)", what, len(got), len(first))
	}
	return nil
}

// checkGolden compares a library with a committed golden file.
func checkGolden(got []byte, path string) error {
	want, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("library differs from %s", filepath.Base(path))
	}
	return nil
}

func loadLibrary(path string) (*pattern.Library, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pattern.Load(f)
}
