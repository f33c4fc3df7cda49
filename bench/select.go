package main

import (
	"fmt"
	"path/filepath"
	"time"

	"selgen/internal/isel"
	"selgen/internal/obs"
	"selgen/internal/pattern"
	"selgen/internal/target"
)

// selectWorkload is select-table1: no synthesis; each iteration selects
// the Table 1 suite once with the committed basic x86 library fixture.
type selectWorkload struct {
	b     *bench
	tgt   *target.Target
	lib   *pattern.Library
	sel   *isel.Selector
	suite *suite
	// first is the first pass's totals; every pass must repeat them.
	first  *selTotals
	passes int
}

func (w *selectWorkload) setup() error {
	var err error
	w.tgt = target.X86()
	if w.lib, err = loadLibrary(filepath.Join(w.b.cfg.root, "bench", "testdata", "basic_x86.json")); err != nil {
		return err
	}
	if w.suite, err = newSuite(w.b); err != nil {
		return err
	}
	start := time.Now()
	w.sel = w.tgt.NewSelector(w.lib, true)
	w.b.add("pattern.compile_ms", ms(time.Since(start)))
	w.sel.Obs = w.b.htr
	return nil
}

func (w *selectWorkload) iterate() (time.Duration, error) {
	sp := w.b.htr.Span(0, "bench.select_pass")
	start := time.Now()
	t, err := selectPass(w.sel, w.suite)
	d := time.Since(start)
	sp.End()
	if err != nil {
		return 0, err
	}
	if w.first == nil {
		w.first = &t
	} else if t != *w.first {
		return 0, fmt.Errorf("selection pass %d differs from the first one", w.passes)
	}
	w.passes++
	w.b.attempted += t.graphs
	w.b.add("select_ns_per_node", float64(d.Nanoseconds())/float64(w.suite.nodes))
	return d, nil
}

func (w *selectWorkload) finish() error {
	b := w.b
	addPerNode(b, w.sel.Stats(), w.passes*w.suite.nodes)

	if err := checkLibraries(b, w.suite, []libTarget{{w.tgt, w.lib}}); err != nil {
		return err
	}

	// The matcher against the handwritten library, and against library
	// size: the fixture padded with never-matching rules to 1000.
	hand, err := w.passTime(w.tgt.NewSelector(w.tgt.Handwritten(width), true))
	if err != nil {
		return fmt.Errorf("handwritten library: %w", err)
	}
	b.add("isel.ns_per_node_hand", float64(hand.Nanoseconds())/float64(w.suite.nodes))
	b.add("isel.vs_hand", distOf(b.samples["iteration_s"]).Median/hand.Seconds())
	padded := isel.PadLibrary(w.lib, width, 1000)
	var sel *isel.Selector
	for r := 0; r < setupReps; r++ {
		csp := b.htr.Span(0, "bench.compile", obs.Int("rules", int64(len(padded.Rules))))
		start := time.Now()
		sel = w.tgt.NewSelector(padded, true)
		b.add("pattern.compile_ms_pad1000", ms(time.Since(start)))
		csp.End()
	}
	pad, err := w.passTime(sel)
	if err != nil {
		return fmt.Errorf("padded library: %w", err)
	}
	b.add("isel.ns_per_node_pad1000", float64(pad.Nanoseconds())/float64(w.suite.nodes))
	b.add("peak_rss_mb", peakRSSMB())
	return nil
}

// selectPasses is how many passes passTime times.
const selectPasses = 25

// passTime is the median time of selectPasses passes with sel.
func (w *selectWorkload) passTime(sel *isel.Selector) (time.Duration, error) {
	sel.Obs = w.b.htr
	var ds []float64
	for p := 0; p < selectPasses; p++ {
		sp := w.b.htr.Span(0, "bench.select_pass")
		start := time.Now()
		_, err := selectPass(sel, w.suite)
		ds = append(ds, float64(time.Since(start)))
		sp.End()
		if err != nil {
			return 0, err
		}
	}
	return time.Duration(distOf(ds).Median), nil
}
