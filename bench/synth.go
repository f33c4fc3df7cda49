package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"selgen/internal/driver"
	"selgen/internal/obs"
	"selgen/internal/pattern"
	"selgen/internal/target"
)

// workloads maps each workload name (as BENCHMARK.json lists them) to
// its constructor.
var workloads = map[string]func(*bench) workload{
	"quick": func(b *bench) workload {
		return &synthWorkload{b: b, golden: true, setups: []synthSetup{
			{target: "x86", setup: "quick"},
			{target: "riscv", setup: "quick"},
		}}
	},
	"e2-basic": func(b *bench) workload {
		return &synthWorkload{b: b, setups: []synthSetup{{target: "x86", setup: "basic"}}}
	},
	"e2-unary": func(b *bench) workload {
		return &synthWorkload{b: b, setups: []synthSetup{{target: "x86", setup: "unary"}}}
	},
	"select-table1": func(b *bench) workload { return &selectWorkload{b: b} },
	"farm-basic":    func(b *bench) workload { return &farmWorkload{b: b} },
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// synthSeed is selgen's default -seed. Every synthesis uses it, so a
// synthesis workload does the same work at every benchmark seed: the
// test-case seed moves the SAT search effort by about ±8%, which would
// add to the host's noise. The benchmark seed varies the Table 1 suite.
const synthSeed = 1

// cliOptions are selgen's flag defaults (width 8, 5m per-goal timeout,
// -max-patterns 64, cost-aware, -sat-workers 1, sequential, seed 1), so
// every synthesis here is what `selgen -target <t>` runs.
func cliOptions(tgt string) driver.Options {
	return driver.Options{
		Target:             tgt,
		Width:              width,
		PerGoalTimeout:     5 * time.Minute,
		MaxPatternsPerGoal: 64,
		Seed:               synthSeed,
		SatWorkers:         1,
	}
}

// synthSetup is one driver.Run per iteration: a target and a setup
// name. "unary" is the Unary group of driver.FullSetup, which no selgen
// setup names on its own.
type synthSetup struct {
	target, setup string

	tgt    *target.Target
	groups []driver.Group
	// first is the first iteration's library in its on-disk form.
	first []byte
	lib   *pattern.Library
}

func (s *synthSetup) resolve() error {
	var err error
	if s.tgt, err = target.ByName(s.target); err != nil {
		return err
	}
	if s.setup != "unary" {
		s.groups, err = driver.SetupFor(s.target, s.setup)
		return err
	}
	for _, g := range driver.FullSetup() {
		if g.Name == "Unary" {
			s.groups = []driver.Group{g}
			return nil
		}
	}
	return errors.New("driver.FullSetup has no Unary group")
}

// synthWorkload times in-process synthesis: quick, e2-basic, e2-unary.
type synthWorkload struct {
	b      *bench
	setups []synthSetup
	// golden compares the libraries with testdata/goldens.
	golden  bool
	suite   *suite
	sampler selSampler
}

func (w *synthWorkload) setup() error {
	for i := range w.setups {
		if err := w.setups[i].resolve(); err != nil {
			return err
		}
	}
	var err error
	w.suite, err = newSuite(w.b)
	w.sampler = selSampler{b: w.b, suite: w.suite}
	return err
}

// ledgerRow splits one iteration's synthesis wall time by layer, from
// the span histograms driver.Run records. Nesting (goal ⊃ multiset ⊃
// synth, verify) makes the rows sum to SynthS by construction:
//
//	SelfS = SynthS − Σ goal              (dedup, pruning, report)
//	EnumerateS = Σ goal − Σ multiset     (multiset enumeration, pruning)
//	EncodeS = Σ multiset − Σ synth − Σ verify
//	                                     (residual: encoding, bv
//	                                      simplification, bit-blasting,
//	                                      test cases, prefilter)
type ledgerRow struct {
	Iteration   int     `json:"iteration"`
	SynthS      float64 `json:"synth_s"`
	SelfS       float64 `json:"driver.self_s"`
	EnumerateS  float64 `json:"cegis.enumerate_s"`
	EncodeS     float64 `json:"cegis.encode_s"`
	SynthCheckS float64 `json:"cegis.synth_check_s"`
	VerifyS     float64 `json:"cegis.verify_s"`
}

// layerCounters maps per-layer metrics to the obs counters they sum.
var layerCounters = map[string][]string{
	"driver.retry_attempts":     {"driver.retry.attempts"},
	"driver.quarantined":        {"driver.quarantine"},
	"cegis.multisets_tried":     {"cegis.multisets_tried"},
	"cegis.multisets_dominated": {"cegis.cost.multisets_dominated"},
	"cegis.multisets_skipped":   {"cegis.skipped_no_source", "cegis.skipped_consumers", "cegis.skipped_no_mem_ops"},
	"cegis.synth_queries":       {"cegis.synth_queries"},
	"cegis.verify_queries":      {"cegis.verify_queries"},
	"cegis.counterexamples":     {"cegis.counterexamples"},
	"cegis.query_timeouts":      {"cegis.query_timeouts"},
	"smt.checks":                {"smt.checks"},
	"sat.conflicts":             {"sat.conflicts"},
	"sat.decisions":             {"sat.decisions"},
	"sat.propagations":          {"sat.propagations"},
	"pattern.rules_dominated":   {"cegis.cost.rules_dominated"},
}

func (w *synthWorkload) iterate() (time.Duration, error) {
	b := w.b
	before := b.tr.Metrics().Snapshot()
	var wall time.Duration
	var hits, misses int64
	var libs []libTarget
	for i := range w.setups {
		s := &w.setups[i]
		opts := cliOptions(s.target)
		opts.Obs = b.tr
		sp := b.htr.Span(0, "bench.driver_run", obs.Str("target", s.target), obs.Str("setup", s.setup))
		start := time.Now()
		lib, rep, err := driver.Run(s.groups, opts)
		d := time.Since(start)
		sp.End()
		if err != nil {
			return 0, err
		}
		wall += d
		hits += rep.Total.Solver.BlastHits
		misses += rep.Total.Solver.BlastMisses
		if err := b.readGoalEvents(); err != nil {
			return 0, err
		}
		got := libraryBytes(lib)
		if s.first == nil {
			s.first, s.lib = got, lib
		} else if err := sameLibrary(s.first, got, s.target); err != nil {
			return 0, err
		}
		libs = append(libs, libTarget{s.tgt, lib})
	}
	after := b.tr.Metrics().Snapshot()

	counter := func(names ...string) float64 {
		var n int64
		for _, name := range names {
			n += after.Counters[name] - before.Counters[name]
		}
		return float64(n)
	}
	spanS := func(name string) float64 {
		return float64(after.Histograms[name+".us"].Sum-before.Histograms[name+".us"].Sum) / 1e6
	}
	goal, multiset := spanS("goal"), spanS("multiset")
	synth, verify := spanS("synth"), spanS("verify")
	row := ledgerRow{
		Iteration:   len(b.ledger),
		SynthS:      wall.Seconds(),
		SelfS:       wall.Seconds() - goal,
		EnumerateS:  goal - multiset,
		EncodeS:     multiset - synth - verify,
		SynthCheckS: synth,
		VerifyS:     verify,
	}
	b.ledger = append(b.ledger, row)
	b.add("driver.self_s", row.SelfS)
	b.add("cegis.enumerate_s", row.EnumerateS)
	b.add("cegis.encode_s", row.EncodeS)
	b.add("cegis.synth_check_s", row.SynthCheckS)
	b.add("cegis.verify_s", row.VerifyS)

	for metric, names := range layerCounters {
		b.add(metric, counter(names...))
	}
	b.add("cegis.pattern_yield", counter("cegis.patterns")/counter("cegis.multisets_tried"))
	kills := counter("cegis.prefilter_kills")
	b.add("cegis.prefilter_kill_frac", kills/(kills+counter("cegis.verify_queries")))
	if hits+misses > 0 {
		b.add("bitblast.cache_hit_frac", float64(hits)/float64(hits+misses))
	}
	solve := spanS("sat.solve")
	b.add("sat.solve_s", solve)
	if solve > 0 {
		b.add("sat.propagations_per_s", counter("sat.propagations")/solve)
	}
	return wall, w.sampler.sample(libs, wall)
}

func (w *synthWorkload) finish() error {
	b := w.b
	var libs []libTarget
	for _, s := range w.setups {
		if w.golden {
			path := filepath.Join(b.cfg.root, "testdata", "goldens", fmt.Sprintf("%s_%s.json", s.setup, s.target))
			if err := checkGolden(s.first, path); err != nil {
				return err
			}
		}
		libs = append(libs, libTarget{s.tgt, s.lib})
	}
	if err := checkLibraries(b, w.suite, libs); err != nil {
		return err
	}
	w.sampler.finish()
	b.add("peak_rss_mb", peakRSSMB())
	return nil
}
