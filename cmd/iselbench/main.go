// Command iselbench reproduces Table 1 of the paper: it compiles the
// synthetic SPEC-CINT2000 workloads with the handwritten selector and
// with prototype selectors generated from the basic and full
// synthesized rule libraries, runs the selected code in the cycle-cost
// simulator (verifying all selectors compute what the IR computes),
// and prints the coverage and runtime-ratio table.
//
// Usage:
//
//	iselbench                        # synthesize basic+full, then benchmark
//	iselbench -basic b.json -full f.json
//	iselbench -json                  # time incremental vs fresh CEGIS, write
//	                                 # BENCH_cegis.json + BENCH_isel.json, and exit
//	iselbench -isel-json             # selection-scaling benchmark only,
//	                                 # write BENCH_isel.json, and exit
//	iselbench -trace t.json          # Chrome trace with isel.select spans
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"selgen/internal/cegis"
	"selgen/internal/driver"
	"selgen/internal/failpoint"
	"selgen/internal/farm"
	"selgen/internal/ir"
	"selgen/internal/journal"
	"selgen/internal/obs"
	"selgen/internal/pattern"
	"selgen/internal/sem"
	"selgen/internal/target"
	"selgen/internal/telemetry"
	"selgen/internal/x86"
)

// cegisBenchPhase breaks one goal's solver effort down by query kind
// (synthesis vs verification), from the observability layer's metrics.
type cegisBenchPhase struct {
	Queries   int64   `json:"queries"`
	Conflicts int64   `json:"conflicts"`
	TimeMS    float64 `json:"time_ms"`
}

// cegisBenchGoal is one goal's timing in the -json comparison. The
// phase breakdowns describe the best incremental round.
type cegisBenchGoal struct {
	Goal          string          `json:"goal"`
	Patterns      int             `json:"patterns"`
	IncrementalMS float64         `json:"incremental_ms"`
	FreshMS       float64         `json:"fresh_ms"`
	Synth         cegisBenchPhase `json:"synth"`
	Verify        cegisBenchPhase `json:"verify"`
}

// phaseOf extracts one query kind's totals from a run's metrics.
func phaseOf(reg *obs.Registry, kind string) cegisBenchPhase {
	p := cegisBenchPhase{Queries: reg.CounterValue("cegis." + kind + "_queries")}
	if h := reg.HistogramNamed(kind + ".conflicts"); h != nil {
		p.Conflicts = h.Sum()
	}
	if h := reg.HistogramNamed(kind + ".us"); h != nil {
		p.TimeMS = float64(h.Sum()) / 1000
	}
	return p
}

// cegisBenchCost compares the quickstart library synthesized
// cost-aware against the exhaustive ablation: the shrink is gated in
// CI (cost-aware must cover the same goals with fewer rules), not
// anecdotal.
type cegisBenchCost struct {
	CostAwareRules     int     `json:"cost_aware_rules"`
	ExhaustiveRules    int     `json:"exhaustive_rules"`
	CostAwareGoals     int     `json:"cost_aware_goals"`
	ExhaustiveGoals    int     `json:"exhaustive_goals"`
	MeanRuleCost       float64 `json:"mean_rule_cost"`
	DominatedMultisets int64   `json:"dominated_multisets"`
	RulesDominated     int     `json:"rules_dominated"`
}

// cegisBenchTarget is one machine backend's quickstart synthesis in
// the per-target section: the same driver pipeline run end-to-end for
// each ISA, proving the synthesis stack is target-generic and exposing
// the cost-structure differences (rule counts, mean selected cycles).
type cegisBenchTarget struct {
	Target string `json:"target"`
	// Rules and Goals describe the synthesized quickstart library;
	// QuickGoals is the goal count of the setup (Goals == QuickGoals
	// means full quickstart coverage).
	Rules        int     `json:"rules"`
	Goals        int     `json:"goals"`
	QuickGoals   int     `json:"quick_goals"`
	MeanRuleCost float64 `json:"mean_rule_cost"`
	// Coverage and MeanCycles come from selecting the synthetic Table 1
	// workload with the quickstart library (fallback on): the covered
	// fraction and the mean simulated cycles per graph.
	Coverage   float64 `json:"coverage"`
	MeanCycles float64 `json:"mean_selected_cycles"`
	SynthMS    float64 `json:"synth_ms"`
}

// cegisBenchFarm is the distributed-synthesis section: the quickstart
// set synthesized by a real multi-process farm (`selgen -farm` workers
// spawned from -farm-selgen), with the merged library byte-compared
// against the single-process run of the same configuration.
type cegisBenchFarm struct {
	Workers         int     `json:"workers"`
	Goals           int     `json:"goals"`
	ElapsedMS       float64 `json:"elapsed_ms"`
	GoalsPerSec     float64 `json:"goals_per_sec"`
	LeasesGranted   int     `json:"leases_granted"`
	LeasesReclaimed int     `json:"leases_reclaimed"`
	Respawns        int     `json:"respawns"`
	ByteIdentical   bool    `json:"byte_identical"`
}

// cegisBench is the BENCH_cegis.json document.
type cegisBench struct {
	Width         int                `json:"width"`
	MaxLen        int                `json:"max_len"`
	Rounds        int                `json:"rounds"`
	Cores         int                `json:"cores"`
	Goals         []cegisBenchGoal   `json:"goals"`
	IncrementalMS float64            `json:"incremental_ms"`
	FreshMS       float64            `json:"fresh_ms"`
	Speedup       float64            `json:"speedup"`
	Cost          cegisBenchCost     `json:"cost"`
	Targets       []cegisBenchTarget `json:"targets"`
	Farm          *cegisBenchFarm    `json:"farm,omitempty"`
}

// runCEGISBench times the incremental pipeline against the
// DisableIncremental one on the quickstart goal set and writes the
// result to path. Each mode runs `rounds` times per goal; the minimum
// is reported (least-noise estimator).
func runCEGISBench(width int, farmSelgen string, farmWorkers int, path string) error {
	goals := []*sem.Instr{
		x86.Inc(),
		x86.Andn(),
		x86.AddInstr(),
		x86.BinMemSrc(x86.AddInstr(), x86.AM{Base: true}),
		x86.CmpJcc(x86.CCB),
	}
	const rounds = 5
	out := cegisBench{Width: width, MaxLen: 2, Rounds: rounds, Cores: runtime.NumCPU()}
	run := func(g *sem.Instr, disable bool) (time.Duration, int, cegisBenchPhase, cegisBenchPhase, error) {
		best, patterns := time.Duration(0), 0
		var synth, verify cegisBenchPhase
		for r := 0; r < rounds; r++ {
			tr := obs.New()
			e := cegis.New(ir.Ops(), cegis.Config{
				Width: width, MaxLen: 2, Seed: 1,
				QueryConflicts:     200_000,
				DisableIncremental: disable,
				Obs:                tr,
			})
			start := time.Now()
			res, err := e.Synthesize(g)
			if err != nil {
				return 0, 0, synth, verify, fmt.Errorf("%s: %w", g.Name, err)
			}
			if d := time.Since(start); r == 0 || d < best {
				best = d
				patterns = len(res.Patterns)
				synth = phaseOf(tr.Metrics(), "synth")
				verify = phaseOf(tr.Metrics(), "verify")
			}
		}
		return best, patterns, synth, verify, nil
	}
	for _, g := range goals {
		inc, patterns, synth, verify, err := run(g, false)
		if err != nil {
			return err
		}
		fresh, _, _, _, err := run(g, true)
		if err != nil {
			return err
		}
		bg := cegisBenchGoal{
			Goal: g.Name, Patterns: patterns,
			IncrementalMS: float64(inc) / float64(time.Millisecond),
			FreshMS:       float64(fresh) / float64(time.Millisecond),
			Synth:         synth,
			Verify:        verify,
		}
		out.Goals = append(out.Goals, bg)
		out.IncrementalMS += bg.IncrementalMS
		out.FreshMS += bg.FreshMS
	}
	if out.IncrementalMS > 0 {
		out.Speedup = out.FreshMS / out.IncrementalMS
	}

	// Library-shrink comparison: the same quickstart set synthesized
	// end-to-end cost-aware and exhaustively.
	runLib := func(disable bool) (*pattern.Library, *driver.Report, error) {
		return driver.Run(driver.QuickSetup(), driver.Options{
			Width: width, Seed: 1,
			MaxPatternsPerGoal: 48,
			PerGoalTimeout:     2 * time.Minute,
			DisableCostAware:   disable,
		})
	}
	caLib, caRep, err := runLib(false)
	if err != nil {
		return fmt.Errorf("cost-aware quickstart: %w", err)
	}
	exLib, _, err := runLib(true)
	if err != nil {
		return fmt.Errorf("exhaustive quickstart: %w", err)
	}
	out.Cost = cegisBenchCost{
		CostAwareRules:     len(caLib.Rules),
		ExhaustiveRules:    len(exLib.Rules),
		CostAwareGoals:     len(caLib.Goals()),
		ExhaustiveGoals:    len(exLib.Goals()),
		MeanRuleCost:       caRep.MeanRuleCost,
		DominatedMultisets: caRep.Metrics.CounterValue("cegis.cost.multisets_dominated"),
		RulesDominated:     caRep.RulesDominated,
	}

	// Farm section: the same cost-aware quickstart run, distributed
	// across real `selgen -farm` worker processes; the merged library
	// must be byte-identical to caLib (the single-process run above).
	if farmSelgen != "" {
		fb, err := runFarmBench(width, farmWorkers, farmSelgen, caLib)
		if err != nil {
			return fmt.Errorf("farm bench: %w", err)
		}
		out.Farm = fb
	}

	// Per-target section: the same quickstart pipeline (synthesize →
	// compile → select) run for every backend.
	for _, name := range target.Names() {
		tgt, err := target.ByName(name)
		if err != nil {
			return err
		}
		groups, err := driver.SetupFor(name, "quick")
		if err != nil {
			return err
		}
		quickGoals := 0
		for _, g := range groups {
			quickGoals += len(g.Goals)
		}
		start := time.Now()
		lib, rep, err := driver.Run(groups, driver.Options{
			Target: name, Width: width, Seed: 1,
			MaxPatternsPerGoal: 48,
			PerGoalTimeout:     2 * time.Minute,
		})
		if err != nil {
			return fmt.Errorf("%s quickstart: %w", name, err)
		}
		synthMS := float64(time.Since(start)) / float64(time.Millisecond)
		selRep, err := driver.SelectionCheck(lib, tgt, width, 1, nil)
		if err != nil {
			return fmt.Errorf("%s selection check: %w", name, err)
		}
		out.Targets = append(out.Targets, cegisBenchTarget{
			Target:       name,
			Rules:        len(lib.Rules),
			Goals:        len(lib.Goals()),
			QuickGoals:   quickGoals,
			MeanRuleCost: rep.MeanRuleCost,
			Coverage:     selRep.Coverage.Ratio(),
			MeanCycles:   selRep.MeanCycles(),
			SynthMS:      synthMS,
		})
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("incremental %.0fms vs fresh %.0fms (%.2fx) -> %s\n",
		out.IncrementalMS, out.FreshMS, out.Speedup, path)
	fmt.Printf("cost-aware quickstart library: %d rules (mean cost %.2f) vs exhaustive %d rules; %d multisets dominated\n",
		out.Cost.CostAwareRules, out.Cost.MeanRuleCost,
		out.Cost.ExhaustiveRules, out.Cost.DominatedMultisets)
	for _, t := range out.Targets {
		fmt.Printf("target %-6s: %d rules over %d/%d goals (mean rule cost %.2f), %.1f%% workload coverage, %.1f mean cycles/graph, synthesized in %.0fms\n",
			t.Target, t.Rules, t.Goals, t.QuickGoals, t.MeanRuleCost,
			100*t.Coverage, t.MeanCycles, t.SynthMS)
	}
	if out.Farm != nil {
		fmt.Printf("farm: %d goals on %d workers in %.0fms (%.2f goals/s, %d leases granted, %d reclaimed), merged library byte-identical\n",
			out.Farm.Goals, out.Farm.Workers, out.Farm.ElapsedMS,
			out.Farm.GoalsPerSec, out.Farm.LeasesGranted, out.Farm.LeasesReclaimed)
	}
	return nil
}

// runFarmBench synthesizes the quickstart set on a real multi-process
// farm — workers worker processes execing selgenBin with `-farm` — and
// byte-compares the merged library against single (the single-process
// run of the identical configuration). The farm throughput and
// lease-health counters become BENCH_cegis.json's farm section.
func runFarmBench(width, workers int, selgenBin string, single *pattern.Library) (*cegisBenchFarm, error) {
	groups := driver.QuickSetup()
	opts := driver.Options{
		Target: "x86", Width: width, Seed: 1,
		MaxPatternsPerGoal: 48,
		PerGoalTimeout:     2 * time.Minute,
	}
	hdr := journal.Header{
		Version:    journal.Version,
		Setup:      "quick",
		Width:      width,
		Target:     "x86",
		ConfigHash: driver.ConfigHash(groups, opts),
	}
	dir, err := os.MkdirTemp("", "iselbench-farm-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	workerArgs := []string{
		"-target", "x86",
		"-setup", "quick",
		"-width", strconv.Itoa(width),
		"-timeout", "2m",
		"-max-patterns", "48",
		"-seed", "1",
	}
	start := time.Now()
	lib, rep, err := farm.Run(farm.Config{
		Groups: groups, Opts: opts, Header: hdr,
		Dir:     dir,
		Workers: workers,
		Spawn:   farm.CommandSpawner(selgenBin, workerArgs, os.Stderr),
	})
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	var got, want bytes.Buffer
	if err := lib.Save(&got); err != nil {
		return nil, err
	}
	if err := single.Save(&want); err != nil {
		return nil, err
	}
	fb := &cegisBenchFarm{
		Workers:         rep.Workers,
		Goals:           rep.Goals,
		ElapsedMS:       float64(elapsed) / float64(time.Millisecond),
		GoalsPerSec:     float64(rep.Goals) / elapsed.Seconds(),
		LeasesGranted:   rep.Granted,
		LeasesReclaimed: rep.Reclaimed,
		Respawns:        rep.Respawns,
		ByteIdentical:   bytes.Equal(got.Bytes(), want.Bytes()),
	}
	if !fb.ByteIdentical {
		return nil, fmt.Errorf("farm library (%d rules) differs from the single-process run (%d rules)",
			len(lib.Rules), len(single.Rules))
	}
	return fb, nil
}

// writeIselBench runs the selection-scaling benchmark and writes
// BENCH_isel.json.
func writeIselBench(tgt *target.Target, width int, seed int64, basicLib, fullLib *pattern.Library, reps int, path string) error {
	b, err := driver.RunIselBench(tgt, width, seed, basicLib, fullLib, reps)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	b.Write(os.Stdout)
	fmt.Printf("selection benchmark -> %s\n", path)
	return nil
}

// synthFaults arms fault-injection points for the synthesis runs
// loadOrSynthesize performs (nil unless -faults is given).
var synthFaults *failpoint.Registry

// synthDisableCostAware switches the synthesis runs loadOrSynthesize
// performs to the exhaustive size-major ablation (-cost-aware=false).
var synthDisableCostAware bool

// synthState publishes the synthesis runs' live goal state to the
// -status server (nil without -status).
var synthState *driver.RunState

// synthObs is the tracer the -status server's /metrics scrapes (nil
// without -status; driver.Run then creates its own metrics-only one).
var synthObs *obs.Tracer

func loadOrSynthesize(path, what, targetName string, groups []driver.Group, width int) (*pattern.Library, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return pattern.Load(f)
	}
	fmt.Fprintf(os.Stderr, "synthesizing %s library (pass -%s to load a pre-built one)...\n", what, what)
	lib, rep, err := driver.Run(groups, driver.Options{
		Target:             targetName,
		Width:              width,
		PerGoalTimeout:     2 * time.Minute,
		MaxPatternsPerGoal: 48,
		Seed:               1,
		Faults:             synthFaults,
		DisableCostAware:   synthDisableCostAware,
		Obs:                synthObs,
		State:              synthState,
	})
	if err == nil {
		rep.WriteTable(os.Stderr)
	}
	return lib, err
}

func main() {
	var (
		tgtName   = flag.String("target", "x86", "machine backend for the Table 1 run and the selection benchmark: x86 or riscv")
		width     = flag.Int("width", 8, "word width")
		basicPath = flag.String("basic", "", "basic rule library JSON (synthesized when empty)")
		fullPath  = flag.String("full", "", "full rule library JSON (synthesized when empty)")
		seed      = flag.Int64("seed", 99, "workload seed")
		jsonBench = flag.Bool("json", false, "benchmark incremental vs fresh CEGIS, write BENCH_cegis.json and BENCH_isel.json, and exit")
		iselJSON  = flag.Bool("isel-json", false, "run only the selection-scaling benchmark, write BENCH_isel.json, and exit")
		iselReps  = flag.Int("isel-reps", 3, "selection benchmark repetitions per library (best-of)")
		trace     = flag.String("trace", "", "write a Chrome trace_event JSON file of the Table 1 run (isel.select spans)")
		faults    = flag.String("faults", "", "arm fault-injection points during library synthesis, e.g. 'sat.spurious.timeout=once' (testing only)")
		fseed     = flag.Int64("fault-seed", 1, "seed for probabilistic fault-injection modes")
		costAware = flag.Bool("cost-aware", true, "synthesize libraries with cost-ordered enumeration and dominance pruning (false = exhaustive size-major ablation)")
		status    = flag.String("status", "", "serve live telemetry (Prometheus /metrics, per-goal /goals, /debug/pprof) on this address during library synthesis and the Table 1 run (empty = no server)")
		farmSel   = flag.String("farm-selgen", "", "with -json: also benchmark the distributed synthesis farm, spawning this selgen binary as the workers (adds the farm section to BENCH_cegis.json)")
		farmWkrs  = flag.Int("farm-workers", 2, "with -farm-selgen: worker processes for the farm benchmark")
	)
	flag.Parse()

	if err := driver.CheckWidth(*width); err != nil {
		fmt.Fprintf(os.Stderr, "iselbench: %v\n", err)
		os.Exit(2)
	}
	tgt, err := target.ByName(*tgtName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iselbench: %v\n", err)
		os.Exit(2)
	}
	reg, err := failpoint.Parse(*faults, *fseed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iselbench: %v\n", err)
		os.Exit(2)
	}
	synthFaults = reg
	synthDisableCostAware = !*costAware

	tracer := obs.New()
	if *trace != "" {
		tracer.EnableTrace()
	}
	if *status != "" {
		synthObs = tracer
		synthState = driver.NewRunState()
		statusSrv, err := telemetry.Start(*status, tracer, synthState)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iselbench: %v\n", err)
			os.Exit(1)
		}
		defer statusSrv.Close()
		fmt.Fprintf(os.Stderr, "iselbench: telemetry listening on %s (/metrics /goals /debug/pprof)\n", statusSrv.URL())
	}

	if *iselJSON {
		// Scaling curve over the padded handwritten library only — no
		// synthesis, so this is the fast path CI smoke-tests.
		if err := writeIselBench(tgt, *width, *seed, nil, nil, *iselReps, "BENCH_isel.json"); err != nil {
			fmt.Fprintf(os.Stderr, "iselbench: isel bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *jsonBench {
		if err := runCEGISBench(*width, *farmSel, *farmWkrs, "BENCH_cegis.json"); err != nil {
			fmt.Fprintf(os.Stderr, "iselbench: cegis bench: %v\n", err)
			os.Exit(1)
		}
		if err := writeIselBench(tgt, *width, *seed, nil, nil, *iselReps, "BENCH_isel.json"); err != nil {
			fmt.Fprintf(os.Stderr, "iselbench: isel bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	basicGroups, err := driver.SetupFor(tgt.Name, "basic")
	if err != nil {
		fmt.Fprintf(os.Stderr, "iselbench: %v\n", err)
		os.Exit(2)
	}
	fullGroups, err := driver.SetupFor(tgt.Name, "full")
	if err != nil {
		fmt.Fprintf(os.Stderr, "iselbench: %v\n", err)
		os.Exit(2)
	}
	basicLib, err := loadOrSynthesize(*basicPath, "basic", tgt.Name, basicGroups, *width)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iselbench: basic library: %v\n", err)
		os.Exit(1)
	}
	fullLib, err := loadOrSynthesize(*fullPath, "full", tgt.Name, fullGroups, *width)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iselbench: full library: %v\n", err)
		os.Exit(1)
	}

	t, err := driver.RunTable1(tgt, *width, *seed, basicLib, fullLib, tracer)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iselbench: %v\n", err)
		os.Exit(1)
	}
	t.Write(os.Stdout)

	if err := writeIselBench(tgt, *width, *seed, basicLib, fullLib, *iselReps, "BENCH_isel.json"); err != nil {
		fmt.Fprintf(os.Stderr, "iselbench: isel bench: %v\n", err)
		os.Exit(1)
	}

	if *trace != "" {
		tf, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iselbench: %v\n", err)
			os.Exit(1)
		}
		if err := tracer.WriteChromeTrace(tf); err != nil {
			fmt.Fprintf(os.Stderr, "iselbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		if err := tf.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "iselbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "iselbench: trace with %d events written to %s\n", tracer.NumEvents(), *trace)
	}
}
