// Command iselbench reproduces Table 1 of the paper: it compiles the
// synthetic SPEC-CINT2000 workloads with the handwritten selector and
// with prototype selectors generated from the basic and full
// synthesized rule libraries, runs the selected code in the cycle-cost
// simulator (verifying all selectors compute what the IR computes),
// and prints the coverage and runtime-ratio table.
//
// Usage:
//
//	iselbench                        # synthesize basic+full, then run Table 1
//	iselbench -basic b.json -full f.json
//	iselbench -trace t.json          # Chrome trace with isel.select spans
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"selgen/internal/driver"
	"selgen/internal/failpoint"
	"selgen/internal/obs"
	"selgen/internal/pattern"
	"selgen/internal/target"
	"selgen/internal/telemetry"
)

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
		tgtName   = flag.String("target", "x86", "machine backend for the Table 1 run: x86 or riscv")
		width     = flag.Int("width", 8, "word width")
		basicPath = flag.String("basic", "", "basic rule library JSON (synthesized when empty)")
		fullPath  = flag.String("full", "", "full rule library JSON (synthesized when empty)")
		seed      = flag.Int64("seed", 99, "workload seed")
		trace     = flag.String("trace", "", "write a Chrome trace_event JSON file of the Table 1 run (isel.select spans)")
		faults    = flag.String("faults", "", "arm fault-injection points during library synthesis, e.g. 'sat.spurious.timeout=once' (testing only)")
		fseed     = flag.Int64("fault-seed", 1, "seed for probabilistic fault-injection modes")
		costAware = flag.Bool("cost-aware", true, "synthesize libraries with cost-ordered enumeration and dominance pruning (false = exhaustive size-major ablation)")
		status    = flag.String("status", "", "serve live telemetry (Prometheus /metrics, per-goal /goals, /debug/pprof) on this address during library synthesis and the Table 1 run (empty = no server)")
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
