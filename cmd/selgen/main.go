// Command selgen synthesizes an instruction-selection rule library from
// the semantic specifications in internal/ir and a machine backend
// (internal/x86 or internal/riscv) and writes it as JSON (the pattern
// database of §3).
//
// Usage:
//
//	selgen -setup basic -o rule-library.json
//	selgen -setup full -width 8 -timeout 30s -o full.json
//	selgen -target riscv -setup quick -o riscv.json
//	selgen -setup bmi -v
//	selgen -setup quick -trace trace.json   # Chrome trace_event output
//	selgen -setup full -journal run.journal # crash-safe checkpointing
//	selgen -setup full -resume run.journal  # continue an interrupted run
//	selgen -setup full -status :6060        # live /metrics, /goals, pprof
//	selgen -setup full -events run.jsonl    # structured JSONL event log
//
// As a farm worker (spawned by selfarm, not usually by hand):
//
//	selgen -farm http://127.0.0.1:PORT -farm-id 0 -journal worker-0.journal
//
// SIGINT/SIGTERM request a graceful stop: in-flight goals finish and are
// journaled, the partial library is written, telemetry shuts down, and
// the process exits with code 3 (distinct from 1 = error, 2 = usage) so
// a supervisor can tell "interrupted, resumable" from "failed".
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"selgen/internal/driver"
	"selgen/internal/failpoint"
	"selgen/internal/farm"
	"selgen/internal/journal"
	"selgen/internal/obs"
	"selgen/internal/target"
	"selgen/internal/telemetry"
)

// Exit codes: 0 = success, 1 = error, 2 = usage, 3 = interrupted
// (journal flushed; the run is resumable).
const exitInterrupted = 3

func main() { os.Exit(run()) }

func run() int {
	var (
		tgtName   = flag.String("target", "x86", "machine backend: x86 or riscv")
		setup     = flag.String("setup", "basic", "goal set: basic, full, quick, rotate, plus bmi (x86) or zbb (riscv)")
		width     = flag.Int("width", 8, "word width W of the semantic models")
		out       = flag.String("o", "rule-library.json", "output pattern database")
		timeout   = flag.Duration("timeout", 5*time.Minute, "per-goal synthesis timeout")
		maxPat    = flag.Int("max-patterns", 64, "max patterns per goal (0 = unlimited)")
		seed      = flag.Int64("seed", 1, "test-case seed")
		workers   = flag.Int("sat-workers", 1, "compatibility stub: the SAT search is sequential, so only 0 and 1 are accepted")
		verbose   = flag.Bool("v", false, "print per-goal progress")
		trace     = flag.String("trace", "", "write a Chrome trace_event JSON file (view in chrome://tracing or Perfetto)")
		check     = flag.Bool("check-selection", false, "after synthesis, select the synthetic Table 1 workload with the new library and report coverage and matching effort (isel.* spans land in -trace)")
		jpath     = flag.String("journal", "", "write a crash-safe run journal (JSONL checkpoint) to this file; with -farm, the worker's shard")
		resume    = flag.String("resume", "", "resume an interrupted run from this journal (implies -journal on the same file)")
		faults    = flag.String("faults", "", "arm fault-injection points, e.g. 'sat.spurious.timeout=once,journal.kill=hit:2' (testing only)")
		fseed     = flag.Int64("fault-seed", 1, "seed for probabilistic fault-injection modes")
		retries   = flag.Int("max-retries", 0, "retry-ladder depth for budget failures (0 = the default 2; negative is a usage error)")
		costAware = flag.Bool("cost-aware", true, "enumerate multisets in ascending cycle cost and prune dominated rules (false = exhaustive size-major ablation)")
		status    = flag.String("status", "", "serve live telemetry (Prometheus /metrics, per-goal /goals, /debug/pprof) on this address, e.g. :6060 (empty = no server)")
		linger    = flag.Duration("status-linger", 0, "keep the -status server up this long after the run finishes (a final scrape window)")
		events    = flag.String("events", "", "append a structured JSONL event log to this file")
		eventsLvl = flag.String("events-level", "info", "minimum -events level: debug, info, warn, or error")
		farmURL   = flag.String("farm", "", "run as a synthesis-farm worker against this coordinator URL (spawned by selfarm; requires -farm-id and -journal for the shard)")
		farmID    = flag.Int("farm-id", -1, "this worker's farm identity (with -farm)")
	)
	flag.Parse()

	tgt, err := target.ByName(*tgtName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "selgen: %v\n", err)
		return 2
	}
	opts := driver.Options{
		Target:             tgt.Name,
		Width:              *width,
		PerGoalTimeout:     *timeout,
		MaxPatternsPerGoal: *maxPat,
		Seed:               *seed,
		SatWorkers:         *workers,
		MaxRetries:         *retries,
		DisableCostAware:   !*costAware,
	}
	if err := opts.Check(); err != nil {
		fmt.Fprintf(os.Stderr, "selgen: %v\n", err)
		return 2
	}
	groups, err := driver.SetupFor(tgt.Name, *setup)
	if err != nil {
		fmt.Fprintf(os.Stderr, "selgen: %v\n", err)
		return 2
	}

	tracer := obs.New()
	if *trace != "" {
		tracer.EnableTrace()
	}
	if *events != "" {
		lvl, err := obs.ParseLevel(*eventsLvl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "selgen: %v\n", err)
			return 2
		}
		ef, err := os.OpenFile(*events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "selgen: %v\n", err)
			return 1
		}
		defer ef.Close()
		tracer.SetEventSink(ef, lvl)
	}
	reg, err := failpoint.Parse(*faults, *fseed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "selgen: %v\n", err)
		return 2
	}
	opts.Obs, opts.Faults = tracer, reg
	if *verbose {
		opts.Progress = os.Stderr
	}

	// A first SIGINT/SIGTERM requests a graceful stop — in-flight goals
	// finish and land in the journal, then the run winds down. A second
	// signal falls through to the default handler and kills the process.
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		s, ok := <-sigc
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "selgen: %v — finishing in-flight goals and flushing the journal (again to kill)\n", s)
		close(stop)
		signal.Stop(sigc)
	}()

	var statusSrv *telemetry.Server
	if *status != "" {
		state := driver.NewRunState()
		statusSrv, err = telemetry.Start(*status, tracer, state)
		if err != nil {
			fmt.Fprintf(os.Stderr, "selgen: %v\n", err)
			return 1
		}
		opts.State = state
		fmt.Fprintf(os.Stderr, "selgen: telemetry listening on %s (/metrics /goals /debug/pprof)\n", statusSrv.URL())
	}

	if *farmURL != "" {
		code := runFarmWorker(*farmURL, *farmID, *jpath, groups, opts, *setup, statusSrv, stop)
		if statusSrv != nil {
			statusSrv.Close()
		}
		return code
	}
	opts.Stop = stop

	if *resume != "" && *jpath != "" && *resume != *jpath {
		fmt.Fprintf(os.Stderr, "selgen: -resume and -journal name different files; -resume continues journaling in place\n")
		return 2
	}
	if *resume != "" || *jpath != "" {
		hdr := journal.Header{
			Version:    journal.Version,
			Setup:      *setup,
			Width:      *width,
			Target:     tgt.Name,
			ConfigHash: driver.ConfigHash(groups, opts),
		}
		var jw *journal.Writer
		if *resume != "" {
			var rec *journal.Recovered
			jw, rec, err = journal.Resume(*resume, hdr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "selgen: %v\n", err)
				return 1
			}
			opts.Resume = rec.Index()
			if *verbose {
				fmt.Fprintf(os.Stderr, "selgen: resuming from %s: %d goals recorded, %d torn bytes truncated\n",
					*resume, len(rec.Goals), rec.TruncatedBytes)
			}
		} else {
			jw, err = journal.Create(*jpath, hdr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "selgen: %v\n", err)
				return 1
			}
		}
		jw.Faults = reg
		opts.Journal = jw
		defer jw.Close()
	}

	start := time.Now()
	lib, rep, err := driver.Run(groups, opts)
	interrupted := errors.Is(err, driver.ErrInterrupted)
	if err != nil && !interrupted {
		fmt.Fprintf(os.Stderr, "selgen: %v\n", err)
		return 1
	}

	var selRep *driver.SelectionReport
	if *check && !interrupted {
		selRep, err = driver.SelectionCheck(lib, tgt, *width, *seed, tracer)
		if err != nil {
			fmt.Fprintf(os.Stderr, "selgen: %v\n", err)
			return 1
		}
	}

	if *trace != "" {
		tf, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "selgen: %v\n", err)
			return 1
		}
		if err := tracer.WriteChromeTrace(tf); err != nil {
			fmt.Fprintf(os.Stderr, "selgen: writing trace: %v\n", err)
			return 1
		}
		if err := tf.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "selgen: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "selgen: trace with %d events written to %s\n", tracer.NumEvents(), *trace)
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "selgen: %v\n", err)
		return 1
	}
	if err := lib.Save(f); err != nil {
		fmt.Fprintf(os.Stderr, "selgen: saving library: %v\n", err)
		return 1
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "selgen: %v\n", err)
		return 1
	}

	rep.WriteTable(os.Stdout)
	if selRep != nil {
		selRep.Write(os.Stdout)
	}
	fmt.Printf("\n%d rules written to %s in %s\n", len(lib.Rules), *out, time.Since(start).Round(time.Millisecond))

	if statusSrv != nil {
		// The linger window lets a scraper take one final /metrics and
		// /goals reading (every goal terminal) before the process exits.
		if *linger > 0 {
			time.Sleep(*linger)
		}
		if err := statusSrv.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "selgen: telemetry shutdown: %v\n", err)
			return 1
		}
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "selgen: run interrupted — journal flushed; resume with -resume\n")
		return exitInterrupted
	}
	return 0
}

// runFarmWorker runs the farm-worker loop: lease goals from the
// coordinator at coordURL, synthesize each through the same driver a
// single-process run uses, journal it into the shard, report back.
func runFarmWorker(coordURL string, id int, shard string, groups []driver.Group,
	opts driver.Options, setup string, statusSrv *telemetry.Server, stop <-chan struct{}) int {
	if id < 0 {
		fmt.Fprintf(os.Stderr, "selgen: -farm requires -farm-id\n")
		return 2
	}
	if shard == "" {
		fmt.Fprintf(os.Stderr, "selgen: -farm requires -journal (the worker's shard)\n")
		return 2
	}
	hdr := journal.Header{
		Version:    journal.Version,
		Setup:      setup,
		Width:      opts.Width,
		Target:     opts.Target,
		ConfigHash: driver.ConfigHash(groups, opts),
	}
	var telURL string
	if statusSrv != nil {
		telURL = statusSrv.URL()
	}
	err := farm.RunWorker(farm.WorkerConfig{
		ID: id, Coord: coordURL, Groups: groups, Opts: opts,
		Header: hdr, Shard: shard, Telemetry: telURL, Stop: stop,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "selgen: %v\n", err)
		return 1
	}
	select {
	case <-stop:
		fmt.Fprintf(os.Stderr, "selgen: worker %d interrupted — shard flushed\n", id)
		return exitInterrupted
	default:
	}
	return 0
}
