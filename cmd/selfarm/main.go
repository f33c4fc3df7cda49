// Command selfarm runs the fault-tolerant distributed synthesis farm:
// a lease-based coordinator that shards a setup's goal list across N
// `selgen -farm` worker processes, heals worker crashes and stalls, and
// merges the workers' journal shards into a rule library byte-identical
// to a single-process `selgen` run of the same configuration.
//
// Usage:
//
//	selfarm -workers 4 -setup full -o full.json
//	selfarm -resume -workers 4 -setup full -o full.json
//	selfarm -target riscv -setup quick -workers 2 -o riscv.json
//
// Each goal runs on one clock: the retry ladder its worker climbs
// (-timeout, then twice and four times that, -max-retries rungs deep).
// A lease's deadline is twice that ladder's total (70 minutes at the
// defaults; none with -timeout 0), and a worker that holds its goal
// past it is killed and the goal reassigned.
//
// The farm's working directory (-dir, default <output>.farm) holds the
// coordinator's lease journal and one journal shard per worker. Every
// lease grant, every quarantine and every finished goal is fsync'd
// before it is acted on, so any process in the farm — workers or the
// coordinator itself — can be SIGKILL'd at any instant and `selfarm
// -resume` (same flags, same -dir) completes the run without redoing
// durable work.
//
// SIGINT/SIGTERM stop the farm gracefully: workers exit, journals stay
// intact, and the process exits with code 3 (resumable), distinct from
// 1 (error) and 2 (usage).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"selgen/internal/driver"
	"selgen/internal/failpoint"
	"selgen/internal/farm"
	"selgen/internal/journal"
	"selgen/internal/obs"
	"selgen/internal/target"
)

const exitInterrupted = 3

// heartbeat is the interval at which the coordinator scrapes each
// worker's telemetry server.
const heartbeat = 10 * time.Second

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
		retries   = flag.Int("max-retries", 0, "retry-ladder depth for budget failures (0 = the default 2; negative is a usage error)")
		costAware = flag.Bool("cost-aware", true, "cost-ordered enumeration and dominance pruning")
		verbose   = flag.Bool("v", false, "pass worker stderr through and print farm progress")

		workers = flag.Int("workers", 2, "worker processes to shard the goal list across")
		dir     = flag.String("dir", "", "farm working directory for the coordinator journal and worker shards (default <output>.farm)")
		resume  = flag.Bool("resume", false, "rebuild the lease table from -dir's coordinator journal and finish the run")
		selgen  = flag.String("selgen", "", "selgen binary to spawn as workers (default: next to this binary, else $PATH)")

		faults    = flag.String("faults", "", "arm fault-injection points in the coordinator, e.g. 'farm.lease.grant=once' (testing only)")
		wFaults   = flag.String("worker-faults", "", "arm fault-injection points in worker 0's first incarnation only, e.g. 'journal.kill=hit:2' — respawns run clean, so the farm must heal the crash (testing only)")
		fseed     = flag.Int64("fault-seed", 1, "seed for probabilistic fault-injection modes")
		events    = flag.String("events", "", "append a structured JSONL event log to this file")
		eventsLvl = flag.String("events-level", "info", "minimum -events level: debug, info, warn, or error")
	)
	flag.Parse()

	tgt, err := target.ByName(*tgtName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "selfarm: %v\n", err)
		return 2
	}
	// Opts must be what a single-process `selgen` with the same flags
	// would use: the ConfigHash derived from them is the run identity
	// every worker registration and every shard header must match.
	opts := driver.Options{
		Target:             tgt.Name,
		Width:              *width,
		PerGoalTimeout:     *timeout,
		MaxPatternsPerGoal: *maxPat,
		Seed:               *seed,
		MaxRetries:         *retries,
		DisableCostAware:   !*costAware,
	}
	if err := opts.Check(); err != nil {
		fmt.Fprintf(os.Stderr, "selfarm: %v\n", err)
		return 2
	}
	groups, err := driver.SetupFor(tgt.Name, *setup)
	if err != nil {
		fmt.Fprintf(os.Stderr, "selfarm: %v\n", err)
		return 2
	}
	reg, err := failpoint.Parse(*faults, *fseed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "selfarm: %v\n", err)
		return 2
	}
	bin, err := findSelgen(*selgen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "selfarm: %v\n", err)
		return 2
	}
	if *dir == "" {
		*dir = *out + ".farm"
	}

	tracer := obs.New()
	if *events != "" {
		lvl, err := obs.ParseLevel(*eventsLvl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "selfarm: %v\n", err)
			return 2
		}
		ef, err := os.OpenFile(*events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "selfarm: %v\n", err)
			return 1
		}
		defer ef.Close()
		tracer.SetEventSink(ef, lvl)
	}
	if *verbose {
		tracer.SetProgress(os.Stderr)
	}

	opts.Obs = tracer
	hdr := journal.Header{
		Version:    journal.Version,
		Setup:      *setup,
		Width:      *width,
		Target:     tgt.Name,
		ConfigHash: driver.ConfigHash(groups, opts),
	}

	// Workers get the same synthesis flags (so their ConfigHash agrees)
	// plus an ephemeral telemetry port for the heartbeat.
	workerArgs := []string{
		"-target", tgt.Name,
		"-setup", *setup,
		"-width", strconv.Itoa(*width),
		"-timeout", timeout.String(),
		"-max-patterns", strconv.Itoa(*maxPat),
		"-seed", strconv.FormatInt(*seed, 10),
		"-max-retries", strconv.Itoa(*retries),
		"-cost-aware=" + strconv.FormatBool(*costAware),
		"-status", "127.0.0.1:0",
	}
	var workerStderr io.Writer
	if *verbose {
		workerStderr = os.Stderr
	}
	spawn := farm.CommandSpawner(bin, workerArgs, workerStderr)
	if *wFaults != "" {
		// Worker 0's first incarnation runs with the faults armed; every
		// other spawn — including worker 0's respawn after the injected
		// crash — runs clean, so the run exercises the heal path without
		// crash-looping.
		armed := farm.CommandSpawner(bin,
			append(append([]string{}, workerArgs...), "-faults", *wFaults), workerStderr)
		clean := spawn
		var mu sync.Mutex
		fired := false
		spawn = func(id int, coordURL, shard string) (farm.Handle, error) {
			mu.Lock()
			arm := id == 0 && !fired
			if arm {
				fired = true
			}
			mu.Unlock()
			if arm {
				return armed(id, coordURL, shard)
			}
			return clean(id, coordURL, shard)
		}
	}

	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		s, ok := <-sigc
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "selfarm: %v — stopping workers; journals stay intact (again to kill)\n", s)
		close(stop)
		signal.Stop(sigc)
	}()

	start := time.Now()
	lib, rep, err := farm.Run(farm.Config{
		Groups: groups, Opts: opts, Header: hdr,
		Dir:       *dir,
		Workers:   *workers,
		Heartbeat: heartbeat,
		Resume:    *resume,
		Stop:      stop,
		Spawn:     spawn,
		Faults:    reg,
		Obs:       tracer,
	})
	if errors.Is(err, farm.ErrStopped) {
		fmt.Fprintf(os.Stderr, "selfarm: run stopped — resume with: selfarm -resume -dir %s (same flags)\n", *dir)
		return exitInterrupted
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "selfarm: %v\n", err)
		return 1
	}

	if err := farm.WriteLibrary(*out, lib, reg); err != nil {
		fmt.Fprintf(os.Stderr, "selfarm: %v\n", err)
		return 1
	}

	rep.Driver.WriteTable(os.Stdout)
	fmt.Printf("\nfarm: %d worker(s), %d goal(s) leased (%d synthesized, %d replayed), %d derived in the merge, %.2f goals/s\n",
		rep.Workers, rep.Goals, rep.Synthesized, rep.Replayed, rep.Derived, rep.GoalsPerSec)
	fmt.Printf("farm: %d lease(s) granted, %d reclaimed, %d respawn(s), %d kill(s), %d shard duplicate(s)\n",
		rep.Granted, rep.Reclaimed, rep.Respawns, rep.Kills, rep.Duplicates)
	if len(rep.Quarantined) > 0 {
		fmt.Printf("farm: %d goal(s) quarantined: %v\n", len(rep.Quarantined), rep.Quarantined)
	}
	fmt.Printf("\n%d rules written to %s in %s\n", len(lib.Rules), *out, time.Since(start).Round(time.Millisecond))
	return 0
}

// findSelgen locates the worker binary: an explicit -selgen wins, then
// a selgen next to this executable (the normal `go build ./...` layout),
// then $PATH.
func findSelgen(explicit string) (string, error) {
	if explicit != "" {
		if _, err := os.Stat(explicit); err != nil {
			return "", fmt.Errorf("-selgen %s: %w", explicit, err)
		}
		return explicit, nil
	}
	if self, err := os.Executable(); err == nil {
		sibling := filepath.Join(filepath.Dir(self), "selgen")
		if _, err := os.Stat(sibling); err == nil {
			return sibling, nil
		}
	}
	if p, err := exec.LookPath("selgen"); err == nil {
		return p, nil
	}
	return "", errors.New("cannot find the selgen worker binary (build it next to selfarm or pass -selgen)")
}
