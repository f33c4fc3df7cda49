// Command bench re-measures selgen end to end and layer by layer. Each
// invocation runs one workload in its own process: it sets the workload
// up, runs timed iterations until the measuring time is spent, timing
// more set-ups between them (setup_s), checks every library it produced
// or loaded, and prints two JSON lines on standard output. The first is
// a detail document (environment stamp, host speed probe, each metric's
// distribution, the per-iteration time ledger); the last is the result:
//
//	{"correct":true,"attempted":N,"failed":F,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics, a traced run
// (-trace 1) the per-layer metrics. Any failed check exits 1 and prints
// no result. See README.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload quick --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload e2-basic --trace 1 --trace-out trace.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() { os.Exit(mainCode()) }

func mainCode() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "input seed: the Table 1 graph suite and its inputs (synthesis always uses selgen's default seed)")
		seconds  = flag.Float64("seconds", 20, "measuring time; iterations start while it lasts, and at least 3 run")
		trace    = flag.Int("trace", 0, "0 = untraced run reporting end-to-end metrics, 1 = traced run reporting per-layer metrics")
		traceOut = flag.String("trace-out", "", "with -trace 1, also write a Chrome trace_event file here")
		work     = flag.String("work", ".bench_build/work", "scratch directory for farm journals and the reference library")
	)
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds < 0 {
		flag.Usage()
		return 2
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traceOut != "" && *trace == 0 {
		fmt.Fprintln(os.Stderr, "bench: -trace-out needs -trace 1")
		return 2
	}
	// run.sh builds the selgen binary next to this one.
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: locating the selgen binary: %v\n", err)
		return 1
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		minIters: 3,
		traced:   *trace == 1,
		traceOut: *traceOut,
		root:     ".", // run.sh runs from the repository root
		work:     *work,
		selgen:   filepath.Join(filepath.Dir(self), "selgen"),
	}
	b, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	specs := endToEnd
	if cfg.traced {
		specs = perLayer
	}
	res, err := b.result(specs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"bench": b.detail(specs)}); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// envStamp tags every output with what the numbers depend on.
type envStamp struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	// Revision is the VCS revision the build info carries (absent when
	// the harness was built outside a checkout with history).
	Revision string `json:"revision,omitempty"`
	Modified bool   `json:"modified,omitempty"`
}

func stamp(cfg config) envStamp {
	e := envStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workload:   cfg.workload,
		Seed:       cfg.seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Revision = s.Value
			case "vcs.modified":
				e.Modified = s.Value == "true"
			}
		}
	}
	return e
}
