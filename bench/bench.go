package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"syscall"
	"time"

	"selgen/internal/obs"
)

// metricSpec names one reported metric. The two lists below must match
// BENCHMARK.json exactly (bench_test.go checks it).
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"iteration_s", "s"},
	{"select_ns_per_node", "ns/node"},
	{"rules", "count"},
	{"selected_cycles", "cycles/graph"},
	{"peak_rss_mb", "MB"},
}

// perLayer metrics a workload does not exercise read 0 (README.md lists
// which workloads set each).
var perLayer = []metricSpec{
	{"driver.self_s", "s"},
	{"driver.goal_ms_p50", "ms"},
	{"driver.goal_ms_p90", "ms"},
	{"driver.goal_ms_max", "ms"},
	{"driver.retry_attempts", "count"},
	{"driver.quarantined", "count"},
	{"driver.fail_frac", "ratio"},
	{"cegis.enumerate_s", "s"},
	{"cegis.encode_s", "s"},
	{"cegis.synth_check_s", "s"},
	{"cegis.verify_s", "s"},
	{"cegis.multisets_tried", "count"},
	{"cegis.multisets_dominated", "count"},
	{"cegis.multisets_skipped", "count"},
	{"cegis.pattern_yield", "ratio"},
	{"cegis.synth_queries", "count"},
	{"cegis.verify_queries", "count"},
	{"cegis.counterexamples", "count"},
	{"cegis.prefilter_kill_frac", "ratio"},
	{"cegis.query_timeouts", "count"},
	{"smt.checks", "count"},
	{"bitblast.cache_hit_frac", "ratio"},
	{"sat.solve_s", "s"},
	{"sat.conflicts", "count"},
	{"sat.decisions", "count"},
	{"sat.propagations", "count"},
	{"sat.propagations_per_s", "1/s"},
	{"pattern.rules_dominated", "count"},
	{"pattern.compile_ms", "ms"},
	{"pattern.compile_ms_pad1000", "ms"},
	{"isel.coverage", "fraction"},
	{"isel.rules_tried_per_node", "count/node"},
	{"isel.trie_visits_per_node", "count/node"},
	{"isel.fallbacks_per_node", "count/node"},
	{"isel.ns_per_node_hand", "ns/node"},
	{"isel.ns_per_node_pad1000", "ns/node"},
	{"isel.vs_hand", "ratio"},
	{"spec.generate_ms", "ms"},
	{"farm.goals_per_s", "goals/s"},
	{"farm.busy_frac", "ratio"},
	{"farm.overhead_s", "s"},
	{"farm.leases_granted", "count"},
	{"farm.leases_reclaimed", "count"},
	{"farm.respawns", "count"},
	{"farm.worker_cpu_s", "s"},
	{"farm.worker_rss_mb", "MB"},
	{"bench.iteration_s", "s"},
}

// setupReps is how many times a run sets its workload up (see
// setupsDue); setup_s is the median.
const setupReps = 27

type config struct {
	workload string
	seed     int64
	// budget is the measuring time: a new iteration starts only while
	// the last one's duration still fits, and at least minIters run.
	budget   time.Duration
	minIters int
	traced   bool
	traceOut string
	// root is the repository root, which holds the goldens and the
	// fixture; work is a scratch directory; selgen is the worker binary.
	root   string
	work   string
	selgen string
}

// bench is one run's state and measurements.
type bench struct {
	cfg config
	// tr is handed to driver.Run, so every synthesis records its span
	// histograms into one registry; per-iteration numbers are snapshot
	// deltas. Trace events are on only in a traced run.
	tr *obs.Tracer
	// htr receives the harness's own spans: tr in a traced run, nil (no
	// cost) otherwise.
	htr *obs.Tracer
	// events is tr's event sink, read after every driver.Run (see
	// readGoalEvents).
	events bytes.Buffer

	samples   map[string][]float64
	goalMS    []float64
	ledger    []ledgerRow
	attempted int
	failed    int
	noRule    int
	// hostProbeMS is hostProbeMS() before the set-up and after the
	// measuring loop.
	hostProbeMS [2]float64
}

func (b *bench) add(name string, v float64) { b.samples[name] = append(b.samples[name], v) }

// workload is one benchmark workload.
type workload interface {
	// setup prepares everything the timed loop needs. It runs once before
	// the loop; setupsDue times it on setupReps−1 fresh instances.
	setup() error
	// iterate runs one timed iteration and returns the time of the
	// measured call(s), which is the iteration_s sample.
	iterate() (time.Duration, error)
	// finish runs the correctness checks and the post-loop measurements.
	finish() error
}

func run(cfg config) (*bench, error) {
	b := &bench{cfg: cfg, tr: obs.New(), samples: map[string][]float64{}}
	if cfg.traced {
		b.tr.EnableTrace()
		b.htr = b.tr
	}
	b.tr.SetEventSink(&b.events, obs.LevelDebug)
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	b.hostProbeMS[0] = hostProbeMS()
	w := workloads[cfg.workload](b)
	if err := b.timeSetup(w); err != nil {
		return nil, err
	}

	start := time.Now()
	var last time.Duration
	for i := 0; i < cfg.minIters || time.Since(start)+last <= cfg.budget; i++ {
		itStart := time.Now()
		sp := b.htr.Span(0, "bench.iteration", obs.Int("iteration", int64(i)))
		d, err := w.iterate()
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("iteration %d: %w", i, err)
		}
		b.add("iteration_s", d.Seconds())
		last = time.Since(itStart)
		if err := b.setupsDue(time.Since(start)); err != nil {
			return nil, err
		}
	}
	if err := b.setupsDue(cfg.budget); err != nil {
		return nil, err
	}
	b.hostProbeMS[1] = hostProbeMS()
	b.samples["bench.iteration_s"] = b.samples["iteration_s"]

	if err := w.finish(); err != nil {
		return nil, err
	}
	if len(b.goalMS) > 0 {
		d := distOf(b.goalMS)
		b.add("driver.goal_ms_p50", d.Median)
		b.add("driver.goal_ms_p90", percentile(b.goalMS, 90))
		b.add("driver.goal_ms_max", d.Max)
	}
	if b.attempted > 0 {
		b.add("driver.fail_frac", float64(b.failed+b.noRule)/float64(b.attempted))
	}
	if cfg.traceOut != "" {
		if err := writeTrace(b.tr, cfg.traceOut); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// timeSetup sets w up and records the time as a setup_s sample.
func (b *bench) timeSetup(w workload) error {
	start := time.Now()
	if err := w.setup(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	b.add("setup_s", time.Since(start).Seconds())
	return nil
}

// setupsDue sets up fresh instances of the workload, discarding them,
// until setup_s has the share of its setupReps samples that elapsed is
// of the measuring time. Spread over the run like the iterations, the
// set-ups' median follows the host over the whole run, not over the
// second before the first iteration (back to back, the medians of ten
// runs spread by up to 29%; see README.md).
func (b *bench) setupsDue(elapsed time.Duration) error {
	due := setupReps
	if elapsed < b.cfg.budget {
		due = 1 + int(int64(setupReps-1)*int64(elapsed)/int64(b.cfg.budget))
	}
	for len(b.samples["setup_s"]) < due {
		if err := b.timeSetup(workloads[b.cfg.workload](b)); err != nil {
			return err
		}
	}
	return nil
}

func writeTrace(tr *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

// goalEvent is the part of the goal events the benchmark reads.
type goalEvent struct {
	T        float64 `json:"t"` // seconds since the tracer's epoch
	Event    string  `json:"event"`
	Goal     string  `json:"goal"`
	Status   string  `json:"status"`
	Patterns int     `json:"patterns"`
}

// readGoalEvents drains the event sink. A goal's synthesis time runs
// from its cegis.goal.start event to its cegis.goal.done event (the
// event timestamps have microsecond resolution; driver.goal.done's
// elapsed_ms has only milliseconds). Each driver.goal.done is counted
// by countGoal.
func (b *bench) readGoalEvents() error {
	started := map[string]float64{}
	sc := bufio.NewScanner(&b.events)
	for sc.Scan() {
		var ev goalEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("reading the event log: %w", err)
		}
		switch ev.Event {
		case "cegis.goal.start":
			started[ev.Goal] = ev.T
		case "cegis.goal.done":
			b.goalMS = append(b.goalMS, (ev.T-started[ev.Goal])*1e3)
		case "driver.goal.done":
			b.countGoal(ev.Status, ev.Patterns)
		}
	}
	b.events.Reset()
	return sc.Err()
}

// countGoal counts one finished goal as an attempted operation. A goal
// that was degraded or quarantined is a failed one. A goal that ended
// with no rule did not fail (no pattern exists within its size bound),
// but driver.fail_frac counts it.
func (b *bench) countGoal(status string, patterns int) {
	b.attempted++
	switch {
	case status == "degraded" || status == "quarantined":
		b.failed++
	case patterns == 0:
		b.noRule++
	}
}

// probeSink keeps hostProbeMS's loop from being optimized away.
var probeSink uint64

// hostProbeMS is the fastest of five runs of a fixed register-only loop.
// It runs no repository code, so it moves only with the speed the host
// gives this process: other tenants on the shared cores slow every
// workload for minutes at a time (README.md), and the detail line
// records this probe so that a slow host can be told from slow code.
func hostProbeMS() float64 {
	best := math.Inf(1)
	for r := 0; r < 5; r++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		probeSink += x
		best = min(best, ms(time.Since(start)))
	}
	return best
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// valueUnit is one metric in the result line.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// result builds the last output line. An end-to-end metric's value is
// its smallest sample (for a timing, the fastest); setup_s and every
// per-layer metric report the median. Other tenants of the shared host
// slow a varying share of the samples: the median follows that share,
// the minimum barely moves (see README.md). Counts repeat exactly, so
// for them the two agree. An end-to-end metric must have been measured;
// a per-layer one the workload does not exercise reads 0.
func (b *bench) result(specs []metricSpec) (resultLine, error) {
	res := resultLine{Correct: true, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]valueUnit{}}
	for _, s := range specs {
		v := 0.0
		if xs := b.samples[s.name]; len(xs) > 0 {
			d := distOf(xs)
			v = d.Median
			if isEndToEnd(s.name) && s.name != "setup_s" {
				v = d.Min
			}
		} else if isEndToEnd(s.name) {
			return res, fmt.Errorf("metric %s was not measured", s.name)
		}
		res.Metrics[s.name] = valueUnit{Value: v, Unit: s.unit}
	}
	return res, nil
}

func isEndToEnd(name string) bool {
	for _, s := range endToEnd {
		if s.name == name {
			return true
		}
	}
	return false
}

// detail is the first output line: the environment stamp, each
// reported metric's distribution, the pooled per-goal times and the
// time ledger.
func (b *bench) detail(specs []metricSpec) map[string]any {
	metrics := map[string]dist{}
	for _, s := range specs {
		if xs := b.samples[s.name]; len(xs) > 0 {
			metrics[s.name] = distOf(xs)
		}
	}
	d := map[string]any{
		"env":           stamp(b.cfg),
		"traced":        b.cfg.traced,
		"iterations":    len(b.samples["iteration_s"]),
		"metrics":       metrics,
		"host_probe_ms": b.hostProbeMS,
	}
	if len(b.goalMS) > 0 {
		d["goal_ms"] = distOf(b.goalMS)
	}
	if len(b.ledger) > 0 {
		d["ledger"] = b.ledger
	}
	return d
}

// dist summarizes a sample: quartiles as Python's
// statistics.quantiles(xs, n=4) computes them, plus the highest
// percentile with at least ten samples beyond it (when there is one).
type dist struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
	TailP  float64 `json:"tail_p,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
}

func distOf(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	d := dist{N: n, Min: s[0], Max: s[n-1], Q1: s[0], Q3: s[n-1]}
	if n%2 == 1 {
		d.Median = s[n/2]
	} else {
		d.Median = (s[n/2-1] + s[n/2]) / 2
	}
	if n >= 2 {
		d.Q1, d.Q3 = exclusiveQuartile(s, 1), exclusiveQuartile(s, 3)
	}
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if float64(n)*(100-p)/100 >= 10 {
			d.TailP, d.Tail = p, percentile(xs, p)
			break
		}
	}
	return d
}

// exclusiveQuartile is quartile i (1..3) of sorted s by the exclusive
// method of Python's statistics.quantiles; len(s) ≥ 2.
func exclusiveQuartile(s []float64, i int) float64 {
	ld := len(s)
	m := ld + 1
	j := i * m / 4
	j = min(max(j, 1), ld-1)
	delta := float64(i*m - j*4)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}
