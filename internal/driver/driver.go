// Package driver orchestrates whole-library synthesis runs: it groups
// goal instructions as in the paper's Table 2 (Basic, Load/Store,
// Unary, Binary, Flags — plus the BMI group of the bmi experiment),
// runs iterative CEGIS per goal, aggregates the pattern database, and
// reports per-group synthesis statistics.
package driver

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"selgen/internal/cegis"
	"selgen/internal/failpoint"
	"selgen/internal/ir"
	"selgen/internal/journal"
	"selgen/internal/obs"
	"selgen/internal/pattern"
	"selgen/internal/sem"
	"selgen/internal/x86"
)

// Group is a named set of goal instructions with a pattern-size bound.
type Group struct {
	Name string
	// Goals are synthesized independently (in parallel under
	// Options.Parallel, per §3; results merge in goal order).
	Goals []*sem.Instr
	// MaxLen bounds ℓ for this group.
	MaxLen int
	// AllSizes aggregates patterns of every size up to MaxLen (the
	// full-setup behaviour) instead of stopping at the minimal size.
	AllSizes bool
	// Ops optionally restricts the IR operation set for this group
	// (nil = the full set). Restricting the set makes large-ℓ groups
	// (like variable-count rotates at ℓ = 5) affordable, mirroring the
	// paper's per-group customization (§A.6).
	Ops []*sem.Instr
	// MaxPatternsPerGoal overrides Options.MaxPatternsPerGoal for this
	// group (0 = inherit; negative = unlimited).
	MaxPatternsPerGoal int
	// MaxPatternsPerMultiset caps each multiset's enumeration for this
	// group (0 = no cap) so prolific low-ℓ multisets cannot starve the
	// rest of the sweep.
	MaxPatternsPerMultiset int
	// FreezeArgWitnesses enables cegis.Config.FreezeArgWitnesses for
	// this group (needed where precondition carving floods the sweep,
	// e.g. rotates).
	FreezeArgWitnesses bool
}

// GroupReport is one row of Table 2.
type GroupReport struct {
	Name     string
	Goals    int
	Patterns int
	MaxSize  int
	Elapsed  time.Duration
	// Solver aggregates the group's engine and solver effort.
	Solver SolverEffort
	// Per-goal disposition counts (see GoalStatus); OK + Retried +
	// Degraded + Quarantined = Goals. Replayed counts goals restored
	// from a resume journal instead of synthesized (already included in
	// the other four by their recorded status).
	OK, Retried, Degraded, Quarantined, Replayed int
	// QuarantinedGoals names the goals quarantined in this group.
	QuarantinedGoals []string
}

// SolverEffort aggregates synthesis-engine and SMT-solver counters
// across the goals of a group (or a whole run).
type SolverEffort struct {
	SynthQueries, VerifyQueries int64
	Conflicts, Restarts         int64
	BlastHits, BlastMisses      int64
	// CexReused counts cached counterexamples from earlier multisets
	// promoted into later encodings; PrefilterKills counts candidates
	// the concrete prefilter eliminated without an SMT query.
	CexReused, PrefilterKills int64
	QueryTimeouts             int64
}

func (s *SolverEffort) add(o SolverEffort) {
	s.SynthQueries += o.SynthQueries
	s.VerifyQueries += o.VerifyQueries
	s.Conflicts += o.Conflicts
	s.Restarts += o.Restarts
	s.BlastHits += o.BlastHits
	s.BlastMisses += o.BlastMisses
	s.CexReused += o.CexReused
	s.PrefilterKills += o.PrefilterKills
	s.QueryTimeouts += o.QueryTimeouts
}

// BlastHitRate is the bit-blast term-cache hit rate in [0, 1]; it
// measures how much re-blasting incremental solving avoided.
func (s SolverEffort) BlastHitRate() float64 {
	if s.BlastHits+s.BlastMisses == 0 {
		return 0
	}
	return float64(s.BlastHits) / float64(s.BlastHits+s.BlastMisses)
}

func effortOf(e *cegis.Engine) SolverEffort {
	st := e.SolverStats()
	return SolverEffort{
		SynthQueries:   e.Stats.SynthQueries,
		VerifyQueries:  e.Stats.VerifyQueries,
		Conflicts:      st.Conflicts,
		Restarts:       st.Restarts,
		BlastHits:      st.BlastHits,
		BlastMisses:    st.BlastMisses,
		CexReused:      e.Stats.CexReused,
		PrefilterKills: e.Stats.PrefilterKills,
		QueryTimeouts:  e.Stats.QueryTimeouts,
	}
}

// Report covers a whole run.
type Report struct {
	Groups []GroupReport
	Total  GroupReport
	// Metrics is the run's metric registry (counters and latency /
	// conflict histograms collected by the observability layer).
	Metrics *obs.Registry
	// MeanRuleCost is the mean cycle cost of the library's rules after
	// dedup and dominance pruning (0 for an empty library).
	MeanRuleCost float64
	// RulesDominated counts rules the library-level dominance prune
	// dropped (always 0 under Options.DisableCostAware).
	RulesDominated int
	// JournalDuplicates counts duplicated goal records found in the
	// resume journal (Options.ResumeDuplicates): the first occurrence
	// was replayed, the rest ignored. Non-zero only for journals merged
	// from reassigned farm leases — a single-process journal never
	// duplicates a goal, so the count doubles as a corruption signal.
	JournalDuplicates int
	// Interrupted marks a run stopped early by Options.Stop: every
	// finished goal is journaled and reported, the rest were never
	// started.
	Interrupted bool
}

// WriteTable renders the report like the paper's Table 2, followed by
// a solver-effort section (queries, conflicts, cache effectiveness)
// and, when metrics were collected, the registry's histogram summary.
func (r *Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-12s %7s %9s %5s %14s\n", "Group", "#Goals", "Patterns", "Size", "Synthesis Time")
	for _, g := range r.Groups {
		fmt.Fprintf(w, "%-12s %7d %9d %5d %14s\n", g.Name, g.Goals, g.Patterns, g.MaxSize, g.Elapsed.Round(time.Millisecond))
	}
	fmt.Fprintf(w, "%-12s %7d %9d %5d %14s\n", "Total", r.Total.Goals, r.Total.Patterns, r.Total.MaxSize, r.Total.Elapsed.Round(time.Millisecond))
	if r.MeanRuleCost > 0 {
		fmt.Fprintf(w, "%-12s mean rule cost %.2f cycles, %d dominated rules pruned\n",
			"Cost", r.MeanRuleCost, r.RulesDominated)
	}
	fmt.Fprintf(w, "%-12s %9s %9s %10s %6s %8s %7s %8s\n",
		"Solver", "SynthQ", "VerifyQ", "Conflicts", "Blast%", "CexReuse", "Kills", "Timeouts")
	for _, g := range r.Groups {
		writeEffortRow(w, g.Name, g.Solver)
	}
	writeEffortRow(w, "Total", r.Total.Solver)
	if n := r.Total.Retried + r.Total.Degraded + r.Total.Quarantined + r.Total.Replayed; n > 0 {
		// Status breakdown, shown only when something abnormal happened:
		// an all-OK run keeps the clean Table 2 shape.
		fmt.Fprintf(w, "%-12s %7s %9s %10s %13s %10s\n",
			"Status", "OK", "Retried", "Degraded", "Quarantined", "Replayed")
		for _, g := range r.Groups {
			writeStatusRow(w, g)
		}
		writeStatusRow(w, r.Total)
		for _, g := range r.Groups {
			for _, name := range g.QuarantinedGoals {
				fmt.Fprintf(w, "  quarantined: %s/%s\n", g.Name, name)
			}
		}
	}
	if r.JournalDuplicates > 0 {
		fmt.Fprintf(w, "%-12s %d duplicate journal record(s) ignored (first occurrence replayed)\n",
			"Journal", r.JournalDuplicates)
	}
	if r.Interrupted {
		fmt.Fprintf(w, "%-12s run stopped early; %d goal(s) finished, the rest never started\n",
			"Interrupted", r.Total.Goals)
	}
	if r.Metrics != nil {
		fmt.Fprintln(w)
		r.Metrics.WriteSummary(w)
	}
}

func writeStatusRow(w io.Writer, g GroupReport) {
	fmt.Fprintf(w, "%-12s %7d %9d %10d %13d %10d\n",
		g.Name, g.OK, g.Retried, g.Degraded, g.Quarantined, g.Replayed)
}

func writeEffortRow(w io.Writer, name string, s SolverEffort) {
	fmt.Fprintf(w, "%-12s %9d %9d %10d %5.1f%% %8d %7d %8d\n",
		name, s.SynthQueries, s.VerifyQueries, s.Conflicts,
		100*s.BlastHitRate(), s.CexReused, s.PrefilterKills, s.QueryTimeouts)
}

// BasicSetup returns the paper's basic setup (§7.1): register variants
// only, minimal synthesis time, full coverage. MaxLen 3 is needed
// because cmp.js/jns (sign of x−y) require Cmp[slt](Sub(x,y), Const 0).
func BasicSetup() []Group {
	return []Group{{Name: "Basic", Goals: x86.BasicGroup(), MaxLen: 3}}
}

// FullSetup returns the scaled-down analogue of the paper's full setup:
// the basic goals plus addressing-mode loads/stores, unary and binary
// memory variants, immediate forms, lea shapes, the flags group, and
// the BMI extensions. Pattern sizes up to 4 are explored (the paper
// reaches 7 at vastly larger time budgets; see DESIGN.md).
func FullSetup() []Group {
	loadStoreAMs := []x86.AM{
		{Base: true},
		{Base: true, Disp: true},
		{Base: true, Index: true, Scale: 2},
		{Base: true, Index: true, Scale: 4},
		{Base: true, Index: true, Scale: 8},
	}
	memAMs := []x86.AM{{Base: true}}

	var binary []*sem.Instr
	bases := []*sem.Instr{
		x86.AddInstr(), x86.AndInstr(), x86.OrInstr(), x86.SubInstr(), x86.XorInstr(),
	}
	binary = append(binary, bases...)
	binary = append(binary, x86.Sar(), x86.ShlInstr(), x86.ShrInstr())
	for _, b := range bases {
		binary = append(binary, x86.Imm(b))
	}
	for _, am := range []x86.AM{
		{Base: true, Index: true, Scale: 2},
		{Base: true, Index: true, Scale: 4},
		{Base: true, Index: true, Scale: 8},
		{Base: true, Index: true, Scale: 4, Disp: true},
	} {
		binary = append(binary, x86.Lea(am))
	}
	for _, b := range bases {
		for _, am := range memAMs {
			binary = append(binary, x86.BinMemSrc(b, am), x86.BinMemDst(b, am))
		}
	}

	return []Group{
		{Name: "Basic", Goals: x86.BasicGroup(), MaxLen: 2},
		{Name: "Load/Store", Goals: x86.LoadStoreGroup(loadStoreAMs), MaxLen: 4, AllSizes: true},
		{Name: "Unary", Goals: x86.UnaryGroup(memAMs), MaxLen: 3, AllSizes: true},
		{Name: "Binary", Goals: binary, MaxLen: 3, AllSizes: true},
		{Name: "Flags", Goals: x86.FlagsGroup(), MaxLen: 3, AllSizes: true},
		{Name: "BMI", Goals: x86.BMIGroup(), MaxLen: 3, AllSizes: true},
	}
}

// RotateSetup returns the variable-count rotate goals as a standalone
// group: their canonical pattern or(shl(x,c), shr(x, W−c)) has ℓ = 5,
// which needs a restricted component set, an all-sizes sweep, and a
// per-multiset cap to stay affordable. Not part of FullSetup's default
// budget — the residual full-vs-handwritten gap in Table 1 is largely
// these rules (cf. §7.3's discussion of handwritten tricks).
func RotateSetup() []Group {
	rotOps := []*sem.Instr{
		ir.Shl(), ir.Shr(), ir.Sub(), ir.Or(), ir.And(), ir.Const(),
	}
	return []Group{{
		Name: "Rotate", Goals: []*sem.Instr{x86.Rol(), x86.Ror()},
		MaxLen: 5, Ops: rotOps, AllSizes: true,
		MaxPatternsPerGoal: -1, MaxPatternsPerMultiset: 4,
		FreezeArgWitnesses: true,
	}}
}

// BMISetup returns just the BMI group (the five-minute bmi.sh
// experiment of the artifact, §A.4).
func BMISetup() []Group {
	return []Group{{Name: "BMI", Goals: x86.BMIGroup(), MaxLen: 3, AllSizes: true}}
}

// QuickSetup returns a small smoke-test group (the quickstart goals):
// seconds of synthesis, exercising register, memory, and flags goals.
// CI uses it to validate end-to-end runs and trace output cheaply. The
// sweep is all-sizes so the quickstart exercises the cost-aware
// dominance filter (a minimal sweep stops before any dominated
// multiset is reachable).
func QuickSetup() []Group {
	return []Group{{
		Name: "Quick",
		Goals: []*sem.Instr{
			x86.Inc(), x86.Andn(), x86.AddInstr(),
			x86.BinMemSrc(x86.AddInstr(), x86.AM{Base: true}),
			x86.CmpJcc(x86.CCB),
		},
		MaxLen:   2,
		AllSizes: true,
	}}
}

// Options configure a run.
type Options struct {
	// Target names the machine backend the groups' goals belong to
	// ("" = "x86"). Synthesis itself is target-agnostic — the goals
	// carry their own semantics — but the name is part of ConfigHash
	// and the journal header, so a resume journal written for one ISA
	// can never be replayed into a run for another.
	Target string
	Width  int
	// QueryConflicts caps individual SMT queries.
	QueryConflicts int64
	// PerGoalTimeout bounds each goal's synthesis (0 = none).
	PerGoalTimeout time.Duration
	// MaxPatternsPerGoal caps enumeration per goal (0 = unlimited).
	MaxPatternsPerGoal int
	// Seed drives test-case seeding.
	Seed int64
	// Parallel runs up to this many goal syntheses concurrently
	// (0 or 1 = sequential). Per §3 the pattern database aggregates
	// results from parallel synthesizer runs; results are merged in
	// goal order, so the library is deterministic regardless.
	Parallel int
	// SatWorkers is a compatibility stub: the SAT search is sequential,
	// so only 0 and 1 are accepted (Options.Check).
	SatWorkers int
	// Progress, when non-nil, receives per-goal progress lines.
	Progress io.Writer
	// Obs, when non-nil, collects spans and metrics for the run. Run
	// creates a metrics-only tracer when nil, so Report.Metrics is
	// always populated; attach trace/progress sinks to a caller-owned
	// tracer (see cmd/selgen's -trace flag).
	Obs *obs.Tracer
	// MaxRetries sets the retry-ladder depth for goals that fail with a
	// retryable (budget) error: 0 means DefaultRetries; a negative
	// depth is rejected (Options.Check).
	MaxRetries int
	// Journal, when non-nil, receives a crash-safe checkpoint record
	// the moment each goal finishes (see package journal). Append
	// failures are reported and counted, never fatal.
	Journal *journal.Writer
	// Resume maps journal keys (journal.Key) to recovered records:
	// goals found here are replayed from the journal instead of
	// synthesized, and are not re-appended. Populate it from
	// journal.Resume's Recovered.Index().
	Resume map[string]journal.GoalRecord
	// ResumeDuplicates lists the duplicated record keys the journal
	// scan ignored (journal.Recovered.Duplicates). Run logs each as a
	// driver.journal.duplicate event and surfaces the count in the
	// report, so a duplicate never passes silently.
	ResumeDuplicates []string
	// Stop, when non-nil, requests a graceful early exit: Run checks it
	// before starting each goal, lets the goals already in flight
	// finish (and journal), skips the rest, and returns ErrInterrupted
	// alongside the partial library and report. SIGINT/SIGTERM handling
	// in the CLIs closes this channel.
	Stop <-chan struct{}
	// Faults, when non-nil, arms fault-injection points throughout the
	// stack (driver, cegis, smt, sat, journal). Nil in production.
	Faults *failpoint.Registry
	// State, when non-nil, receives per-goal live run state (pending →
	// running → terminal status, current retry rung, counterexamples so
	// far) for the telemetry server's /goals endpoint. Nil costs
	// nothing.
	State *RunState
	// DisableCostAware turns cost-aware synthesis off (the ablation
	// reproducing the exhaustive behaviour): multisets enumerate
	// size-major instead of cost-ascending, no dominance filtering at
	// enumeration time, and no library-level dominated-rule pruning.
	DisableCostAware bool
}

// ErrInterrupted reports a run stopped early through Options.Stop. The
// library and report returned alongside it cover the goals that
// finished (all journaled); classify with errors.Is.
var ErrInterrupted = errors.New("driver: run interrupted")

// stopRequested polls a Stop channel without blocking (nil = never).
func stopRequested(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// Run synthesizes all groups into one library. Every searched goal
// (Plan) takes the path a farm worker's goals take (GoalRunner):
// journal replay or the retry ladder behind a panic boundary
// (retry.go), the journal append, the live state and the
// driver.goal.done event. max(Parallel, 1) goroutines take the searched
// goals in goal order, with no barrier between groups, and fold derives
// the other goals and aggregates the outcomes in goal order, so the
// library does not depend on Parallel. Run only fails on setup errors:
// a goal that cannot be synthesized is degraded or quarantined and
// reported, never fatal.
func Run(groups []Group, opts Options) (*pattern.Library, *Report, error) {
	r, err := NewGoalRunner(groups, opts)
	if err != nil {
		return nil, nil, err
	}
	opts, tr := r.opts, r.tr
	plan := newPlan(groups, opts)

	// Publish the whole run plan up front so /goals shows every goal
	// (pending and derived ones included) from the first scrape.
	for _, k := range plan.keys {
		opts.State.register(k.Group, k.Index, k.Goal)
	}

	// Cost audit: the cycle model treats a zero Cost as the default 1,
	// which silently skews cost-aware enumeration when a machine-spec
	// instruction simply forgot its cost. Surface every fallback.
	for _, grp := range groups {
		for _, g := range grp.Goals {
			if g.Cost == 0 {
				tr.Add("driver.cost.default_cost_goals", 1)
				tr.Eventf(obs.LevelWarn, "driver.cost.default",
					[]obs.Arg{obs.Str("group", grp.Name), obs.Str("goal", g.Name),
						obs.Int("cost", int64(g.CostOrDefault()))},
					"driver: %s/%s carries no explicit cost; using default %d cycle(s)\n",
					grp.Name, g.Name, g.CostOrDefault())
			}
		}
	}

	if n := len(opts.ResumeDuplicates); n > 0 {
		tr.Add("driver.journal.duplicate", int64(n))
		for _, key := range opts.ResumeDuplicates {
			tr.Eventf(obs.LevelWarn, "driver.journal.duplicate",
				[]obs.Arg{obs.Str("key", key)},
				"  journal: duplicate record for %s ignored (first occurrence replayed)\n", key)
		}
	}

	outs := make([]*goalOut, len(plan.keys))
	work := plan.searched()
	var next atomic.Int64
	var wg sync.WaitGroup
	for range max(opts.Parallel, 1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Graceful stop: no new goal starts; the goals in flight
			// run to completion and journal their records.
			for !stopRequested(opts.Stop) {
				n := int(next.Add(1)) - 1
				if n >= len(work) {
					return
				}
				i := work[n]
				// A failed journal append costs the checkpoint, never
				// the goal; run has logged and counted it.
				out, _ := r.run(plan.keys[i])
				outs[i] = &out
			}
		}()
	}
	wg.Wait()

	lib, rep := plan.fold(outs, tr)
	rep.Metrics = tr.Metrics()
	rep.JournalDuplicates = len(opts.ResumeDuplicates)
	if slices.Contains(outs, nil) {
		rep.Interrupted = true
		tr.Add("driver.interrupted", 1)
		tr.Eventf(obs.LevelWarn, "driver.interrupted",
			[]obs.Arg{obs.Int("goals_done", int64(rep.Total.Goals))},
			"driver: interrupted after %d goal(s); in-flight goals were journaled\n",
			rep.Total.Goals)
		return lib, rep, ErrInterrupted
	}
	return lib, rep, nil
}

// fold aggregates goal outcomes into the library and its report:
// outs[i] is the outcome of p.keys[i], nil for a goal that never
// started or is derived. Goals contribute in goal order. A derived goal
// whose source finished is derived here (derive), its outcome stored in
// outs, its /goals row finished and its driver.goal.done event logged;
// one whose source never finished stays nil. Each rule's cycle cost is
// recomputed from its pattern (so replayed rules cost what fresh ones
// do), then the library is deduplicated, dominance-pruned and put in
// canonical order. Run and Plan.Assemble both fold through here, which
// is what makes a farm merge byte-identical to a single-process run. A
// group's Elapsed sums its searched goals' synthesis times at a journal
// record's millisecond resolution, so it reads the same for a run, a
// resumed run and a merge; derivations add none.
func (p *Plan) fold(outs []*goalOut, tr *obs.Tracer) (*pattern.Library, *Report) {
	opts := p.opts
	lib := &pattern.Library{Width: opts.Width}
	rep := &Report{Total: GroupReport{Name: "Total"}}
	ops := ir.Ops()
	i := 0
	for _, grp := range p.groups {
		gr := GroupReport{Name: grp.Name}
		goalOps, _ := groupParams(grp, opts, ops)
		for _, goal := range grp.Goals {
			if src := p.from[i]; src >= 0 && outs[src] != nil {
				d := derive(goal, p.keys[src].Goal, *outs[src], goalOps, opts, tr)
				outs[i] = &d
				opts.State.finish(p.keys[i].Key(), d)
				logDone(tr, p.keys[i], d)
			}
			o := outs[i]
			i++
			if o == nil {
				continue
			}
			gr.Goals++
			for _, pat := range o.res.Patterns {
				lib.Add(pattern.Rule{Goal: goal.Name, GoalCost: goal.CostOrDefault(),
					Cost: pat.CycleCost(goalOps), Pattern: pat})
				gr.MaxSize = max(gr.MaxSize, pat.Size())
			}
			gr.Patterns += len(o.res.Patterns)
			if o.derivedFrom == "" {
				gr.Elapsed += o.res.Elapsed.Truncate(time.Millisecond)
			}
			gr.Solver.add(o.effort)
			switch o.status {
			case StatusOK:
				gr.OK++
			case StatusRetried:
				gr.Retried++
			case StatusDegraded:
				gr.Degraded++
			case StatusQuarantined:
				gr.Quarantined++
				gr.QuarantinedGoals = append(gr.QuarantinedGoals, goal.Name)
			}
			if o.replayed {
				gr.Replayed++
			}
		}
		rep.Groups = append(rep.Groups, gr)
		t := &rep.Total
		t.Goals += gr.Goals
		t.Patterns += gr.Patterns
		t.MaxSize = max(t.MaxSize, gr.MaxSize)
		t.Elapsed += gr.Elapsed
		t.Solver.add(gr.Solver)
		t.OK += gr.OK
		t.Retried += gr.Retried
		t.Degraded += gr.Degraded
		t.Quarantined += gr.Quarantined
		t.Replayed += gr.Replayed
	}
	lib.Dedup()
	if !opts.DisableCostAware {
		if n := lib.PruneDominated(ops); n > 0 {
			rep.RulesDominated = n
			tr.Add("cegis.cost.rules_dominated", int64(n))
		}
	}
	lib.SortCanonical()
	if len(lib.Rules) > 0 {
		total := 0
		for _, rl := range lib.Rules {
			c := rl.Cost
			if c == 0 {
				c = rl.Pattern.CycleCost(ops)
			}
			total += c
		}
		rep.MeanRuleCost = float64(total) / float64(len(lib.Rules))
	}
	return lib, rep
}
