// Per-goal fault tolerance: the retry ladder, the panic quarantine, and
// the error classification that decides between them. A goal that blows
// its budget (deadline, SMT conflict budget) is retried with escalating
// resources — a longer timeout, finally the classical non-incremental
// pipeline — while a goal that hits a bug (a panic anywhere below the
// driver, an internal solver error) is quarantined: recorded with its
// stack, reported, and skipped, so one broken goal never kills a whole
// library run.

package driver

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"selgen/internal/cegis"
	"selgen/internal/failpoint"
	"selgen/internal/journal"
	"selgen/internal/obs"
	"selgen/internal/sem"
	"selgen/internal/smt"
)

// GoalStatus is a goal's terminal disposition within a run.
type GoalStatus int

const (
	// StatusOK: synthesized on the first attempt.
	StatusOK GoalStatus = iota
	// StatusRetried: failed at least one attempt with a retryable error
	// but succeeded on a later rung of the ladder.
	StatusRetried
	// StatusDegraded: every rung failed with a retryable error; the last
	// attempt's partial patterns (all individually verified) are kept.
	StatusDegraded
	// StatusQuarantined: the goal hit a non-retryable error (typically a
	// panic converted at a package boundary); its patterns are dropped
	// and the run continues without it.
	StatusQuarantined
)

func (s GoalStatus) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusRetried:
		return "retried"
	case StatusDegraded:
		return "degraded"
	case StatusQuarantined:
		return "quarantined"
	}
	return fmt.Sprintf("GoalStatus(%d)", int(s))
}

func statusFromString(s string) GoalStatus {
	switch s {
	case "retried":
		return StatusRetried
	case "degraded":
		return StatusDegraded
	case "quarantined":
		return StatusQuarantined
	}
	return StatusOK
}

// ErrGoalPanic marks a panic that escaped the synthesis engine and was
// caught at the driver's per-goal boundary (classify with errors.Is).
var ErrGoalPanic = errors.New("driver: goal panicked")

// DefaultRetries is the ladder depth used when Options.MaxRetries is 0.
const DefaultRetries = 2

// Rung is one step of the retry ladder: the resources granted to one
// synthesis attempt.
type Rung struct {
	// Timeout is the attempt's wall-clock budget (0 = none).
	Timeout time.Duration
	// Classical reverts to the non-incremental CEGIS pipeline — fresh
	// solver state per multiset and per query — trading speed for
	// minimal shared state, the last resort when incremental runs keep
	// blowing the budget.
	Classical bool
}

// Ladder returns the attempt sequence one goal runs under opts. Rung 0
// is the configured budget (PerGoalTimeout); rung 1 doubles the
// timeout; rung 2 quadruples the timeout (the cap) and falls back to
// classical CEGIS; deeper ladders (MaxRetries) repeat the rung-2 shape.
// The farm coordinator derives each lease's deadline from it.
func Ladder(opts Options) []Rung {
	base := Rung{Timeout: opts.PerGoalTimeout}
	retries := opts.MaxRetries
	if retries == 0 {
		retries = DefaultRetries
	}
	rungs := []Rung{base}
	for i := 1; i <= retries; i++ {
		rungs = append(rungs, Rung{
			Timeout:   base.Timeout * time.Duration(1<<min(i, 2)),
			Classical: i >= 2,
		})
	}
	return rungs
}

// retryable reports whether the error is a budget exhaustion a bigger
// budget might cure, as opposed to a bug (panic, internal error) that
// would only recur.
func retryable(err error) bool {
	return errors.Is(err, cegis.ErrDeadline) || errors.Is(err, smt.ErrBudget)
}

// goalOut is one goal's terminal outcome.
type goalOut struct {
	res      *cegis.Result
	err      error
	effort   SolverEffort
	status   GoalStatus
	attempts int
	replayed bool
	// derivedFrom names the goal a derived goal's rules come from
	// (derive.go); empty for a searched goal.
	derivedFrom string
}

// replayed is the outcome a journal record stands for: what a resumed
// run replays instead of synthesizing, and what AssembleLibrary folds.
func replayed(rec journal.GoalRecord) goalOut {
	return goalOut{
		res: &cegis.Result{
			Patterns: rec.Patterns,
			MinLen:   rec.MinLen,
			Elapsed:  time.Duration(rec.ElapsedMS) * time.Millisecond,
		},
		status:   statusFromString(rec.Status),
		attempts: rec.Attempts,
		replayed: true,
	}
}

// synthesizeWithRetries walks the goal up the retry ladder. A clean
// attempt wins immediately; a non-retryable error quarantines the goal;
// exhausting the ladder on retryable errors degrades it, keeping the
// last attempt's verified partial patterns.
func (g *GoalRunner) synthesizeWithRetries(grp Group, key string, goal *sem.Instr, goalOps []*sem.Instr, perGoal int) goalOut {
	rungs := Ladder(g.opts)
	var out goalOut
	for ai, rg := range rungs {
		var live *cegis.LiveStats
		if g.opts.State != nil {
			live = new(cegis.LiveStats)
		}
		g.opts.State.startAttempt(key, ai, live)
		res, effort, err := g.attemptGoal(grp, goal, goalOps, perGoal, rg, live)
		out.effort.add(effort)
		out.attempts = ai + 1
		out.res, out.err = res, err
		if err == nil {
			if ai > 0 {
				out.status = StatusRetried
				g.tr.Add("driver.retry.recovered", 1)
			}
			break
		}
		if !retryable(err) {
			out.status = StatusQuarantined
			g.tr.Add("driver.quarantine", 1)
			break
		}
		if ai < len(rungs)-1 {
			g.tr.Add("driver.retry.attempts", 1)
			g.tr.Event(obs.LevelInfo, "driver.goal.retry",
				obs.Str("group", grp.Name), obs.Str("goal", goal.Name),
				obs.Int("rung", int64(ai+1)),
				obs.Str("error", firstLine(err.Error())))
			continue
		}
		out.status = StatusDegraded
		g.tr.Add("driver.retry.exhausted", 1)
	}
	if out.res == nil {
		out.res = &cegis.Result{Goal: goal}
	}
	if out.status == StatusQuarantined {
		// A quarantined goal contributes nothing: its engine died mid-
		// enumeration, so any patterns it found are discarded along with
		// the goal rather than shipping a visibly truncated rule set.
		out.res = &cegis.Result{Goal: goal}
	}
	return out
}

// attemptGoal runs one synthesis attempt under the rung's budget. It is
// the driver's panic boundary: whatever escapes the engine (or the
// engine construction itself) is converted to an error wrapping
// ErrGoalPanic, with the stack attached for the quarantine report.
func (g *GoalRunner) attemptGoal(grp Group, goal *sem.Instr, goalOps []*sem.Instr, perGoal int, rg Rung, live *cegis.LiveStats) (res *cegis.Result, effort SolverEffort, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			g.tr.Add("driver.goal_panics", 1)
			err = fmt.Errorf("driver: goal %s: %w: %v\n%s",
				goal.Name, ErrGoalPanic, rec, debug.Stack())
		}
	}()
	if g.opts.Faults.Active(failpoint.DriverGoalPanic) {
		panic("failpoint: injected driver goal panic")
	}
	cfg := cegis.Config{
		Width:                  g.opts.Width,
		MaxLen:                 grp.MaxLen,
		QueryConflicts:         g.opts.QueryConflicts,
		MaxPatternsPerGoal:     perGoal,
		MaxPatternsPerMultiset: grp.MaxPatternsPerMultiset,
		FreezeArgWitnesses:     grp.FreezeArgWitnesses,
		Seed:                   g.opts.Seed,
		DisableIncremental:     rg.Classical,
		DisableCostAware:       g.opts.DisableCostAware,
		Obs:                    g.tr,
		Live:                   live,
		Faults:                 g.opts.Faults,
	}
	if rg.Timeout > 0 {
		cfg.Deadline = time.Now().Add(rg.Timeout)
	}
	e := cegis.New(goalOps, cfg)
	// Registered after the engine exists, so an attempt that panics
	// mid-synthesis still reports the effort it burned.
	defer func() { effort = effortOf(e) }()
	if grp.AllSizes {
		res, err = e.SynthesizeAllSizes(goal)
	} else {
		res, err = e.Synthesize(goal)
	}
	return res, effort, err
}

// journalAppend records a freshly synthesized goal in the run journal
// and returns the append error. Run reports and counts it but never
// fails on it — losing checkpoint durability is strictly better than
// losing the run — while GoalRunner.Run returns it to the farm worker.
func (g *GoalRunner) journalAppend(key GoalKey, out goalOut) error {
	if g.opts.Journal == nil {
		return nil
	}
	if err := g.opts.Journal.Append(recordOf(key, out)); err != nil {
		g.tr.Add("driver.journal.errors", 1)
		g.tr.Eventf(obs.LevelWarn, "driver.journal.error",
			[]obs.Arg{obs.Str("group", key.Group), obs.Str("goal", key.Goal)},
			"  journal: %v\n", err)
		return err
	}
	return nil
}

// logDone emits the goal's driver.goal.done event — its progress line —
// and, for a goal quarantined in this process, driver.goal.quarantine.
// A derived goal's event carries derived_from, and its elapsed time is
// the derivation's.
func logDone(tr *obs.Tracer, key GoalKey, o goalOut) {
	group, goal := key.Group, key.Goal
	status, tag := "", o.status.String()
	switch {
	case o.replayed:
		status, tag = " (replayed)", "replayed"
	case o.status == StatusQuarantined:
		status = " (quarantined)"
	case o.derivedFrom != "":
		status = " (derived from " + o.derivedFrom + ")"
	case errors.Is(o.err, cegis.ErrDeadline):
		status = " (timeout)"
	case o.status == StatusRetried:
		status = fmt.Sprintf(" (ok after %d attempts)", o.attempts)
	}
	ef := o.effort
	args := []obs.Arg{
		obs.Str("group", group), obs.Str("goal", goal),
		obs.Str("status", tag),
		obs.Int("attempts", int64(o.attempts)),
		obs.Int("patterns", int64(len(o.res.Patterns))),
		obs.Int("elapsed_ms", o.res.Elapsed.Milliseconds()),
		obs.Int("conflicts", ef.Conflicts),
		obs.Int("timeouts", ef.QueryTimeouts),
	}
	if o.derivedFrom != "" {
		args = append(args, obs.Str("derived_from", o.derivedFrom))
	}
	tr.Eventf(obs.LevelInfo, "driver.goal.done", args,
		"  %-24s %4d patterns in %s%s [checks %d+%d, conflicts %d, blast %.0f%%, cex reuse %d, kills %d, timeouts %d]\n",
		goal, len(o.res.Patterns), o.res.Elapsed.Round(time.Millisecond), status,
		ef.SynthQueries, ef.VerifyQueries, ef.Conflicts,
		100*ef.BlastHitRate(), ef.CexReused, ef.PrefilterKills, ef.QueryTimeouts)
	if o.status == StatusQuarantined && o.err != nil {
		tr.Eventf(obs.LevelError, "driver.goal.quarantine",
			[]obs.Arg{obs.Str("group", group), obs.Str("goal", goal),
				obs.Str("error", firstLine(o.err.Error()))},
			"  %-24s      quarantined: %s\n", "", firstLine(o.err.Error()))
	}
}

// recordOf converts a goal's terminal outcome into its journal record.
func recordOf(key GoalKey, out goalOut) journal.GoalRecord {
	rec := journal.GoalRecord{
		Group:    key.Group,
		Index:    key.Index,
		Goal:     key.Goal,
		Status:   out.status.String(),
		Attempts: out.attempts,
		MinLen:   out.res.MinLen,
		Patterns: out.res.Patterns,
	}
	if out.res.Elapsed > 0 {
		rec.ElapsedMS = out.res.Elapsed.Milliseconds()
	}
	if out.err != nil {
		rec.Err = firstLine(out.err.Error())
	}
	return rec
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
