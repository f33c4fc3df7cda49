// Farm-facing driver surface. A distributed synthesis farm splits the
// work Run does in-process into three pieces, and Run is built from the
// same three, so the merged library is byte-identical to a
// single-process run:
//
//   - Plan.Searched lists the coordinator's work list: the goals a run
//     searches, in the group/goal order Run starts goals in (derive.go
//     says which goals are derived instead).
//   - GoalRunner runs one goal at a time. Run itself goes through it,
//     so a farmed goal's journal record is byte-for-byte the record a
//     single-process run writes.
//   - Plan.Assemble folds a complete set of journal records back into
//     a library through Run's own fold (goal order, derivation, costs,
//     dedup, dominance pruning, canonical order), so the merge is
//     deterministic no matter which worker ran which goal, in what
//     order, or how many times a reclaimed lease made a goal finish.
//
// Synthesis is deterministic per goal (same config ⇒ same patterns), so
// these three pieces together give the farm its core guarantee: merged
// shards reproduce the uninterrupted single-process library.

package driver

import (
	"fmt"

	"selgen/internal/ir"
	"selgen/internal/journal"
	"selgen/internal/obs"
	"selgen/internal/pattern"
	"selgen/internal/sem"
)

// GoalKey identifies one goal within a setup — the unit of farm work
// and of lease assignment. Its Key() string form matches journal.Key,
// so a lease, its journal record, and its live-state row all share one
// identity.
type GoalKey struct {
	Group string `json:"group"`
	Index int    `json:"index"`
	Goal  string `json:"goal"`
}

// Key returns the goal's journal key ("group/index/goal").
func (k GoalKey) Key() string { return journal.Key(k.Group, k.Index, k.Goal) }

// GoalKeys flattens a setup into its goal list, in the group/goal
// order Run dispatches and the fold merges.
func GoalKeys(groups []Group) []GoalKey {
	var keys []GoalKey
	for _, grp := range groups {
		for gi, g := range grp.Goals {
			keys = append(keys, GoalKey{Group: grp.Name, Index: gi, Goal: g.Name})
		}
	}
	return keys
}

// groupParams resolves a group's effective op set and per-goal pattern
// cap against the run options (the synthesis and the fold share it).
func groupParams(grp Group, opts Options, ops []*sem.Instr) ([]*sem.Instr, int) {
	goalOps := ops
	if grp.Ops != nil {
		goalOps = grp.Ops
	}
	perGoal := opts.MaxPatternsPerGoal
	if grp.MaxPatternsPerGoal > 0 {
		perGoal = grp.MaxPatternsPerGoal
	} else if grp.MaxPatternsPerGoal < 0 {
		perGoal = 0
	}
	return goalOps, perGoal
}

// Check rejects options outside their accepted range: a word width
// outside 0..64 (0 selects 8), more than one SAT worker (the SAT search
// is sequential, so only 0 and 1 are accepted), and a negative
// retry-ladder depth. Run, NewGoalRunner and NewPlan apply it
// before any goal starts; the CLIs apply it to the options their flags
// build and exit 2 on an error.
func (o Options) Check() error {
	if o.Width < 0 || o.Width > 64 {
		return fmt.Errorf("driver: word width %d is outside 1..64 (0 selects 8)", o.Width)
	}
	if o.SatWorkers > 1 {
		return fmt.Errorf("driver: %d SAT workers requested, but the SAT search is sequential (only 0 and 1 are accepted)", o.SatWorkers)
	}
	if o.MaxRetries < 0 {
		return fmt.Errorf("driver: retry-ladder depth %d is negative (0 selects the default %d)", o.MaxRetries, DefaultRetries)
	}
	return nil
}

// withDefaults applies Run's option defaults; ConfigHash hashes the
// options it returns.
func (o Options) withDefaults() Options {
	if o.Width == 0 {
		o.Width = 8
	}
	if o.QueryConflicts == 0 {
		// Generous per-query bound: ordinary queries at width 8 take a
		// few thousand conflicts; a multiset blowing this budget is
		// abandoned (Stats.QueryTimeouts) rather than stalling the run.
		o.QueryConflicts = 200_000
	}
	return o
}

// normalize checks opts and applies Run's option defaults.
func (o Options) normalize() (Options, error) {
	if err := o.Check(); err != nil {
		return o, err
	}
	return o.withDefaults(), nil
}

// GoalRunner runs goals: the one pipeline behind both Run, which hands
// it every goal of the setup, and a farm worker, which hands it goals
// one lease at a time. Either way a goal produces the same journal
// record.
type GoalRunner struct {
	byName map[string]*Group
	opts   Options
	tr     *obs.Tracer
	ops    []*sem.Instr
}

// NewGoalRunner prepares a runner over the setup's groups with the same
// defaults Run applies. Options.Journal should be the worker's shard;
// Options.Resume (from resuming that shard) makes already-journaled
// goals replay instead of re-synthesizing, so a crash-restarted worker
// never redoes durable work.
func NewGoalRunner(groups []Group, opts Options) (*GoalRunner, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	tr := opts.Obs
	if tr == nil {
		tr = obs.New() // metrics-only: no trace events, no progress sink
	}
	if opts.Progress != nil {
		tr.SetProgress(opts.Progress)
	}
	g := &GoalRunner{
		byName: make(map[string]*Group, len(groups)),
		opts:   opts,
		tr:     tr,
		ops:    ir.Ops(),
	}
	for i := range groups {
		g.byName[groups[i].Name] = &groups[i]
	}
	return g, nil
}

// Run synthesizes (or replays) one goal and returns its journal record.
// The record is also appended to Options.Journal (unless replayed); an
// append failure fails the call, because for a farm worker the durable
// record IS the work product — patterns that never reached the shard
// must not be acknowledged to the coordinator.
func (g *GoalRunner) Run(key GoalKey) (journal.GoalRecord, error) {
	out, err := g.run(key)
	if err != nil {
		return journal.GoalRecord{}, err
	}
	return recordOf(key, out), nil
}

// run takes one goal through the pipeline: journal replay or the retry
// ladder, the live state, the journal append, and the driver.goal.done
// event (exactly one per call). The error is a key that names no goal
// of the setup, or the journal append's; the outcome is valid alongside
// an append error.
func (g *GoalRunner) run(key GoalKey) (goalOut, error) {
	grp := g.byName[key.Group]
	if grp == nil {
		return goalOut{}, fmt.Errorf("driver: no group %q in this setup", key.Group)
	}
	if key.Index < 0 || key.Index >= len(grp.Goals) {
		return goalOut{}, fmt.Errorf("driver: goal index %d out of range for group %q (%d goals)",
			key.Index, key.Group, len(grp.Goals))
	}
	goal := grp.Goals[key.Index]
	if goal.Name != key.Goal {
		return goalOut{}, fmt.Errorf("driver: goal %q at %s/%d, lease says %q — coordinator and worker disagree on the setup",
			goal.Name, key.Group, key.Index, key.Goal)
	}
	k := key.Key()
	g.opts.State.register(key.Group, key.Index, key.Goal)
	var out goalOut
	if rec, ok := g.opts.Resume[k]; ok {
		g.tr.Add("driver.resume.replayed", 1)
		out = replayed(rec)
	} else {
		goalOps, perGoal := groupParams(*grp, g.opts, g.ops)
		out = g.synthesizeWithRetries(*grp, k, goal, goalOps, perGoal)
	}
	g.opts.State.finish(k, out)
	var err error
	if !out.replayed {
		if err = g.journalAppend(key, out); err != nil {
			err = fmt.Errorf("driver: journaling %s: %w", k, err)
		}
	}
	logDone(g.tr, key, out)
	return out, err
}

// AssembleLibrary is NewPlan followed by Plan.Assemble, for a caller
// that holds no plan: it folds a record set holding one record per
// searched goal (keyed by journal.Key) into the library the run that
// wrote the records returned.
func AssembleLibrary(groups []Group, recs map[string]journal.GoalRecord, opts Options) (*pattern.Library, *Report, error) {
	p, err := NewPlan(groups, opts)
	if err != nil {
		return nil, nil, err
	}
	return p.Assemble(recs)
}
