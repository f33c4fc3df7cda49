// Farm-facing driver surface. A distributed synthesis farm splits the
// work Run does in-process into three pieces that must agree exactly
// with it, or the merged library stops being byte-identical to a
// single-process run:
//
//   - GoalKeys flattens a setup into the coordinator's work list, in
//     the same group/goal order Run dispatches.
//   - GoalRunner synthesizes one leased goal at a time on a worker,
//     through the same retry ladder, panic quarantine, journal append,
//     and live-state publishing as Run — a farmed goal's journal record
//     is byte-for-byte the record a single-process run would write.
//   - AssembleLibrary folds a complete set of journal records back into
//     a library with exactly Run's aggregation (goal order, costs,
//     dedup, dominance pruning), so the merge is deterministic no
//     matter which worker ran which goal, in what order, or how many
//     times a reclaimed lease made a goal finish.
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

// GoalKeys flattens a setup into its work list, in the group/goal order
// Run dispatches (and AssembleLibrary merges).
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
// cap against the run options — the one resolution Run and GoalRunner
// must share for a farmed goal to synthesize exactly what a
// single-process run would.
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

// CheckWidth rejects a word width the semantic models do not support:
// options take 1..64, or 0 for the default 8. Run and NewGoalRunner
// apply it before any goal starts; the CLIs apply it to their -width
// flag.
func CheckWidth(w int) error {
	if w < 0 || w > 64 {
		return fmt.Errorf("driver: word width %d is outside 1..64 (0 selects 8)", w)
	}
	return nil
}

// CheckSatWorkers rejects an Options.SatWorkers (or -sat-workers)
// value the sequential SAT search cannot honour: only 0 and 1 are
// accepted. Run and NewGoalRunner apply it before any goal starts;
// selgen applies it to its -sat-workers flag.
func CheckSatWorkers(n int) error {
	if n > 1 {
		return fmt.Errorf("driver: %d SAT workers requested, but the SAT search is sequential (only 0 and 1 are accepted)", n)
	}
	return nil
}

// normalize checks opts and applies Run's option defaults (kept in
// sync with ConfigHash).
func (o Options) normalize() (Options, error) {
	if err := CheckWidth(o.Width); err != nil {
		return o, err
	}
	if err := CheckSatWorkers(o.SatWorkers); err != nil {
		return o, err
	}
	if o.Width == 0 {
		o.Width = 8
	}
	if o.QueryConflicts == 0 {
		// Generous per-query bound: ordinary queries at width 8 take a
		// few thousand conflicts; a multiset blowing this budget is
		// abandoned (Stats.QueryTimeouts) rather than stalling the run.
		o.QueryConflicts = 200_000
	}
	return o, nil
}

// GoalRunner synthesizes individual goals on demand — the farm worker's
// engine. Where Run owns the whole work list, a GoalRunner is handed
// goals one lease at a time and must produce, for each, the same
// journal record Run would have.
type GoalRunner struct {
	groups []Group
	byName map[string]*Group
	opts   Options
	ops    []*sem.Instr
	r      *runner
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
		tr = obs.New()
	}
	g := &GoalRunner{
		groups: groups,
		byName: make(map[string]*Group, len(groups)),
		opts:   opts,
		ops:    ir.Ops(),
		r:      &runner{opts: opts, tr: tr, faults: opts.Faults, state: opts.State},
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
	grp := g.byName[key.Group]
	if grp == nil {
		return journal.GoalRecord{}, fmt.Errorf("driver: no group %q in this setup", key.Group)
	}
	if key.Index < 0 || key.Index >= len(grp.Goals) {
		return journal.GoalRecord{}, fmt.Errorf("driver: goal index %d out of range for group %q (%d goals)",
			key.Index, key.Group, len(grp.Goals))
	}
	goal := grp.Goals[key.Index]
	if goal.Name != key.Goal {
		return journal.GoalRecord{}, fmt.Errorf("driver: goal %q at %s/%d, lease says %q — coordinator and worker disagree on the setup",
			goal.Name, key.Group, key.Index, key.Goal)
	}
	g.r.state.register(key.Group, key.Index, key.Goal)
	goalOps, perGoal := groupParams(*grp, g.opts, g.ops)
	out, err := g.r.runOne(*grp, key.Index, goal, goalOps, perGoal)
	if err != nil {
		return journal.GoalRecord{}, fmt.Errorf("driver: journaling %s: %w", key.Key(), err)
	}
	return recordOf(key.Group, key.Index, key.Goal, out), nil
}

// AssembleLibrary folds a complete record set (one per goal of the
// setup, keyed by journal.Key) into the library, with exactly Run's
// aggregation: group/goal order, recomputed cycle costs, dedup, and
// dominance pruning. Missing keys are an error — an incomplete farm run
// must fail loudly, never ship a silently truncated library.
func AssembleLibrary(groups []Group, recs map[string]journal.GoalRecord, opts Options) (*pattern.Library, *Report, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, nil, err
	}
	lib := &pattern.Library{Width: opts.Width}
	rep := &Report{}
	ops := ir.Ops()
	var missing []string
	for _, grp := range groups {
		gr := GroupReport{Name: grp.Name, Goals: len(grp.Goals)}
		goalOps, _ := groupParams(grp, opts, ops)
		for gi, goal := range grp.Goals {
			rec, ok := recs[journal.Key(grp.Name, gi, goal.Name)]
			if !ok {
				missing = append(missing, journal.Key(grp.Name, gi, goal.Name))
				continue
			}
			for _, p := range rec.Patterns {
				lib.Add(pattern.Rule{Goal: goal.Name, GoalCost: goal.CostOrDefault(),
					Cost: p.CycleCost(goalOps), Pattern: p})
				if s := p.Size(); s > gr.MaxSize {
					gr.MaxSize = s
				}
			}
			gr.Patterns += len(rec.Patterns)
			gr.Replayed++
			switch statusFromString(rec.Status) {
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
		}
		rep.Groups = append(rep.Groups, gr)
		rep.Total.Goals += gr.Goals
		rep.Total.Patterns += gr.Patterns
		rep.Total.OK += gr.OK
		rep.Total.Retried += gr.Retried
		rep.Total.Degraded += gr.Degraded
		rep.Total.Quarantined += gr.Quarantined
		rep.Total.Replayed += gr.Replayed
		if gr.MaxSize > rep.Total.MaxSize {
			rep.Total.MaxSize = gr.MaxSize
		}
	}
	if len(missing) > 0 {
		return nil, nil, fmt.Errorf("driver: %d goal record(s) missing from the merge (first: %s) — the farm run is incomplete",
			len(missing), missing[0])
	}
	lib.Dedup()
	if !opts.DisableCostAware {
		if n := lib.PruneDominated(ops); n > 0 {
			rep.RulesDominated = n
		}
	}
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
	return lib, rep, nil
}
