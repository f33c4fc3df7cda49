// ConfigHash fingerprints everything about a run configuration that
// shapes the synthesized library, so a resume journal written under one
// configuration is never replayed into a run with another.

package driver

import (
	"fmt"
	"hash/fnv"

	"selgen/internal/target"
)

// ConfigHash returns a stable fingerprint of the library-shaping parts
// of a run configuration: the synthesis budgets and seed from opts
// (normalized with the same defaults Run applies) and the full group
// structure (names, bounds, goal and op sets). Parallel is excluded
// because results merge in goal order, so the library does not depend
// on it: a crashed sequential run can legitimately be resumed with more
// workers.
func ConfigHash(groups []Group, opts Options) string {
	opts = opts.withDefaults()
	h := fnv.New64a()
	wr := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	wr(fmt.Sprintf("w%d qc%d mp%d seed%d to%d retry%d ca%t tgt%s",
		opts.Width, opts.QueryConflicts, opts.MaxPatternsPerGoal,
		opts.Seed, opts.PerGoalTimeout.Nanoseconds(), opts.MaxRetries,
		!opts.DisableCostAware, target.Normalize(opts.Target)))
	for _, g := range groups {
		wr(fmt.Sprintf("g:%s l%d all%t mp%d mm%d frz%t",
			g.Name, g.MaxLen, g.AllSizes, g.MaxPatternsPerGoal,
			g.MaxPatternsPerMultiset, g.FreezeArgWitnesses))
		for _, goal := range g.Goals {
			wr("goal:" + goal.Name)
		}
		if g.Ops == nil {
			wr("ops:*")
		} else {
			for _, op := range g.Ops {
				wr("op:" + op.Name)
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
