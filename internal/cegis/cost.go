package cegis

import (
	"sort"
	"time"

	"selgen/internal/sem"
)

// Cost-aware enumeration (after Daly et al., "Efficiently Synthesizing
// Lowest Cost Rewrite Rules for Instruction Selection"): materialize
// every candidate multiset up to MaxLen and walk them in ascending
// total cycle cost, so the first rule found for a goal is a cheapest
// implementation under the machine's cycle model. Once a rule exists,
// later multisets that cost at least as much and contain the rule's
// components as a sub-multiset are dominated — any pattern over them
// spends the found rule's cycles plus extras for strictly more IR
// structure — and are skipped. The cost-awareness ablation
// (Config.DisableCostAware) walks the same enumeration unsorted, in
// size order, and skips nothing as dominated: cost order and size
// order differ only in the sort key.

// costMultiset is one candidate component multiset with its total
// cycle cost.
type costMultiset struct {
	comps []*sem.Instr
	cost  int
	size  int
}

// multisetsByCost materializes the full enumeration (required memory
// ops plus free multicombinations of the op set, sizes 0..MaxLen) in
// size order, lexicographic within a size, and unless DisableCostAware
// sorts it stably by ascending (cost, size), so the walk is
// deterministic either way.
func (e *Engine) multisetsByCost(required []*sem.Instr) []costMultiset {
	reqCost := 0
	for _, r := range required {
		reqCost += r.CostOrDefault()
	}
	var out []costMultiset
	for l := 0; l <= e.cfg.MaxLen; l++ {
		free := l - len(required)
		if free < 0 {
			continue
		}
		iter := newMulticombinations(len(e.ops), free)
		for iter.next() {
			comps := append([]*sem.Instr{}, required...)
			cost := reqCost
			for _, idx := range iter.current() {
				comps = append(comps, e.ops[idx])
				cost += e.ops[idx].CostOrDefault()
			}
			out = append(out, costMultiset{comps: comps, cost: cost, size: l})
		}
	}
	if !e.cfg.DisableCostAware {
		sort.SliceStable(out, func(i, j int) bool {
			if out[i].cost != out[j].cost {
				return out[i].cost < out[j].cost
			}
			return out[i].size < out[j].size
		})
	}
	return out
}

// containsMultiset reports whether ms contains sub as a sub-multiset
// (by operation name, with multiplicity).
func containsMultiset(ms, sub []*sem.Instr) bool {
	counts := make(map[string]int, len(ms))
	for _, c := range ms {
		counts[c.Name]++
	}
	for _, c := range sub {
		counts[c.Name]--
		if counts[c.Name] < 0 {
			return false
		}
	}
	return true
}

// synthesize is the one enumeration walk behind Synthesize and
// SynthesizeAllSizes. A band is one cost, or one size under
// DisableCostAware. With allSizes false it stops after the first band
// that yields patterns (every multiset of that band is still finished,
// so equal-band alternatives are not order-dependent); with allSizes
// true it continues to MaxLen. Only the cost-aware walk skips
// dominated multisets.
func (e *Engine) synthesize(goal *sem.Instr, allSizes bool) (*Result, error) {
	start := time.Now()
	res := &Result{Goal: goal, MinLen: -1}
	finish := func(err error) (*Result, error) {
		if !allSizes && res.MinLen < 0 {
			res.MinLen = 0
		}
		res.Elapsed = time.Since(start)
		return res, err
	}
	costAware := !e.cfg.DisableCostAware
	band := func(ms costMultiset) int {
		if costAware {
			return ms.cost
		}
		return ms.size
	}
	required := e.requiredMemOps(goal)
	// The first multiset that yielded a rule, and its band.
	firstBand := -1
	var first costMultiset
	for _, ms := range e.multisetsByCost(required) {
		if e.deadlineExceeded() {
			return finish(ErrDeadline)
		}
		if !allSizes && firstBand >= 0 && band(ms) > firstBand {
			break
		}
		rem := 0
		if e.cfg.MaxPatternsPerGoal > 0 {
			rem = e.cfg.MaxPatternsPerGoal - len(res.Patterns)
			if rem <= 0 {
				break
			}
		}
		if !e.cfg.DisablePruning && e.skipMultiset(goal, ms.comps) {
			continue
		}
		if costAware && firstBand >= 0 && ms.cost >= first.cost && containsMultiset(ms.comps, first.comps) {
			e.Stats.DominatedMultisets++
			e.obs.Add("cegis.cost.multisets_dominated", 1)
			continue
		}
		if m := e.cfg.MaxPatternsPerMultiset; m > 0 && (rem == 0 || m < rem) {
			rem = m
		}
		ps, err := e.cegisAllPatterns(ms.comps, goal, rem)
		if len(ps) > 0 {
			if firstBand < 0 {
				firstBand, first = band(ms), ms
			}
			for _, p := range ps {
				if res.MinLen < 0 || p.Size() < res.MinLen {
					res.MinLen = p.Size()
				}
				e.obs.Observe("cegis.cost.rule_cost", int64(ms.cost))
			}
			res.Patterns = append(res.Patterns, ps...)
		}
		if err != nil {
			return finish(err)
		}
	}
	return finish(nil)
}

// MultisetCost returns the total cycle cost of a component multiset
// (the cost a rule synthesized from it is charged).
func MultisetCost(comps []*sem.Instr) int {
	total := 0
	for _, c := range comps {
		total += c.CostOrDefault()
	}
	return total
}
