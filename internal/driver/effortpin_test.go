package driver

import (
	"testing"
	"time"

	"selgen/internal/target"
)

// synthesisEffort is the search-effort fingerprint of one synthesis
// run: the SAT counters, the CEGIS query counts and the bit-blaster's
// term-cache lookups.
type synthesisEffort struct {
	Conflicts, Decisions, Propagations int64
	SynthQueries, VerifyQueries        int64
	Counterexamples, Checks            int64
	BlastHits, BlastMisses             int64
}

// pinnedEffort holds each target's quick-setup effort at selgen's CLI
// options, recorded before the encoder's tables were rewritten.
var pinnedEffort = map[string]synthesisEffort{
	"x86": {
		Conflicts: 1604, Decisions: 13202, Propagations: 179867,
		SynthQueries: 586, VerifyQueries: 32,
		Counterexamples: 17, Checks: 620,
		BlastHits: 22050, BlastMisses: 22303,
	},
	"riscv": {
		Conflicts: 2323, Decisions: 17893, Propagations: 252278,
		SynthQueries: 630, VerifyQueries: 38,
		Counterexamples: 23, Checks: 670,
		BlastHits: 25816, BlastMisses: 24909,
	},
}

// TestSynthesisEffortPinned pins the synthesis search itself, where
// TestTrajectoryPinned pins only the SAT core on fixed CNFs and the
// goldens compare canonical rule sets. An encoder change that emits the
// same CNF — the same fresh variables in the same order, the same
// clauses with the same literal order — leaves every counter here
// unchanged. Reordering clauses or variables almost always moves the
// SAT counters, and blasting different terms moves the cache lookups;
// a change meant to alter the search re-records the figures and says
// why.
func TestSynthesisEffortPinned(t *testing.T) {
	for _, name := range target.Names() {
		want, ok := pinnedEffort[name]
		if !ok {
			t.Errorf("%s: no pinned effort", name)
			continue
		}
		groups, err := SetupFor(name, "quick")
		if err != nil {
			t.Fatal(err)
		}
		// selgen's CLI options, as the benchmark's quick workload runs.
		_, rep, err := Run(groups, Options{
			Target: name, Width: 8, Seed: 1,
			MaxPatternsPerGoal: 64,
			PerGoalTimeout:     scaledTimeout(5 * time.Minute),
		})
		if err != nil {
			t.Fatalf("%s: synthesis: %v", name, err)
		}
		m, s := rep.Metrics, rep.Total.Solver
		got := synthesisEffort{
			Conflicts:       m.CounterValue("sat.conflicts"),
			Decisions:       m.CounterValue("sat.decisions"),
			Propagations:    m.CounterValue("sat.propagations"),
			SynthQueries:    s.SynthQueries,
			VerifyQueries:   s.VerifyQueries,
			Counterexamples: m.CounterValue("cegis.counterexamples"),
			Checks:          m.CounterValue("smt.checks"),
			BlastHits:       s.BlastHits,
			BlastMisses:     s.BlastMisses,
		}
		if got != want {
			t.Errorf("%s: synthesis effort drifted:\n got  %+v\n want %+v", name, got, want)
		}
	}
}
