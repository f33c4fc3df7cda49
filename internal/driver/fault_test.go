package driver

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"selgen/internal/failpoint"
	"selgen/internal/journal"
	"selgen/internal/obs"
)

func mustFaults(t *testing.T, spec string) *failpoint.Registry {
	t.Helper()
	reg, err := failpoint.Parse(spec, 1)
	if err != nil {
		t.Fatalf("failpoint.Parse(%q): %v", spec, err)
	}
	return reg
}

func quickOpts() Options {
	return Options{Width: 8, Seed: 1, MaxPatternsPerGoal: 16,
		PerGoalTimeout: scaledTimeout(90 * time.Second)}
}

// TestQuarantineIsolatesPanickingGoal is the headline robustness claim:
// an injected panic in one goal's synthesis quarantines exactly that
// goal — the run completes, every other goal contributes its patterns,
// and the report marks the casualty.
func TestQuarantineIsolatesPanickingGoal(t *testing.T) {
	groups := QuickSetup()
	baseLib, baseRep, err := Run(groups, quickOpts())
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	// hit:2 fires on the second attemptGoal call; sequential execution
	// makes that the group's second goal (andn).
	opts := quickOpts()
	opts.Faults = mustFaults(t, "driver.goal.panic=hit:2")
	tr := obs.New()
	opts.Obs = tr
	lib, rep, err := Run(groups, opts)
	if err != nil {
		t.Fatalf("run with injected panic must not fail: %v", err)
	}
	victim := groups[0].Goals[1].Name

	g := rep.Groups[0]
	if g.Quarantined != 1 || len(g.QuarantinedGoals) != 1 || g.QuarantinedGoals[0] != victim {
		t.Fatalf("report: quarantined=%d goals=%v, want exactly [%s]", g.Quarantined, g.QuarantinedGoals, victim)
	}
	if g.OK != g.Goals-1 {
		t.Fatalf("report: OK=%d, want %d (all but the quarantined goal)", g.OK, g.Goals-1)
	}
	if got := tr.Metrics().CounterValue("driver.quarantine"); got != 1 {
		t.Fatalf("driver.quarantine = %d, want 1", got)
	}

	// The library is the baseline minus the victim's rules, untouched
	// elsewhere.
	var want, victimRules int
	for _, r := range baseLib.Rules {
		if r.Goal == victim {
			victimRules++
		} else {
			want++
		}
	}
	if victimRules == 0 {
		t.Fatalf("test is vacuous: baseline has no rules for %s", victim)
	}
	if len(lib.Rules) != want {
		t.Fatalf("library has %d rules, want %d (baseline %d minus %d for %s)",
			len(lib.Rules), want, len(baseLib.Rules), victimRules, victim)
	}
	for _, r := range lib.Rules {
		if r.Goal == victim {
			t.Fatalf("quarantined goal leaked rule %v", r)
		}
	}

	// The status section appears in the rendered table.
	var buf bytes.Buffer
	rep.WriteTable(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("quarantined: Quick/"+victim)) {
		t.Fatalf("table does not name the quarantined goal:\n%s", buf.String())
	}
	if baseRep.Total.Quarantined != 0 {
		t.Fatalf("baseline unexpectedly quarantined %d goals", baseRep.Total.Quarantined)
	}
}

// TestRetryLadderRecovers: a goal whose first attempt fails with a
// (injected) deadline must succeed on the next rung and produce the
// same library as an undisturbed run.
func TestRetryLadderRecovers(t *testing.T) {
	groups := QuickSetup()
	baseLib, _, err := Run(groups, quickOpts())
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	opts := quickOpts()
	opts.Faults = mustFaults(t, "cegis.goal.deadline=hit:1")
	tr := obs.New()
	opts.Obs = tr
	lib, rep, err := Run(groups, opts)
	if err != nil {
		t.Fatalf("run with injected deadline: %v", err)
	}
	if rep.Groups[0].Retried != 1 {
		t.Fatalf("retried = %d, want 1", rep.Groups[0].Retried)
	}
	if got := tr.Metrics().CounterValue("driver.retry.attempts"); got != 1 {
		t.Fatalf("driver.retry.attempts = %d, want 1", got)
	}
	if got := tr.Metrics().CounterValue("driver.retry.recovered"); got != 1 {
		t.Fatalf("driver.retry.recovered = %d, want 1", got)
	}
	if !reflect.DeepEqual(lib.Rules, baseLib.Rules) {
		t.Fatalf("retried run produced a different library: %d vs %d rules", len(lib.Rules), len(baseLib.Rules))
	}
}

// TestRetryLadderShape pins the attempt sequence: rung 0 is the
// configured budget, rung 1 doubles the timeout, rung 2 quadruples it,
// and deeper rungs repeat rung 2.
func TestRetryLadderShape(t *testing.T) {
	const T = time.Minute
	for _, tc := range []struct {
		retries int
		timeout time.Duration
		want    []time.Duration
	}{
		{0, T, []time.Duration{T, 2 * T, 4 * T}},
		{3, T, []time.Duration{T, 2 * T, 4 * T, 4 * T}},
		{0, 0, []time.Duration{0, 0, 0}},
	} {
		if got := Ladder(Options{MaxRetries: tc.retries, PerGoalTimeout: tc.timeout}); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("MaxRetries %d, timeout %v: ladder %+v, want %+v", tc.retries, tc.timeout, got, tc.want)
		}
	}
}

// TestVerifyDieQuarantines: a panic deep in the engine (the verifier
// dying with a counterexample in hand) classifies as internal, not
// retryable — the goal is quarantined without burning the ladder.
func TestVerifyDieQuarantines(t *testing.T) {
	groups := QuickSetup()
	opts := quickOpts()
	opts.Faults = mustFaults(t, "cegis.verify.die=once")
	_, rep, err := Run(groups, opts)
	if err != nil {
		t.Fatalf("run must survive a verifier death: %v", err)
	}
	if rep.Total.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", rep.Total.Quarantined)
	}
	if rep.Total.Retried != 0 {
		t.Fatalf("an internal fault must not be retried (retried = %d)", rep.Total.Retried)
	}
}

// TestJournalResumeEquivalence simulates the crash/resume cycle at the
// Go level: journal a full run, chop the journal after two goals and
// tear the third record's line, resume — the recovered-and-completed
// run must replay the prefix and produce the identical library.
func TestJournalResumeEquivalence(t *testing.T) {
	dir := t.TempDir()
	groups := QuickSetup()
	opts := quickOpts()
	hdr := journal.Header{
		Version: journal.Version, Setup: "quick", Width: opts.Width,
		ConfigHash: ConfigHash(groups, opts),
	}

	full := filepath.Join(dir, "full.journal")
	jw, err := journal.Create(full, hdr)
	if err != nil {
		t.Fatal(err)
	}
	opts.Journal = jw
	baseLib, _, err := Run(groups, opts)
	if err != nil {
		t.Fatalf("journaled run: %v", err)
	}
	jw.Close()

	// Crash simulation: header + 2 intact goal records + a torn third.
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("journal too short to chop: %d lines", len(lines))
	}
	var chopped []byte
	for _, l := range lines[:3] {
		chopped = append(chopped, l...)
	}
	chopped = append(chopped, lines[3][:len(lines[3])/2]...)
	crashed := filepath.Join(dir, "crashed.journal")
	if err := os.WriteFile(crashed, chopped, 0o644); err != nil {
		t.Fatal(err)
	}

	jw2, rec, err := journal.Resume(crashed, hdr)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if len(rec.Goals) != 2 || rec.TruncatedBytes == 0 {
		t.Fatalf("recovered %d goals, %d torn bytes; want 2 goals and a torn tail", len(rec.Goals), rec.TruncatedBytes)
	}
	opts2 := quickOpts()
	opts2.Journal = jw2
	opts2.Resume = rec.Index()
	lib, rep, err := Run(groups, opts2)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	jw2.Close()

	if rep.Total.Replayed != 2 {
		t.Fatalf("replayed = %d, want 2", rep.Total.Replayed)
	}
	if !reflect.DeepEqual(lib.Rules, baseLib.Rules) {
		t.Fatalf("resumed library differs: %d vs %d rules", len(lib.Rules), len(baseLib.Rules))
	}

	// The completed journal must itself resume cleanly with every goal
	// present — the file is whole again after the crash.
	_, rec2, err := journal.Resume(crashed, hdr)
	if err != nil {
		t.Fatalf("re-resume: %v", err)
	}
	total := 0
	for _, g := range groups {
		total += len(g.Goals)
	}
	if len(rec2.Goals) != total || rec2.TruncatedBytes != 0 {
		t.Fatalf("completed journal has %d goals, %d torn bytes; want %d and 0", len(rec2.Goals), rec2.TruncatedBytes, total)
	}
}

// TestResumeRejectsConfigMismatch: a journal written under one
// configuration must not replay into a run with another.
func TestResumeRejectsConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	groups := QuickSetup()
	opts := quickOpts()
	hdr := journal.Header{
		Version: journal.Version, Setup: "quick", Width: opts.Width,
		ConfigHash: ConfigHash(groups, opts),
	}
	path := filepath.Join(dir, "run.journal")
	jw, err := journal.Create(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	jw.Close()

	other := opts
	other.Seed = 99
	want := hdr
	want.ConfigHash = ConfigHash(groups, other)
	if want.ConfigHash == hdr.ConfigHash {
		t.Fatalf("ConfigHash ignores the seed")
	}
	if _, _, err := journal.Resume(path, want); err == nil {
		t.Fatalf("resume accepted a mismatched configuration")
	}
}
