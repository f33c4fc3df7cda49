package driver

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"selgen/internal/obs"
)

// scaledTimeout widens a per-goal deadline when the race detector is
// on: instrumentation slows synthesis roughly an order of magnitude,
// and a deadline hit truncates the library, turning a timing artifact
// into a spurious missing-pattern failure.
func scaledTimeout(d time.Duration) time.Duration {
	if raceEnabled {
		return 10 * d
	}
	return d
}

func TestBasicSetupSynthesis(t *testing.T) {
	lib, rep, err := Run(BasicSetup(), Options{Width: 8, Seed: 1,
		MaxPatternsPerGoal: 16, PerGoalTimeout: scaledTimeout(5 * time.Minute)})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(rep.Groups) != 1 || rep.Groups[0].Name != "Basic" {
		t.Fatalf("report shape: %+v", rep)
	}
	if rep.Total.Goals < 20 {
		t.Fatalf("basic setup goals: %d", rep.Total.Goals)
	}
	if len(lib.Rules) < rep.Total.Goals {
		t.Fatalf("expected at least one rule per goal: %d rules for %d goals",
			len(lib.Rules), rep.Total.Goals)
	}
	// Every basic goal must have at least one pattern.
	byGoal := map[string]int{}
	for _, r := range lib.Rules {
		byGoal[r.Goal]++
	}
	for _, g := range BasicSetup()[0].Goals {
		if byGoal[g.Name] == 0 {
			t.Errorf("goal %s has no patterns", g.Name)
		}
	}
	var buf bytes.Buffer
	rep.WriteTable(&buf)
	if !strings.Contains(buf.String(), "Basic") || !strings.Contains(buf.String(), "Total") {
		t.Fatalf("table rendering:\n%s", buf.String())
	}
}

func TestBMISetupSynthesis(t *testing.T) {
	lib, rep, err := Run(BMISetup(), Options{Width: 8, Seed: 1,
		MaxPatternsPerGoal: 16, PerGoalTimeout: scaledTimeout(90 * time.Second)})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Total.Goals != 7 {
		t.Fatalf("BMI goals: %d", rep.Total.Goals)
	}
	byGoal := map[string]int{}
	for _, r := range lib.Rules {
		byGoal[r.Goal]++
	}
	for _, g := range []string{"andn", "blsi", "blsmsk", "blsr", "btc", "btr", "bts"} {
		if byGoal[g] == 0 {
			t.Errorf("BMI goal %s has no patterns", g)
		}
	}
	// andn has (at least) the four §1 intro patterns.
	if byGoal["andn"] < 4 {
		t.Errorf("andn should have >= 4 patterns, got %d", byGoal["andn"])
	}
}

func TestSetupShapes(t *testing.T) {
	full := FullSetup()
	names := map[string]bool{}
	for _, g := range full {
		names[g.Name] = true
		if len(g.Goals) == 0 {
			t.Fatalf("group %s empty", g.Name)
		}
	}
	for _, want := range []string{"Basic", "Load/Store", "Unary", "Binary", "Flags", "BMI"} {
		if !names[want] {
			t.Fatalf("full setup missing group %s", want)
		}
	}
}

// TestOutOfRangeOptionsRejected: options outside their accepted range
// — a word width outside 0..64, more than one SAT worker, a negative
// retry-ladder depth — fail Run and NewGoalRunner before any goal
// starts, with no library, no report and nothing quarantined (an
// out-of-range width would otherwise quarantine every goal on the
// bv.BitVec panic). Width 0 still selects the default 8, and
// SatWorkers 0 and 1 are accepted.
func TestOutOfRangeOptionsRejected(t *testing.T) {
	groups := QuickSetup()
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"width 65", Options{Width: 65}},
		{"width -3", Options{Width: -3}},
		{"2 SAT workers", Options{SatWorkers: 2}},
		{"max retries -1", Options{MaxRetries: -1}},
	} {
		tr := obs.New()
		opts := tc.opts
		opts.Seed, opts.Obs = 1, tr
		lib, rep, err := Run(groups, opts)
		if err == nil {
			t.Errorf("%s: Run succeeded with %d rules", tc.name, len(lib.Rules))
		}
		if lib != nil || rep != nil {
			t.Errorf("%s: Run returned a library or report alongside %v", tc.name, err)
		}
		if n := tr.Metrics().CounterValue("driver.quarantine"); n != 0 {
			t.Errorf("%s: %d goal(s) quarantined", tc.name, n)
		}
		if _, err := NewGoalRunner(groups, tc.opts); err == nil {
			t.Errorf("%s: NewGoalRunner accepted it", tc.name)
		}
		if err := tc.opts.Check(); err == nil {
			t.Errorf("%s: Check accepted it", tc.name)
		}
	}
	for _, w := range []int{0, 1, 64} {
		if err := (Options{Width: w}).Check(); err != nil {
			t.Errorf("width %d rejected: %v", w, err)
		}
	}
	for _, n := range []int{0, 1} {
		if _, err := (Options{SatWorkers: n}).normalize(); err != nil {
			t.Errorf("SatWorkers %d rejected: %v", n, err)
		}
	}
	if o, err := (Options{}).normalize(); err != nil || o.Width != 8 {
		t.Errorf("width 0 normalizes to %d (%v), want 8", o.Width, err)
	}
}
