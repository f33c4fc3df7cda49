// Tests for derived goals: a run searches one goal of each
// complementary pair and derives the other's rules in the fold. The
// pairs here are the cheap ones (minimal sweeps at ℓ = 2), so the race
// pass stays short.

package driver

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"selgen/internal/journal"
	"selgen/internal/obs"
	"selgen/internal/pattern"
	"selgen/internal/riscv"
	"selgen/internal/sem"
	"selgen/internal/x86"
)

// pairGroup is one group of the given goals at ℓ = 2, minimal sweep.
func pairGroup(goals ...*sem.Instr) []Group {
	return []Group{{Name: "Pair", Goals: goals, MaxLen: 2}}
}

// goalBytes serializes one goal's rules of lib.
func goalBytes(t *testing.T, lib *pattern.Library, goal string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := (&pattern.Library{Width: lib.Width, Rules: lib.ByGoal(goal)}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func libBytes(t *testing.T, lib *pattern.Library) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := lib.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPlanPairsComplements: the twin query pairs exactly the
// complementary goals, in goal order, and nothing else — not goals with
// different argument kinds (cmp.jne and cmp.imm.je), not goals that are
// merely related (cmp.jl and cmp.jle).
func TestPlanPairsComplements(t *testing.T) {
	opts, _ := quickOpts().normalize()
	for _, tc := range []struct {
		groups []Group
		want   map[string]string // derived goal → its source
	}{
		{BasicSetup(), map[string]string{"cmp.jne": "cmp.je", "cmp.jns": "cmp.js"}},
		{RiscVBasicSetup(), map[string]string{
			"bne": "beq", "bge": "blt", "bgeu": "bltu", "ble": "bgt", "bleu": "bgtu"}},
		{[]Group{{Name: "Flags", Goals: x86.FlagsGroup(), MaxLen: 3}}, map[string]string{
			"cmp.jne": "cmp.je", "cmp.jge": "cmp.jl", "cmp.jg": "cmp.jle",
			"cmp.jae": "cmp.jb", "cmp.ja": "cmp.jbe", "cmp.jns": "cmp.js",
			"cmp.imm.jne": "cmp.imm.je", "cmp.imm.jge": "cmp.imm.jl", "cmp.imm.jg": "cmp.imm.jle",
			"cmp.imm.jae": "cmp.imm.jb", "cmp.imm.ja": "cmp.imm.jbe", "cmp.imm.jns": "cmp.imm.js",
			"test.jne": "test.je", "test.jns": "test.js"}},
		{QuickSetup(), map[string]string{}},
	} {
		p := newPlan(tc.groups, opts)
		got := map[string]string{}
		for i, from := range p.from {
			if from >= 0 {
				got[p.keys[i].Goal] = p.keys[from].Goal
			}
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: derived %v, want %v", tc.groups[0].Name, got, tc.want)
		}
		for b, a := range tc.want {
			if got[b] != a {
				t.Errorf("%s: %s derives from %q, want %q", tc.groups[0].Name, b, got[b], a)
			}
		}
		if n := len(p.Searched()); n != len(p.keys)-len(got) {
			t.Errorf("%s: %d searched goals for %d goals and %d derived", tc.groups[0].Name, n, len(p.keys), len(got))
		}
	}
}

// TestDerivedEqualsSearched: B's rules derived from A are byte for byte
// the rules a search for B alone finds.
func TestDerivedEqualsSearched(t *testing.T) {
	for _, pair := range [][2]*sem.Instr{
		{x86.CmpJcc(x86.CCE), x86.CmpJcc(x86.CCNE)},
		{riscv.Branch(riscv.RelLt), riscv.Branch(riscv.RelGe)},
	} {
		a, b := pair[0], pair[1]
		lib, rep, err := Run(pairGroup(a, b), quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		alone, _, err := Run(pairGroup(b), quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		derived, searched := goalBytes(t, lib, b.Name), goalBytes(t, alone, b.Name)
		if len(lib.ByGoal(b.Name)) == 0 || !bytes.Equal(derived, searched) {
			t.Fatalf("%s derived from %s:\n%s\nsearched alone:\n%s", b.Name, a.Name, derived, searched)
		}
		if rep.Total.Goals != 2 || rep.Total.OK != 2 {
			t.Fatalf("%s: report counts %d goals, %d ok; want 2 and 2", b.Name, rep.Total.Goals, rep.Total.OK)
		}
	}
}

// TestDerivedGoalObservability: a derived goal logs one
// driver.goal.done event and gets a /goals row, both naming its source,
// with the source's status; the fold finishes the row.
func TestDerivedGoalObservability(t *testing.T) {
	var events bytes.Buffer
	tr := obs.New()
	tr.SetEventSink(&events, obs.LevelDebug)
	var progress bytes.Buffer
	opts := quickOpts()
	opts.Obs = tr
	opts.Progress = &progress
	opts.State = NewRunState()
	if _, _, err := Run(pairGroup(x86.CmpJcc(x86.CCE), x86.CmpJcc(x86.CCNE)), opts); err != nil {
		t.Fatal(err)
	}
	snap := opts.State.Snapshot()
	if len(snap.Goals) != 2 {
		t.Fatalf("/goals holds %d rows, want 2: %+v", len(snap.Goals), snap.Goals)
	}
	a, b := snap.Goals[0], snap.Goals[1]
	if a.DerivedFrom != "" || b.DerivedFrom != "cmp.je" || b.Status != a.Status || b.Status != "ok" {
		t.Fatalf("rows: %+v and %+v; want cmp.jne derived from cmp.je with its status", a, b)
	}
	if b.Patterns == 0 || b.Attempts != 0 {
		t.Fatalf("derived row %+v: want its patterns and no attempt", b)
	}
	var done []string
	for _, line := range strings.Split(events.String(), "\n") {
		if strings.Contains(line, `"event":"driver.goal.done"`) && strings.Contains(line, `"goal":"cmp.jne"`) {
			done = append(done, line)
		}
	}
	if len(done) != 1 || !strings.Contains(done[0], `"derived_from":"cmp.je"`) || !strings.Contains(done[0], `"status":"ok"`) {
		t.Fatalf("cmp.jne's driver.goal.done events: %q", done)
	}
	if !strings.Contains(progress.String(), "(derived from cmp.je)") {
		t.Fatalf("progress does not mark the derived goal:\n%s", progress.String())
	}
}

// TestResumeDerivedGoal: a journal holding only the source's record
// resumes to the uninterrupted bytes, and so does one that also holds a
// record for the derived goal (as a run before derivation wrote one):
// that record is ignored, the goal derived again.
func TestResumeDerivedGoal(t *testing.T) {
	groups := pairGroup(riscv.Branch(riscv.RelLtu), riscv.Branch(riscv.RelGeu))
	baseLib, _, err := Run(groups, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := libBytes(t, baseLib)
	keys := GoalKeys(groups)
	for _, withDerived := range []bool{false, true} {
		opts := quickOpts()
		hdr := journal.Header{Version: journal.Version, Setup: "pair", Width: opts.Width,
			ConfigHash: ConfigHash(groups, opts)}
		path := filepath.Join(t.TempDir(), "run.journal")
		jw, err := journal.Create(path, hdr)
		if err != nil {
			t.Fatal(err)
		}
		wopts := quickOpts()
		wopts.Journal = jw
		gr := mustGoalRunner(t, groups, wopts)
		written := keys[:1]
		if withDerived {
			written = keys
		}
		for _, k := range written {
			if _, err := gr.Run(k); err != nil {
				t.Fatal(err)
			}
		}
		jw.Close()

		jw2, rec, err := journal.Resume(path, hdr)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.New()
		ropts := quickOpts()
		ropts.Journal, ropts.Resume, ropts.Obs = jw2, rec.Index(), tr
		lib, _, err := Run(groups, ropts)
		jw2.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := libBytes(t, lib); !bytes.Equal(got, want) {
			t.Fatalf("journal with derived record=%v: resumed library differs:\n%s\nwant:\n%s", withDerived, got, want)
		}
		if got := tr.Metrics().CounterValue("driver.resume.replayed"); got != 1 {
			t.Fatalf("journal with derived record=%v: %d goals replayed, want only the source", withDerived, got)
		}
	}
}

// TestDeriveFromNonComplementQuarantines is the safety net: deriving
// cmp.jle's rules from cmp.jl's, which the twin query never pairs,
// fails verification and quarantines cmp.jle with an error naming the
// rule, instead of shipping wrong rules.
func TestDeriveFromNonComplementQuarantines(t *testing.T) {
	groups := pairGroup(x86.CmpJcc(x86.CCL), x86.CmpJcc(x86.CCLE))
	opts := quickOpts()
	r := mustGoalRunner(t, groups, opts)
	p := newPlan(groups, r.opts)
	if p.from[1] >= 0 {
		t.Fatalf("the twin query paired cmp.jl with cmp.jle")
	}
	p.from[1] = 0
	src, err := r.run(p.keys[0])
	if err != nil {
		t.Fatal(err)
	}
	outs := []*goalOut{&src, nil}
	lib, rep := p.fold(outs, nil)
	d := outs[1]
	if d == nil || d.status != StatusQuarantined || d.err == nil {
		t.Fatalf("cmp.jle derived from cmp.jl: %+v, want quarantined", d)
	}
	if !strings.Contains(d.err.Error(), "fails verification") || !strings.Contains(d.err.Error(), "n0=Cmp(") {
		t.Fatalf("quarantine error does not name the failing rule: %v", d.err)
	}
	if len(lib.ByGoal("cmp.jle")) != 0 || len(lib.ByGoal("cmp.jl")) == 0 {
		t.Fatalf("library: %d cmp.jle rules, %d cmp.jl rules", len(lib.ByGoal("cmp.jle")), len(lib.ByGoal("cmp.jl")))
	}
	if rep.Total.Quarantined != 1 || len(rep.Groups[0].QuarantinedGoals) != 1 || rep.Groups[0].QuarantinedGoals[0] != "cmp.jle" {
		t.Fatalf("report: %+v", rep.Groups[0])
	}
}
