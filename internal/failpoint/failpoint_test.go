package failpoint

import (
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	if r.Active(SatSpuriousTimeout) {
		t.Fatalf("nil registry must never fire")
	}
	if r.Hits(SatSpuriousTimeout) != 0 || r.Fired(SatSpuriousTimeout) != 0 {
		t.Fatalf("nil registry must report zero hits/fires")
	}
}

func TestParseEmptyIsNil(t *testing.T) {
	r, err := Parse("  ", 1)
	if err != nil || r != nil {
		t.Fatalf("empty spec should yield a nil registry, got %v, %v", r, err)
	}
}

func TestParseRejectsUnknownName(t *testing.T) {
	_, err := Parse("no.such.point=always", 1)
	if err == nil || !strings.Contains(err.Error(), "unknown failpoint") {
		t.Fatalf("unknown name must be rejected with a clear error, got %v", err)
	}
}

func TestParseRejectsBadMode(t *testing.T) {
	for _, spec := range []string{
		"sat.spurious.timeout",           // missing =
		"sat.spurious.timeout=sometimes", // unknown mode
		"sat.spurious.timeout=hit:0",     // hit counts are 1-based
		"sat.spurious.timeout=hit:x",
		"sat.spurious.timeout=prob:1.5",
	} {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("spec %q should be rejected", spec)
		}
	}
}

func TestCountedModes(t *testing.T) {
	r, err := Parse("sat.spurious.timeout=once,smt.check.panic=hit:3,cegis.verify.die=after:2,journal.torn.write=always", 1)
	if err != nil {
		t.Fatal(err)
	}
	var once, hit3, after2, always []bool
	for i := 0; i < 5; i++ {
		once = append(once, r.Active(SatSpuriousTimeout))
		hit3 = append(hit3, r.Active(SmtCheckPanic))
		after2 = append(after2, r.Active(CegisVerifyDie))
		always = append(always, r.Active(JournalTornWrite))
	}
	want := func(name string, got []bool, want []bool) {
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: hit %d fired=%v, want %v", name, i+1, got[i], want[i])
			}
		}
	}
	want("once", once, []bool{true, false, false, false, false})
	want("hit:3", hit3, []bool{false, false, true, false, false})
	want("after:2", after2, []bool{false, false, true, true, true})
	want("always", always, []bool{true, true, true, true, true})
	if r.Hits(SatSpuriousTimeout) != 5 || r.Fired(SatSpuriousTimeout) != 1 {
		t.Fatalf("once: want 5 hits / 1 fire, got %d/%d", r.Hits(SatSpuriousTimeout), r.Fired(SatSpuriousTimeout))
	}
}

// The probabilistic schedule must be a pure function of (seed, name,
// hit index): two registries with the same seed agree hit for hit, and
// a different seed yields a different schedule.
func TestProbScheduleDeterministic(t *testing.T) {
	mk := func(seed int64) []bool {
		r := New(seed)
		if err := r.Arm(SatSpuriousTimeout, "prob:0.5"); err != nil {
			t.Fatal(err)
		}
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, r.Active(SatSpuriousTimeout))
		}
		return out
	}
	a, b, c := mk(7), mk(7), mk(8)
	same, diff := true, false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Fatalf("same seed must reproduce the same schedule")
	}
	if !diff {
		t.Fatalf("different seeds should diverge somewhere in 64 hits")
	}
	fired := 0
	for _, f := range a {
		if f {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("prob:0.5 over 64 hits fired %d times; schedule looks degenerate", fired)
	}
}

func TestConcurrentActive(t *testing.T) {
	r := New(1)
	if err := r.Arm(DriverGoalPanic, "after:100"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Active(DriverGoalPanic)
			}
		}()
	}
	wg.Wait()
	if got := r.Hits(DriverGoalPanic); got != 8000 {
		t.Fatalf("want 8000 hits, got %d", got)
	}
	if got := r.Fired(DriverGoalPanic); got != 8000-100 {
		t.Fatalf("after:100 over 8000 hits: want %d fires, got %d", 8000-100, got)
	}
}

func TestKnownNamesSorted(t *testing.T) {
	names := KnownNames()
	if len(names) != len(Known) {
		t.Fatalf("KnownNames returned %d of %d names", len(names), len(Known))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %q before %q", names[i-1], names[i])
		}
	}
}
