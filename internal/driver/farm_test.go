// Tests for the farm-facing driver surface: the farmed decomposition
// (GoalKeys → GoalRunner per goal → AssembleLibrary) must reproduce
// Run's library byte-for-byte, in any goal order, and a graceful stop
// must leave a journal a resume completes to the identical library.

package driver

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"selgen/internal/journal"
	"selgen/internal/obs"
)

func TestGoalKeysOrderAndIdentity(t *testing.T) {
	groups := QuickSetup()
	keys := GoalKeys(groups)
	total := 0
	for _, g := range groups {
		total += len(g.Goals)
	}
	if len(keys) != total {
		t.Fatalf("GoalKeys returned %d keys, want %d", len(keys), total)
	}
	for i, k := range keys[1:] {
		if keys[i].Group == k.Group && keys[i].Index >= k.Index {
			t.Fatalf("keys out of dispatch order at %d: %v then %v", i, keys[i], k)
		}
	}
	if got, want := keys[0].Key(), journal.Key(groups[0].Name, 0, groups[0].Goals[0].Name); got != want {
		t.Fatalf("GoalKey.Key() = %q, want journal key %q", got, want)
	}
}

// TestAssembleLibraryMatchesRun: folding a complete journal back into a
// library reproduces the single-process run byte-for-byte — the merge
// half of the farm's determinism guarantee.
func TestAssembleLibraryMatchesRun(t *testing.T) {
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
	opts.Journal = jw
	baseLib, baseRep, err := Run(groups, opts)
	if err != nil {
		t.Fatalf("journaled run: %v", err)
	}
	jw.Close()

	rec, err := journal.Read(path, hdr)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	lib, rep, err := AssembleLibrary(groups, rec.Index(), quickOpts())
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	var bufA, bufB bytes.Buffer
	if err := baseLib.Save(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := lib.Save(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatalf("assembled library differs from the run's: %d vs %d rules",
			len(lib.Rules), len(baseLib.Rules))
	}
	// Every row matches the run's except the solver effort, which
	// records do not carry, and Replayed, which marks every assembled
	// goal. Elapsed sums the goals' recorded times in both.
	if len(rep.Groups) != len(baseRep.Groups) {
		t.Fatalf("assembled report has %d groups, run had %d", len(rep.Groups), len(baseRep.Groups))
	}
	for i, row := range append(rep.Groups, rep.Total) {
		want := baseRep.Total
		if i < len(baseRep.Groups) {
			want = baseRep.Groups[i]
		}
		row.Solver, want.Solver = SolverEffort{}, SolverEffort{}
		row.Replayed, want.Replayed = 0, 0
		if !reflect.DeepEqual(row, want) {
			t.Fatalf("assembled row %+v, run had %+v", row, want)
		}
	}
	if rep.Total.Elapsed <= 0 {
		t.Fatalf("assembled report sums no synthesis time")
	}
	if rep.Total.Replayed != rep.Total.Goals {
		t.Fatalf("assembled report must mark every goal replayed (%d of %d)",
			rep.Total.Replayed, rep.Total.Goals)
	}

	// An incomplete record set must fail loudly, not ship a truncated
	// library.
	idx := rec.Index()
	for k := range idx {
		delete(idx, k)
		break
	}
	if _, _, err := AssembleLibrary(groups, idx, quickOpts()); err == nil {
		t.Fatalf("AssembleLibrary accepted an incomplete record set")
	}
}

// TestAssembleLibraryCanonicalOrder: a library's bytes depend only on
// each goal's rule set, not on the order in which the search found the
// rules — shuffling every record's patterns before the fold leaves the
// assembled bytes equal to the run's.
func TestAssembleLibraryCanonicalOrder(t *testing.T) {
	groups := QuickSetup()
	gr := mustGoalRunner(t, groups, quickOpts())
	recs := map[string]journal.GoalRecord{}
	for _, k := range GoalKeys(groups) {
		rec, err := gr.Run(k)
		if err != nil {
			t.Fatal(err)
		}
		recs[rec.Key()] = rec
	}
	baseLib, _, err := AssembleLibrary(groups, recs, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := baseLib.Save(&want); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for k, rec := range recs {
		rec.Patterns = slices.Clone(rec.Patterns)
		rng.Shuffle(len(rec.Patterns), func(i, j int) {
			rec.Patterns[i], rec.Patterns[j] = rec.Patterns[j], rec.Patterns[i]
		})
		recs[k] = rec
	}
	lib, _, err := AssembleLibrary(groups, recs, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("shuffled records assemble to different bytes:\n%s\nwant:\n%s", got.String(), want.String())
	}
}

// TestGoalRunnerMatchesRun is the farm's worker-side half: synthesizing
// the goals one at a time, in reverse order (the worst case for any
// hidden ordering dependence), through per-goal GoalRunner calls must
// journal records that assemble into the identical library.
func TestGoalRunnerMatchesRun(t *testing.T) {
	dir := t.TempDir()
	groups := QuickSetup()
	opts := quickOpts()
	baseLib, _, err := Run(groups, opts)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	hdr := journal.Header{
		Version: journal.Version, Setup: "quick", Width: opts.Width,
		ConfigHash: ConfigHash(groups, opts),
	}
	shard := filepath.Join(dir, "shard.journal")
	jw, err := journal.Create(shard, hdr)
	if err != nil {
		t.Fatal(err)
	}
	wopts := quickOpts()
	wopts.Journal = jw
	gr := mustGoalRunner(t, groups, wopts)

	keys := GoalKeys(groups)
	recs := make(map[string]journal.GoalRecord, len(keys))
	for i := len(keys) - 1; i >= 0; i-- { // reverse of dispatch order
		rec, err := gr.Run(keys[i])
		if err != nil {
			t.Fatalf("GoalRunner.Run(%s): %v", keys[i].Key(), err)
		}
		recs[rec.Key()] = rec
	}
	jw.Close()

	lib, _, err := AssembleLibrary(groups, recs, quickOpts())
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if !reflect.DeepEqual(lib.Rules, baseLib.Rules) {
		t.Fatalf("farmed library differs: %d vs %d rules", len(lib.Rules), len(baseLib.Rules))
	}

	// The shard journal holds every record; merging from disk (the
	// coordinator's path) gives the same library again.
	rec2, err := journal.Read(shard, hdr)
	if err != nil {
		t.Fatalf("read shard: %v", err)
	}
	lib2, _, err := AssembleLibrary(groups, rec2.Index(), quickOpts())
	if err != nil {
		t.Fatalf("assemble from shard: %v", err)
	}
	if !reflect.DeepEqual(lib2.Rules, baseLib.Rules) {
		t.Fatalf("shard-merged library differs: %d vs %d rules", len(lib2.Rules), len(baseLib.Rules))
	}

	// Bad leases are rejected, not synthesized.
	if _, err := gr.Run(GoalKey{Group: "NoSuch", Index: 0, Goal: "x"}); err == nil {
		t.Fatalf("GoalRunner accepted an unknown group")
	}
	if _, err := gr.Run(GoalKey{Group: groups[0].Name, Index: 99, Goal: "x"}); err == nil {
		t.Fatalf("GoalRunner accepted an out-of-range index")
	}
	if _, err := gr.Run(GoalKey{Group: groups[0].Name, Index: 0, Goal: "wrong-name"}); err == nil {
		t.Fatalf("GoalRunner accepted a mismatched goal name")
	}
}

// TestGoalRunnerLogsOneGoalDone: every GoalRunner.Run call logs exactly
// one driver.goal.done event, synthesized or replayed — the event bench
// counts goals by, for Run and farm workers alike.
func TestGoalRunnerLogsOneGoalDone(t *testing.T) {
	groups := QuickSetup()
	key := GoalKeys(groups)[0]
	var events bytes.Buffer
	tr := obs.New()
	tr.SetEventSink(&events, obs.LevelDebug)
	opts := quickOpts()
	opts.Obs = tr
	rec, err := mustGoalRunner(t, groups, opts).Run(key)
	if err != nil {
		t.Fatal(err)
	}
	opts.Resume = map[string]journal.GoalRecord{key.Key(): rec}
	if _, err := mustGoalRunner(t, groups, opts).Run(key); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(events.Bytes(), []byte(`"event":"driver.goal.done"`)); n != 2 {
		t.Fatalf("two Run calls logged %d driver.goal.done events, want 2:\n%s", n, events.String())
	}
	if !bytes.Contains(events.Bytes(), []byte(`"status":"replayed"`)) {
		t.Fatalf("the replayed goal's event is not marked replayed:\n%s", events.String())
	}
}

// TestGoalRunnerReplaysFromShard: a crash-restarted worker resuming its
// own shard replays journaled goals instead of re-synthesizing them.
func TestGoalRunnerReplaysFromShard(t *testing.T) {
	dir := t.TempDir()
	groups := QuickSetup()
	opts := quickOpts()
	hdr := journal.Header{
		Version: journal.Version, Setup: "quick", Width: opts.Width,
		ConfigHash: ConfigHash(groups, opts),
	}
	shard := filepath.Join(dir, "shard.journal")
	jw, err := journal.Create(shard, hdr)
	if err != nil {
		t.Fatal(err)
	}
	wopts := quickOpts()
	wopts.Journal = jw
	keys := GoalKeys(groups)
	first, err := mustGoalRunner(t, groups, wopts).Run(keys[0])
	if err != nil {
		t.Fatal(err)
	}
	jw.Close()

	jw2, rec, err := journal.Resume(shard, hdr)
	if err != nil {
		t.Fatalf("resume shard: %v", err)
	}
	defer jw2.Close()
	tr := obs.New()
	ropts := quickOpts()
	ropts.Journal = jw2
	ropts.Resume = rec.Index()
	ropts.Obs = tr
	again, err := mustGoalRunner(t, groups, ropts).Run(keys[0])
	if err != nil {
		t.Fatal(err)
	}
	if tr.Metrics().CounterValue("driver.resume.replayed") != 1 {
		t.Fatalf("restarted worker re-synthesized a journaled goal")
	}
	if !reflect.DeepEqual(again.Patterns, first.Patterns) || again.Status != first.Status {
		t.Fatalf("replayed record differs from the original")
	}
}

// stopOnGoalDone is an event sink that closes a stop channel the first
// time a cegis goal completes — a deterministic mid-run interrupt.
type stopOnGoalDone struct {
	mu   sync.Mutex
	stop chan struct{}
	done bool
}

func (s *stopOnGoalDone) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.done && bytes.Contains(p, []byte(`"event":"cegis.goal.done"`)) {
		s.done = true
		close(s.stop)
	}
	return len(p), nil
}

// TestRunInterruptedThenResumed: a Stop mid-run returns ErrInterrupted
// with every finished goal journaled; resuming that journal completes
// the run to the identical library. This is the SIGINT contract the
// selgen CLI builds on.
func TestRunInterruptedThenResumed(t *testing.T) {
	dir := t.TempDir()
	groups := QuickSetup()
	opts := quickOpts()
	baseLib, _, err := Run(groups, opts)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	total := 0
	for _, g := range groups {
		total += len(g.Goals)
	}

	hdr := journal.Header{
		Version: journal.Version, Setup: "quick", Width: opts.Width,
		ConfigHash: ConfigHash(groups, opts),
	}
	path := filepath.Join(dir, "run.journal")
	jw, err := journal.Create(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	sink := &stopOnGoalDone{stop: make(chan struct{})}
	tr := obs.New()
	tr.SetEventSink(sink, obs.LevelDebug)
	iopts := quickOpts()
	iopts.Journal = jw
	iopts.Obs = tr
	iopts.Stop = sink.stop
	lib, rep, err := Run(groups, iopts)
	jw.Close()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	if !rep.Interrupted {
		t.Fatalf("report does not mark the run interrupted")
	}
	if rep.Total.Goals < 1 || rep.Total.Goals >= total {
		t.Fatalf("interrupted run finished %d goals, want between 1 and %d", rep.Total.Goals, total-1)
	}
	if lib == nil {
		t.Fatalf("interrupted run returned no partial library")
	}
	var buf bytes.Buffer
	rep.WriteTable(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("run stopped early")) {
		t.Fatalf("table does not mention the interrupt:\n%s", buf.String())
	}

	jw2, rec, err := journal.Resume(path, hdr)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if len(rec.Goals) != rep.Total.Goals {
		t.Fatalf("journal holds %d goals, report says %d finished", len(rec.Goals), rep.Total.Goals)
	}
	// The resume runs two goroutines: replays and fresh goals share the
	// journal and the fold.
	ropts := quickOpts()
	ropts.Journal = jw2
	ropts.Resume = rec.Index()
	ropts.Parallel = 2
	full, rrep, err := Run(groups, ropts)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	jw2.Close()
	if rrep.Total.Replayed != len(rec.Goals) {
		t.Fatalf("resume replayed %d goals, want %d", rrep.Total.Replayed, len(rec.Goals))
	}
	if !reflect.DeepEqual(full.Rules, baseLib.Rules) {
		t.Fatalf("interrupt+resume library differs: %d vs %d rules", len(full.Rules), len(baseLib.Rules))
	}
}

// TestResumeDuplicatesSurfaced: duplicate journal records (a reclaimed
// farm lease finishing twice) are counted, logged, and shown in the
// report — never silently trusted.
func TestResumeDuplicatesSurfaced(t *testing.T) {
	tr := obs.New()
	opts := quickOpts()
	opts.Obs = tr
	opts.ResumeDuplicates = []string{"Quick/0/inc", "Quick/2/add"}
	_, rep, err := Run(QuickSetup(), opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.JournalDuplicates != 2 {
		t.Fatalf("JournalDuplicates = %d, want 2", rep.JournalDuplicates)
	}
	if got := tr.Metrics().CounterValue("driver.journal.duplicate"); got != 2 {
		t.Fatalf("driver.journal.duplicate = %d, want 2", got)
	}
	var buf bytes.Buffer
	rep.WriteTable(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("2 duplicate journal record(s)")) {
		t.Fatalf("table does not surface the duplicates:\n%s", buf.String())
	}
}

func mustGoalRunner(t *testing.T, groups []Group, opts Options) *GoalRunner {
	t.Helper()
	gr, err := NewGoalRunner(groups, opts)
	if err != nil {
		t.Fatal(err)
	}
	return gr
}
