package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"selgen/internal/failpoint"
	"selgen/internal/pattern"
)

var testHeader = Header{Version: Version, Setup: "quick", Width: 8, ConfigHash: "abc123"}

func testRecord(i int) GoalRecord {
	return GoalRecord{
		Group: "Quick", Index: i, Goal: "goal" + string(rune('a'+i)),
		Status: "ok", Attempts: 1, MinLen: 1,
		Patterns: []pattern.Pattern{{
			Nodes:   []pattern.Node{{Op: "Add", Args: []pattern.ValueRef{{Index: 0}, {Index: 1}}}},
			Results: []pattern.ValueRef{{Kind: pattern.RefNode}},
		}},
		ElapsedMS: int64(10 * (i + 1)),
	}
}

func mustCreate(t *testing.T, path string) *Writer {
	t.Helper()
	w, err := Create(path, testHeader)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	w := mustCreate(t, path)
	for i := 0; i < 3; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, rec, err := Resume(path, testHeader)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TruncatedBytes != 0 {
		t.Fatalf("clean journal reported %d truncated bytes", rec.TruncatedBytes)
	}
	if len(rec.Goals) != 3 {
		t.Fatalf("want 3 recovered goals, got %d", len(rec.Goals))
	}
	for i, g := range rec.Goals {
		want := testRecord(i)
		if g.Key() != want.Key() || g.Status != want.Status || len(g.Patterns) != 1 {
			t.Fatalf("goal %d mismatch: %+v", i, g)
		}
	}
	// The index keys what the driver skips.
	idx := rec.Index()
	if _, ok := idx[Key("Quick", 1, "goalb")]; !ok {
		t.Fatalf("index missing expected key; have %v", idx)
	}
	// And the resumed writer keeps appending where the run left off.
	if err := w2.Append(testRecord(3)); err != nil {
		t.Fatal(err)
	}
	w2.Close() // releases the single-writer lock for the next Resume
	_, rec2, err := Resume(path, testHeader)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Goals) != 4 {
		t.Fatalf("after resumed append: want 4 goals, got %d", len(rec2.Goals))
	}
}

// TestSingleWriter: while one Writer holds a journal, a second Create or
// Resume fails with ErrLocked and leaves the file as it was, Read still
// works, and WaitUnlocked times out with ErrLocked. Once the holder
// closes, WaitUnlocked returns and the next writer opens the file.
func TestSingleWriter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	if err := WaitUnlocked(filepath.Join(dir, "missing.jsonl"), 0); err != nil {
		t.Fatalf("WaitUnlocked on a missing journal: %v", err)
	}
	w := mustCreate(t, path)
	if err := w.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(path, testHeader); !errors.Is(err, ErrLocked) {
		t.Fatalf("Create on a held journal: %v, want ErrLocked", err)
	}
	if _, _, err := Resume(path, testHeader); !errors.Is(err, ErrLocked) {
		t.Fatalf("Resume on a held journal: %v, want ErrLocked", err)
	}
	if err := WaitUnlocked(path, 20*time.Millisecond); !errors.Is(err, ErrLocked) {
		t.Fatalf("WaitUnlocked on a held journal: %v, want ErrLocked", err)
	}
	if rec, err := Read(path, testHeader); err != nil || len(rec.Goals) != 1 {
		t.Fatalf("Read of a held journal: %v; want its 1 record intact", err)
	}

	go func() {
		time.Sleep(50 * time.Millisecond)
		w.Close()
	}()
	if err := WaitUnlocked(path, 10*time.Second); err != nil {
		t.Fatalf("WaitUnlocked after the writer closed: %v", err)
	}
	w2, rec, err := Resume(path, testHeader)
	if err != nil || len(rec.Goals) != 1 {
		t.Fatalf("Resume after the writer closed: %v", err)
	}
	if _, err := Create(path, testHeader); !errors.Is(err, ErrLocked) {
		t.Fatalf("Create on a resumed journal: %v, want ErrLocked", err)
	}
	w2.Close()
	w3, err := Create(path, testHeader)
	if err != nil {
		t.Fatalf("Create after Close: %v", err)
	}
	w3.Close()
}

// TestLeaseRoundTrip: the farm coordinator's records — lease grants and
// a quarantine goal record — survive the write → crash → resume cycle,
// including a torn tail.
func TestLeaseRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coordinator.journal")
	w := mustCreate(t, path)
	for _, l := range []Lease{{"Quick/0/a", 1}, {"Quick/1/b", 1}, {"Quick/1/b", 2}} {
		if err := w.AppendLease(l); err != nil {
			t.Fatal(err)
		}
	}
	quarantine := GoalRecord{Group: "Quick", Index: 1, Goal: "b", Status: "quarantined",
		Attempts: 2, Err: "farm: quarantined after 2 attempt(s)"}
	if err := w.Append(quarantine); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: a crash mid-append.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := `{"kind":"lease","lease":{"key":"Qu`
	f.WriteString(torn)
	f.Close()

	w2, rec, err := Resume(path, testHeader)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if rec.TruncatedBytes != len(torn) {
		t.Fatalf("truncated %d bytes, want the %d-byte torn tail", rec.TruncatedBytes, len(torn))
	}
	if len(rec.Attempts) != 2 || rec.Attempts["Quick/0/a"] != 1 || rec.Attempts["Quick/1/b"] != 2 {
		t.Fatalf("attempts not rebuilt: %v", rec.Attempts)
	}
	if len(rec.Goals) != 1 || rec.Goals[0].Key() != quarantine.Key() ||
		rec.Goals[0].Status != "quarantined" || rec.Goals[0].Attempts != 2 || rec.Goals[0].Err != quarantine.Err {
		t.Fatalf("quarantine record not rebuilt: %+v", rec.Goals)
	}
	// The torn tail was truncated: appends now extend an intact file.
	if err := w2.AppendLease(Lease{"Quick/0/a", 2}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	rec2, err := Read(path, testHeader)
	if err != nil || rec2.TruncatedBytes != 0 || rec2.Attempts["Quick/0/a"] != 2 {
		t.Fatalf("re-read after truncation: %v (torn %d bytes, attempts %v)", err, rec2.TruncatedBytes, rec2.Attempts)
	}
}

// A crash mid-append leaves a record prefix with no newline; Resume
// must drop exactly the torn tail and keep every intact record.
func TestTruncatedTailRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	w := mustCreate(t, path)
	for i := 0; i < 2; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record in half (drop its tail including newline).
	lastStart := strings.LastIndex(strings.TrimSuffix(string(data), "\n"), "\n") + 1
	torn := data[:lastStart+(len(data)-lastStart)/2]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, rec, err := Resume(path, testHeader)
	if err != nil {
		t.Fatalf("torn tail must recover, got %v", err)
	}
	if rec.TruncatedBytes == 0 {
		t.Fatalf("expected truncated bytes to be reported")
	}
	if len(rec.Goals) != 1 || rec.Goals[0].Key() != testRecord(0).Key() {
		t.Fatalf("want exactly the first record recovered, got %+v", rec.Goals)
	}
	// Re-appending the lost goal after recovery must yield a clean
	// journal again.
	if err := w2.Append(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, rec2, err := Resume(path, testHeader)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.TruncatedBytes != 0 || len(rec2.Goals) != 2 {
		t.Fatalf("journal still dirty after recovery: %+v", rec2)
	}
}

// The torn-write failpoint produces the same on-disk state as a real
// mid-append crash, and reports the failure to the caller.
func TestInjectedTornWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	w := mustCreate(t, path)
	faults, err := failpoint.Parse("journal.torn.write=hit:2", 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Faults = faults
	if err := w.Append(testRecord(0)); err != nil {
		t.Fatalf("first append should succeed: %v", err)
	}
	if err := w.Append(testRecord(1)); err == nil {
		t.Fatalf("torn write must report an error")
	}
	w.Close()
	if faults.Fired(failpoint.JournalTornWrite) != 1 {
		t.Fatalf("failpoint did not fire")
	}
	_, rec, err := Resume(path, testHeader)
	if err != nil {
		t.Fatalf("resume after torn write: %v", err)
	}
	if rec.TruncatedBytes == 0 || len(rec.Goals) != 1 {
		t.Fatalf("want 1 intact goal and a truncated tail, got %+v", rec)
	}
}

// TestDuplicateGoalEntryRefused: a journal holds one record per goal
// (nothing appends a replayed goal), so a second record for a key is
// corruption, refused with an error naming the key and its offset.
func TestDuplicateGoalEntryRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	w := mustCreate(t, path)
	for _, rec := range []GoalRecord{testRecord(0), testRecord(1), testRecord(0)} {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	off := len(lines[0]) + len(lines[1]) + len(lines[2])
	want := fmt.Sprintf("duplicate record for goal %s at byte %d", testRecord(0).Key(), off)
	if _, _, err := Resume(path, testHeader); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Resume of a journal with a duplicate goal: err %v, want one containing %q", err, want)
	}
	if _, err := Read(path, testHeader); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Read of a journal with a duplicate goal: err %v, want one containing %q", err, want)
	}
}

func TestConfigHashMismatchFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	w := mustCreate(t, path)
	w.Append(testRecord(0))
	w.Close()
	other := testHeader
	other.ConfigHash = "deadbeef"
	_, _, err := Resume(path, other)
	if err == nil || !strings.Contains(err.Error(), "config mismatch") {
		t.Fatalf("config-hash mismatch must fail with a clear error, got %v", err)
	}
	otherW := testHeader
	otherW.Width = 16
	_, _, err = Resume(path, otherW)
	if err == nil || !strings.Contains(err.Error(), "config mismatch") {
		t.Fatalf("width mismatch must fail with a clear error, got %v", err)
	}
}

// An empty file — the run was killed before the header write reached
// the disk — recovers as a fresh journal.
func TestEmptyFileRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	w, rec, err := Resume(path, testHeader)
	if err != nil {
		t.Fatalf("empty journal must recover, got %v", err)
	}
	if len(rec.Goals) != 0 {
		t.Fatalf("empty journal recovered goals: %+v", rec.Goals)
	}
	if err := w.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, rec2, err := Resume(path, testHeader)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Goals) != 1 {
		t.Fatalf("re-headed journal lost the appended goal: %+v", rec2)
	}
}

func TestMidFileCorruptionFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	w := mustCreate(t, path)
	w.Append(testRecord(0))
	w.Append(testRecord(1))
	w.Close()
	data, _ := os.ReadFile(path)
	// Flip a byte inside the middle record: parse fails on a line that
	// is not the final one, which a torn append cannot explain.
	lines := strings.SplitAfter(string(data), "\n")
	lines[1] = "{corrupt" + lines[1][8:]
	os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644)
	_, _, err := Resume(path, testHeader)
	if err == nil || !strings.Contains(err.Error(), "corrupt record") {
		t.Fatalf("mid-file corruption must fail, got %v", err)
	}
}

func TestMissingHeaderFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	line := `{"kind":"goal","goal":{"group":"G","index":0,"goal":"g","status":"ok","minLen":0}}` + "\n"
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Resume(path, testHeader)
	if err == nil || !strings.Contains(err.Error(), "before header") {
		t.Fatalf("missing header must fail, got %v", err)
	}
}

func TestVersionMismatchFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	old := testHeader
	old.Version = Version + 1
	w, err := Create(path, old)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, _, err = Resume(path, testHeader)
	if err == nil || !strings.Contains(err.Error(), "version mismatch") {
		t.Fatalf("version mismatch must fail, got %v", err)
	}
}

// A journal written for one target must not resume into a run for
// another: a rule library synthesized for one ISA is meaningless on a
// different one, even when setup, width, and config hash all agree.
func TestCrossTargetResumeFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	x86 := testHeader
	x86.Target = "x86"
	w, err := Create(path, x86)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(testRecord(0))
	w.Close()

	riscv := testHeader
	riscv.Target = "riscv"
	_, _, err = Resume(path, riscv)
	if err == nil || !strings.Contains(err.Error(), "target mismatch") {
		t.Fatalf("cross-target resume must fail with a target-mismatch error, got %v", err)
	}
	if err != nil && (!strings.Contains(err.Error(), "x86") || !strings.Contains(err.Error(), "riscv")) {
		t.Fatalf("cross-target error should name both ISAs, got %v", err)
	}
}

// A pre-multi-target journal (no target field) resumes into an x86 run:
// the empty target normalizes to the historical default.
func TestLegacyJournalResumesIntoX86(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	w := mustCreate(t, path) // testHeader has Target == ""
	w.Append(testRecord(0))
	w.Close()

	x86 := testHeader
	x86.Target = "x86"
	jw, rec, err := Resume(path, x86)
	if err != nil {
		t.Fatalf("legacy journal must resume into an x86 run, got %v", err)
	}
	defer jw.Close()
	if len(rec.Goals) != 1 {
		t.Fatalf("recovered %d goals, want 1", len(rec.Goals))
	}
}

// TestKillFailpointHelper is the subprocess body of TestKillFailpoint:
// it appends records with journal.kill=hit:2 armed, so the process is
// SIGKILLed right after the second record is durable. Skipped unless
// launched by TestKillFailpoint.
func TestKillFailpointHelper(t *testing.T) {
	path := os.Getenv("JOURNAL_KILL_PATH")
	if path == "" {
		t.Skip("subprocess helper")
	}
	w, err := Create(path, testHeader)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := failpoint.Parse("journal.kill=hit:2", 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Faults = reg
	for i := 0; i < 4; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("process survived the journal.kill failpoint")
}

// TestKillFailpoint proves the deterministic mid-run SIGKILL leaves a
// resumable journal with exactly the fsync'd prefix: the helper
// subprocess dies by signal after its second append, and Resume
// recovers both records with no torn tail.
func TestKillFailpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kill.journal")
	cmd := exec.Command(os.Args[0], "-test.run=TestKillFailpointHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "JOURNAL_KILL_PATH="+path)
	out, err := cmd.CombinedOutput()
	var xerr *exec.ExitError
	if !errors.As(err, &xerr) || xerr.ExitCode() != -1 {
		t.Fatalf("helper should die by signal, got err=%v\n%s", err, out)
	}
	w, rec, err := Resume(path, testHeader)
	if err != nil {
		t.Fatalf("resume after kill: %v", err)
	}
	defer w.Close()
	if len(rec.Goals) != 2 || rec.TruncatedBytes != 0 {
		t.Fatalf("recovered %d goals, %d torn bytes; want exactly the 2 fsync'd records", len(rec.Goals), rec.TruncatedBytes)
	}
}
