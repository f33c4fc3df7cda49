package farm

import (
	"os"
	"path/filepath"
	"testing"

	"selgen/internal/failpoint"
	"selgen/internal/journal"
	"selgen/internal/pattern"
)

// TestMergeShards: records from several shards merge first-wins in
// shard order, cross-shard duplicates are counted, missing shards are
// tolerated, and a mismatched shard header or a shard that holds one
// goal twice is refused.
func TestMergeShards(t *testing.T) {
	dir := t.TempDir()
	_, _, hdr := farmSetup()
	rec := func(group string, idx int, goal string, ms int64) journal.GoalRecord {
		return journal.GoalRecord{Group: group, Index: idx, Goal: goal, Status: "ok", ElapsedMS: ms}
	}

	s0 := filepath.Join(dir, "worker-0.journal")
	jw, err := journal.Create(s0, hdr)
	if err != nil {
		t.Fatal(err)
	}
	jw.Append(rec("Quick", 0, "a", 1))
	jw.Append(rec("Quick", 1, "b", 2))
	jw.Close()

	s1 := filepath.Join(dir, "worker-1.journal")
	jw, err = journal.Create(s1, hdr)
	if err != nil {
		t.Fatal(err)
	}
	jw.Append(rec("Quick", 2, "c", 3))
	jw.Append(rec("Quick", 0, "a", 99)) // cross-shard duplicate: worker 0 died before reporting a
	jw.Close()

	recs, dups, err := mergeShards(hdr, []string{s0, s1, filepath.Join(dir, "worker-2.journal")})
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if len(recs) != 3 || dups != 1 {
		t.Fatalf("merged %d records with %d duplicates, want 3 and 1", len(recs), dups)
	}
	// First occurrence wins: worker 0's copy of Quick/0/a.
	if recs["Quick/0/a"].ElapsedMS != 1 {
		t.Fatalf("merge did not keep the first occurrence: %+v", recs)
	}

	// A shard holding one goal twice is corrupt: nothing appends a goal
	// its shard already holds.
	s2 := filepath.Join(dir, "worker-2.journal")
	jw, err = journal.Create(s2, hdr)
	if err != nil {
		t.Fatal(err)
	}
	jw.Append(rec("Quick", 2, "c", 3))
	jw.Append(rec("Quick", 2, "c", 99))
	jw.Close()
	if _, _, err := mergeShards(hdr, []string{s0, s2}); err == nil {
		t.Fatalf("merge accepted a shard holding a goal twice")
	}

	// A shard from another configuration is refused.
	bad := hdr
	bad.ConfigHash = "other"
	s3 := filepath.Join(dir, "worker-3.journal")
	jw, err = journal.Create(s3, bad)
	if err != nil {
		t.Fatal(err)
	}
	jw.Close()
	if _, _, err := mergeShards(hdr, []string{s0, s3}); err == nil {
		t.Fatalf("merge accepted a shard with a mismatched header")
	}

	// A torn shard tail (a SIGKILL'd worker's final append) is tolerated.
	data, err := os.ReadFile(s0)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "worker-4.journal")
	if err := os.WriteFile(torn, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, _, err = mergeShards(hdr, []string{torn})
	if err != nil {
		t.Fatalf("merge rejected a torn shard: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("torn shard recovered %d records, want 1 (only the torn final line dropped)", len(recs))
	}
}

// TestWriteLibraryFailpoint: farm.merge.write fails the write without
// touching the journals; disarming it (here: the once mode's second
// hit) lets the same call succeed.
func TestWriteLibraryFailpoint(t *testing.T) {
	dir := t.TempDir()
	lib := &pattern.Library{Width: 8}
	path := filepath.Join(dir, "out.json")
	faults, err := failpoint.Parse("farm.merge.write=once", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteLibrary(path, lib, faults); err == nil {
		t.Fatalf("injected merge-write failure did not fire")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("failed merge write left a file behind")
	}
	if err := WriteLibrary(path, lib, faults); err != nil {
		t.Fatalf("retry after injected failure: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("merged library not written: %v", err)
	}
}
