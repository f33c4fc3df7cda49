// Shard merge: fold the workers' journal shards back into one record
// set. The merge takes every shard in the farm directory, in ascending
// worker id: a resume may run fewer workers than the run it continues.
// Each shard's header is validated with journal.CheckHeader (a shard
// written for another ISA or configuration is refused, same as a
// cross-ISA resume), torn tails are tolerated (a SIGKILL'd worker's
// last append), and a shard holding one goal twice is refused as
// corrupt (journal.Read). A goal recorded in two shards — its worker
// died between the shard append and the report, and another worker ran
// it again — keeps the first occurrence in ascending worker-id order,
// deterministically. Synthesis is deterministic per goal, so which
// copy survives cannot change the merged library; the count is still
// reported, because a duplicate in a farm that reclaimed nothing is a
// corruption signal.

package farm

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"selgen/internal/failpoint"
	"selgen/internal/journal"
	"selgen/internal/pattern"
)

// shardPaths lists the worker shards in dir (ShardPath's names), in
// ascending worker id.
func shardPaths(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("farm: %w", err)
	}
	var ids []int
	for _, e := range ents {
		var id int
		if _, err := fmt.Sscanf(e.Name(), "worker-%d.journal", &id); err == nil &&
			ShardPath(dir, id) == filepath.Join(dir, e.Name()) {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	paths := make([]string, len(ids))
	for i, id := range ids {
		paths[i] = ShardPath(dir, id)
	}
	return paths, nil
}

// mergeShards reads the shard journals at paths (missing files are
// fine — a worker that never started has no shard) and merges their
// goal records, returning the record set and the count of records
// another shard already held.
func mergeShards(hdr journal.Header, paths []string) (map[string]journal.GoalRecord, int, error) {
	recs := make(map[string]journal.GoalRecord)
	dups := 0
	for _, p := range paths {
		if _, err := os.Stat(p); os.IsNotExist(err) {
			continue
		}
		rec, err := journal.Read(p, hdr)
		if err != nil {
			return nil, 0, fmt.Errorf("farm: shard %s: %w", p, err)
		}
		for _, g := range rec.Goals {
			if _, ok := recs[g.Key()]; ok {
				dups++
				continue
			}
			recs[g.Key()] = g
		}
	}
	return recs, dups, nil
}

// WriteLibrary saves the merged library to path. The farm.merge.write
// failpoint fails the write before the file is touched, so the
// merge-retry path can be driven without a full disk; the journals are
// untouched either way, and a re-run with -resume redoes only the
// merge.
func WriteLibrary(path string, lib *pattern.Library, faults *failpoint.Registry) error {
	if faults.Active(failpoint.FarmMergeWrite) {
		return fmt.Errorf("farm: injected merge-write failure for %s", path)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("farm: writing merged library: %w", err)
	}
	if err := lib.Save(f); err != nil {
		f.Close()
		return fmt.Errorf("farm: writing merged library: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("farm: writing merged library: %w", err)
	}
	return nil
}
