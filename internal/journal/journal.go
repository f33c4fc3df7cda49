// Package journal implements the crash-safe run journal: an
// append-only JSONL checkpoint of per-goal synthesis outcomes. The
// driver appends one record — status plus the verified patterns — the
// moment a goal finishes, each record fsync'd before the run proceeds,
// so a crash (panic, OOM kill, SIGKILL) loses at most the goal that was
// in flight. `selgen -resume <journal>` validates the header (setup,
// width, config hash), truncates a torn tail, replays the completed
// goals, and re-runs only the rest, reproducing the exact rule library
// an uninterrupted run would have produced (synthesis is deterministic
// per goal, and the driver merges results in goal order).
//
// File format: line 1 is a header record, every further line a goal
// record or a lease record (the farm coordinator's grants, see Lease).
// Records are single-line JSON objects with a "kind" discriminator.
// Appends are atomic at the record level: one Write call for the whole
// line, followed by File.Sync. A crash mid-append leaves
// a final line without a terminating newline (or an unparsable JSON
// prefix); Resume truncates the file back to the last intact record.
// A journal holds one record per goal: selgen and farm workers append
// only the goals they synthesized, never the ones they replayed (two
// workers that finish the same goal write two shards, and the farm's
// merge dedups across shards). So any other malformation — a corrupt
// record mid-file, a duplicate goal key, a header mismatch — is
// reported as a clear error rather than silently repaired, because it
// indicates corruption (or operator error) beyond what a torn append
// can produce.
//
// A journal has one writer at a time: Create and Resume take an
// exclusive flock on the file, held until Close (or until the process
// dies), and fail with ErrLocked while another open Writer holds it.
// Read takes no lock.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
	"time"

	"selgen/internal/failpoint"
	"selgen/internal/pattern"
)

// Version is the journal format version; bumped on incompatible record
// changes.
const Version = 1

// Header identifies the run a journal belongs to. Resume refuses a
// journal whose header differs from the current run's, so patterns
// synthesized under one configuration are never replayed into another.
type Header struct {
	Version int    `json:"version"`
	Setup   string `json:"setup"`
	Width   int    `json:"width"`
	// Target is the machine backend the run synthesizes for (empty in
	// journals from before multi-target support, which were always
	// x86). It is checked explicitly — not just via ConfigHash — so a
	// cross-ISA resume fails with a message naming the ISAs rather than
	// an opaque hash mismatch.
	Target string `json:"target,omitempty"`
	// ConfigHash fingerprints everything else that shapes the library
	// (group structure, seeds, budgets); see driver.ConfigHash.
	ConfigHash string `json:"configHash"`
}

// GoalRecord is one completed goal: its identity within the run, its
// final status, and the verified patterns it contributed.
type GoalRecord struct {
	Group string `json:"group"`
	// Index is the goal's position within its group; together with
	// Group and Goal it keys the record (goal names are unique per
	// group today, but the index keeps keys collision-free if that
	// ever changes).
	Index    int    `json:"index"`
	Goal     string `json:"goal"`
	Status   string `json:"status"` // ok | retried | degraded | quarantined
	Attempts int    `json:"attempts,omitempty"`
	// MinLen and Patterns mirror cegis.Result: replaying them yields
	// the same library contribution as re-running the goal.
	MinLen    int               `json:"minLen"`
	Patterns  []pattern.Pattern `json:"patterns,omitempty"`
	ElapsedMS int64             `json:"elapsedMs,omitempty"`
	// Err is the first line of the goal's terminal error, if any
	// (degraded and quarantined records).
	Err string `json:"err,omitempty"`
}

// Key returns the record's identity within the run.
func (g GoalRecord) Key() string { return Key(g.Group, g.Index, g.Goal) }

// Key builds the journal key of a goal.
func Key(group string, index int, goal string) string {
	return fmt.Sprintf("%s/%d/%s", group, index, goal)
}

// Lease is one farm lease grant: the goal's key and the grant's
// attempt number. The farm coordinator journals every grant, so a
// resumed coordinator continues each goal's attempt count (and with it
// the quarantine cap) instead of starting it afresh.
type Lease struct {
	Key     string `json:"key"`
	Attempt int    `json:"attempt"`
}

// record is the on-disk line envelope.
type record struct {
	Kind   string      `json:"kind"` // "header", "goal" or "lease"
	Header *Header     `json:"header,omitempty"`
	Goal   *GoalRecord `json:"goal,omitempty"`
	Lease  *Lease      `json:"lease,omitempty"`
}

// ErrLocked reports a journal that another open Writer holds, in this
// process or another one.
var ErrLocked = errors.New("journal: locked by another writer")

// lock takes the single-writer lock on f without blocking.
func lock(f *os.File) error {
	err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if errors.Is(err, syscall.EWOULDBLOCK) {
		return fmt.Errorf("%w: %s", ErrLocked, f.Name())
	}
	if err != nil {
		return fmt.Errorf("journal: locking %s: %w", f.Name(), err)
	}
	return nil
}

// WaitUnlocked waits until no Writer holds the journal at path, for at
// most timeout, and fails with ErrLocked if one still does then. A
// missing file has no writer.
func WaitUnlocked(path string, timeout time.Duration) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer f.Close() // releases the lock taken below
	deadline := time.Now().Add(timeout)
	for {
		err := lock(f)
		if !errors.Is(err, ErrLocked) || time.Now().After(deadline) {
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Writer appends records to a journal file. Safe for concurrent use
// (the driver may finish goals on parallel workers).
type Writer struct {
	mu sync.Mutex
	f  *os.File

	// Faults, when non-nil, arms the journal failpoints: torn writes
	// (a record prefix is written without its tail, then an error is
	// reported) and post-append process kills (for crash/resume
	// testing).
	Faults *failpoint.Registry
}

// Create starts a fresh journal at path, truncating any previous file,
// and writes the header record. It fails with ErrLocked, leaving the
// file untouched, while another Writer holds it.
func Create(path string, h Header) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if err := lock(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	w := &Writer{f: f}
	if err := w.writeHeader(h); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

func (w *Writer) writeHeader(h Header) error {
	buf, err := json.Marshal(record{Kind: "header", Header: &h})
	if err != nil {
		return fmt.Errorf("journal: encoding header: %w", err)
	}
	return w.append(append(buf, '\n'))
}

// Append durably records one completed goal: the full line is written
// in a single Write call and fsync'd before Append returns, so the
// record survives any crash that happens afterwards.
func (w *Writer) Append(g GoalRecord) error {
	return w.appendRecord(record{Kind: "goal", Goal: &g}, g.Key())
}

// AppendLease durably records one lease grant, with Append's discipline
// and failpoints.
func (w *Writer) AppendLease(l Lease) error {
	return w.appendRecord(record{Kind: "lease", Lease: &l}, "lease "+l.Key)
}

func (w *Writer) appendRecord(r record, what string) error {
	buf, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("journal: encoding %s: %w", what, err)
	}
	buf = append(buf, '\n')
	if w.Faults.Active(failpoint.JournalTornWrite) {
		// Simulate a crash mid-append: half the record reaches the
		// disk, the newline never does.
		w.mu.Lock()
		w.f.Write(buf[:len(buf)/2])
		w.f.Sync()
		w.mu.Unlock()
		return fmt.Errorf("journal: injected torn write for %s", what)
	}
	if err := w.append(buf); err != nil {
		return err
	}
	if w.Faults.Active(failpoint.JournalKill) {
		// A deterministic SIGKILL right after the record is durable:
		// the resume path must reproduce the uninterrupted run from
		// exactly this prefix. (Unix Kill is uncatchable, so no
		// deferred cleanup runs — the point of the exercise.)
		if p, err := os.FindProcess(os.Getpid()); err == nil {
			p.Kill()
		}
	}
	return nil
}

func (w *Writer) append(line []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(line); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	return nil
}

// Close syncs and closes the journal file, releasing its lock.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("journal: sync: %w", err)
	}
	return w.f.Close()
}

// Path returns the journal file's name.
func (w *Writer) Path() string { return w.f.Name() }

// Recovered is what Resume salvaged from an interrupted run.
type Recovered struct {
	Header Header
	// Goals holds the intact goal records in journal order, one per key.
	Goals []GoalRecord
	// Attempts is the highest lease attempt recorded per goal key (nil
	// when the journal holds no lease record).
	Attempts map[string]int
	// TruncatedBytes counts torn-tail bytes dropped from the file
	// (zero for a cleanly written journal).
	TruncatedBytes int

	// sawHeader records whether an intact header line was read (false
	// only for an empty or header-torn file, which Resume re-heads).
	sawHeader bool
}

// Index returns the recovered goals keyed by Key, the form the driver
// consumes.
func (r *Recovered) Index() map[string]GoalRecord {
	m := make(map[string]GoalRecord, len(r.Goals))
	for _, g := range r.Goals {
		m[g.Key()] = g
	}
	return m
}

// Resume opens an existing journal for continuation: it validates the
// header against want, truncates a torn tail, and returns a Writer
// positioned to append plus the recovered records. An empty file (a
// crash before the header reached the disk) is recovered as a fresh
// journal: the header is written and no goals are replayed. Like
// Create, it fails with ErrLocked while another Writer holds the file.
func Resume(path string, want Header) (*Writer, *Recovered, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if err := lock(f); err != nil {
		f.Close()
		return nil, nil, err
	}
	w := &Writer{f: f}
	rec, err := scan(f, want)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if rec.TruncatedBytes > 0 {
		if err := truncateTail(f, rec.TruncatedBytes); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	// ReadAll (and a truncation) leave the offset away from the logical
	// end; position for appends before any write.
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if !rec.sawHeader {
		// Empty file (or a journal whose only, torn line was the
		// header): recover by starting the journal afresh.
		rec.Header = want
		if err := w.writeHeader(want); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return w, rec, nil
}

// Read opens a journal read-only and scans it: the header is validated
// against want, and a torn tail is tolerated (reported via
// TruncatedBytes, the file itself is left untouched). This is the farm
// coordinator's merge path —
// it must inspect worker shards without taking over their append
// position the way Resume does.
func Read(path string, want Header) (*Recovered, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	return scan(f, want)
}

// scan parses the journal, validating the header and goal records. It
// reports a torn tail via Recovered.TruncatedBytes and fails on any
// corruption a torn append cannot explain.
func scan(f *os.File, want Header) (*Recovered, error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return scanData(data, want)
}

// scanData is scan over an in-memory journal image (the fuzz entry
// point: FuzzJournalScan feeds it byte-mutated journals).
func scanData(data []byte, want Header) (*Recovered, error) {
	rec := &Recovered{}
	if len(data) == 0 {
		return rec, nil
	}
	seen := make(map[string]bool)
	sawHeader := false
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// No terminating newline: the final append was torn.
			rec.TruncatedBytes = len(data) - off
			break
		}
		line := data[off : off+nl]
		end := off + nl + 1
		var r record
		if uerr := json.Unmarshal(line, &r); uerr != nil {
			if end == len(data) {
				// An unparsable final line is a torn append whose
				// prefix happened to include a newline byte inside a
				// string — recoverable like any torn tail.
				rec.TruncatedBytes = len(data) - off
				break
			}
			return nil, fmt.Errorf("journal: corrupt record at byte %d: %v", off, uerr)
		}
		switch r.Kind {
		case "header":
			if sawHeader {
				return nil, fmt.Errorf("journal: duplicate header at byte %d", off)
			}
			if r.Header == nil {
				return nil, fmt.Errorf("journal: header record without body at byte %d", off)
			}
			sawHeader = true
			if err := CheckHeader(*r.Header, want); err != nil {
				return nil, err
			}
			rec.Header = *r.Header
			rec.sawHeader = true
		case "goal":
			if !sawHeader {
				return nil, fmt.Errorf("journal: goal record before header at byte %d", off)
			}
			if r.Goal == nil {
				return nil, fmt.Errorf("journal: goal record without body at byte %d", off)
			}
			key := r.Goal.Key()
			if seen[key] {
				return nil, fmt.Errorf("journal: duplicate record for goal %s at byte %d", key, off)
			}
			seen[key] = true
			rec.Goals = append(rec.Goals, *r.Goal)
		case "lease":
			if !sawHeader {
				return nil, fmt.Errorf("journal: lease record before header at byte %d", off)
			}
			if r.Lease == nil {
				return nil, fmt.Errorf("journal: lease record without body at byte %d", off)
			}
			if rec.Attempts == nil {
				rec.Attempts = make(map[string]int)
			}
			rec.Attempts[r.Lease.Key] = max(rec.Attempts[r.Lease.Key], r.Lease.Attempt)
		default:
			return nil, fmt.Errorf("journal: unknown record kind %q at byte %d", r.Kind, off)
		}
		off = end
	}
	if !sawHeader && rec.TruncatedBytes > 0 {
		// The only line was torn: same recovery as an empty file.
		return &Recovered{TruncatedBytes: rec.TruncatedBytes}, nil
	}
	return rec, nil
}

// CheckHeader validates a journal header against the current run's:
// version, target identity (the cross-ISA refusal — a library
// synthesized for one ISA is never replayed into another), and the
// setup/width/config fingerprint. The farm coordinator applies the same
// check to worker registrations and shard headers, so every shard that
// reaches the merge provably belongs to the same run configuration.
func CheckHeader(got, want Header) error {
	if got.Version != want.Version {
		return fmt.Errorf("journal: version mismatch: journal has v%d, this binary writes v%d", got.Version, want.Version)
	}
	if normTarget(got.Target) != normTarget(want.Target) {
		return fmt.Errorf("journal: target mismatch: journal was written for target=%q, this run is target=%q — a rule library synthesized for one ISA cannot be resumed into another",
			normTarget(got.Target), normTarget(want.Target))
	}
	if got.Setup != want.Setup || got.Width != want.Width || got.ConfigHash != want.ConfigHash {
		return fmt.Errorf("journal: config mismatch: journal was written by setup=%q width=%d hash=%s; this run is setup=%q width=%d hash=%s — resume with matching flags or start a fresh journal",
			got.Setup, got.Width, got.ConfigHash, want.Setup, want.Width, want.ConfigHash)
	}
	return nil
}

// normTarget canonicalizes a header target name: journals from before
// multi-target support carry no target field and were always x86.
// (Deliberately duplicated from internal/target to keep this package
// dependency-free.)
func normTarget(name string) string {
	if name == "" {
		return "x86"
	}
	return name
}

func truncateTail(f *os.File, tail int) error {
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := f.Truncate(fi.Size() - int64(tail)); err != nil {
		return fmt.Errorf("journal: truncating torn tail: %w", err)
	}
	return f.Sync()
}
