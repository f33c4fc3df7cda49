// Package farm is the fault-tolerant distributed synthesis farm: a
// lease-based coordinator that shards a setup's searched goals
// (driver.Plan) across N selgen worker processes and survives every
// crash the stack below it can produce. A goal the plan derives from
// another gets no lease; the merge derives it. Work assignment is by
// lease — a goal is granted to one worker with a deadline; an expired
// lease is reclaimed and reassigned with exponential backoff, and a
// goal that exhausts its attempt budget is quarantined rather than
// wedging the run. Worker health is watched two ways: process exit
// (the spawner's handle) and a heartbeat that scrapes each worker's
// /metrics endpoint — a worker whose telemetry stops answering is
// killed and its leases reclaimed like any crash.
//
// Every journal here is an internal/journal file. Each worker fsyncs
// every finished goal into its own shard before reporting it, so a
// SIGKILL loses at most the goal in flight. The coordinator journal
// (CoordJournalPath) holds only what the shards cannot say: each lease
// grant with its attempt number, and each quarantine as a goal record
// (a quarantined goal has no shard record). `selfarm -resume` takes the
// done goals from the shards and the attempt counts and quarantines
// from the coordinator journal. The merge reads the shards back
// (validating each header with journal.CheckHeader — the same
// cross-ISA/configuration refusal a single-process resume applies),
// then the coordinator journal's quarantine records for the goals no
// shard holds, and folds them through the plan's Assemble, whose
// aggregation order makes the merged library byte-identical to an
// uninterrupted single-process run, no matter which workers ran which
// goals, in what order, or how many times a reclaimed lease made a goal
// finish twice.
package farm

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"selgen/internal/driver"
	"selgen/internal/failpoint"
	"selgen/internal/journal"
	"selgen/internal/obs"
	"selgen/internal/pattern"
)

// Handle is a spawned worker as the coordinator sees it: killable, and
// observable for exit. For a process worker these wrap Process.Kill and
// Wait; tests use in-process goroutine workers behind the same surface.
type Handle interface {
	// Kill forcibly stops the worker. Idempotent.
	Kill()
	// Done yields the worker's terminal error (nil for a clean exit)
	// exactly once.
	Done() <-chan error
}

// SpawnFunc launches worker id against the coordinator at coordURL,
// journaling into shard. cmd/selfarm supplies an exec-based spawner
// running `selgen -farm`; tests supply in-process or re-exec spawners.
type SpawnFunc func(id int, coordURL, shard string) (Handle, error)

// ErrStopped reports a farm run interrupted through Config.Stop. The
// journals are intact; -resume completes the run.
var ErrStopped = errors.New("farm: run stopped")

// Config configures a farm run.
type Config struct {
	// Groups and Opts define the synthesis run, exactly as they would be
	// passed to driver.Run in a single process. Opts.Journal/Resume/Stop
	// are owned by the farm and must be nil.
	Groups []driver.Group
	Opts   driver.Options
	// Header is the run identity every worker registration and every
	// shard must match (journal.CheckHeader).
	Header journal.Header
	// Dir holds the coordinator journal and the worker shards.
	Dir string
	// Workers is the number of worker processes (≥ 1).
	Workers int
	// Lease is each grant's deadline (default 2m). A goal not completed
	// within it is reclaimed and reassigned.
	Lease time.Duration
	// MaxAttempts caps grants per goal before quarantine (default 4).
	MaxAttempts int
	// Backoff is the base reclaim backoff, doubled per attempt
	// (default Lease/4).
	Backoff time.Duration
	// Heartbeat is the telemetry scrape interval (0 = heartbeat off).
	// stallScrapes consecutive failed scrapes condemn a worker.
	Heartbeat time.Duration
	// MaxRespawns bounds worker respawns across the run (default
	// 2 + 2×Workers); past it, a crash is fatal rather than healed.
	MaxRespawns int
	// Resume rebuilds the lease table from Dir's shards and coordinator
	// journal instead of starting fresh.
	Resume bool
	// Stop requests a graceful shutdown: workers are stopped, journals
	// stay intact, Run returns ErrStopped.
	Stop <-chan struct{}
	// Spawn launches workers. Required.
	Spawn SpawnFunc
	// Faults arms the farm.* failpoints (nil in production).
	Faults *failpoint.Registry
	// Obs receives farm.* events and counters (nil = metrics only).
	Obs *obs.Tracer
}

// Report summarizes a farm run for the operator and the benchmark's
// farm section.
type Report struct {
	Workers     int           `json:"workers"`
	Goals       int           `json:"goals"`       // goals leased: the searched ones
	Derived     int           `json:"derived"`     // goals the merge derives, never leased
	Synthesized int           `json:"synthesized"` // completions received this run
	Replayed    int           `json:"replayed"`    // already done at start (resume)
	Granted     int           `json:"leases_granted"`
	Reclaimed   int           `json:"leases_reclaimed"`
	Respawns    int           `json:"respawns"`
	Kills       int           `json:"heartbeat_kills"`
	Late        int           `json:"late_completions"` // finished after reclaim
	Duplicates  int           `json:"shard_duplicates"` // duplicate records across shards
	Quarantined []string      `json:"quarantined,omitempty"`
	Elapsed     time.Duration `json:"-"`
	GoalsPerSec float64       `json:"goals_per_sec"`
	// Driver is the merged library's aggregation report (Table 2 shape).
	Driver *driver.Report `json:"-"`
}

// ShardPath names worker id's journal inside dir — one place, so the
// coordinator, the resume scan, and cmd/selfarm can never disagree.
func ShardPath(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("worker-%d.journal", id))
}

// CoordJournalPath names the coordinator's lease journal inside dir.
func CoordJournalPath(dir string) string {
	return filepath.Join(dir, "coordinator.journal")
}

// stallScrapes is how many consecutive failed heartbeat scrapes
// condemn a worker.
const stallScrapes = 3

type goalState int

const (
	gsPending goalState = iota
	gsLeased
	gsDone
	gsQuarantined
)

type goalEntry struct {
	key       driver.GoalKey
	state     goalState
	owner     int
	deadline  time.Time
	notBefore time.Time
	attempts  int
}

type workerState struct {
	id        int
	handle    Handle
	gen       int // spawn generation; stale monitor exits are ignored
	telemetry string
	stalls    int
}

type coordinator struct {
	cfg        Config
	plan       *driver.Plan
	tr         *obs.Tracer
	httpServer *http.Server

	mu        sync.Mutex
	goals     []*goalEntry
	byKey     map[string]*goalEntry
	workers   map[int]*workerState
	jw        *journal.Writer
	remaining int
	finished  chan struct{}
	done      bool // finished closed
	fatal     error
	closed    bool // teardown started; ignore worker exits
	// exits counts the exit monitors of spawned workers; teardown waits
	// for it, so no killed worker still appends to its shard when Run
	// returns (a Resume run's new worker would interleave with it).
	exits sync.WaitGroup

	granted, reclaimed, respawns, kills, late int
	synthesized, replayed                     int
	quarantined                               []string
}

func (c *coordinator) maybeFinish() {
	if !c.done && (c.remaining == 0 || c.fatal != nil) {
		c.done = true
		close(c.finished)
	}
}

func (c *coordinator) fail(err error) {
	if c.fatal == nil {
		c.fatal = err
	}
	c.maybeFinish()
}

// Run executes a whole farm run: spawn, lease, heal, merge. It returns
// the merged library — byte-identical to a single-process driver.Run of
// the same groups and options — and the farm report.
func Run(cfg Config) (*pattern.Library, *Report, error) {
	start := time.Now()
	if cfg.Spawn == nil {
		return nil, nil, errors.New("farm: Config.Spawn is required")
	}
	if cfg.Workers < 1 {
		return nil, nil, fmt.Errorf("farm: %d workers; need at least 1", cfg.Workers)
	}
	if cfg.Opts.Journal != nil || cfg.Opts.Resume != nil || cfg.Opts.Stop != nil {
		return nil, nil, errors.New("farm: Opts.Journal/Resume/Stop are owned by the farm; leave them nil")
	}
	if cfg.Lease <= 0 {
		cfg.Lease = 2 * time.Minute
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = cfg.Lease / 4
	}
	if cfg.MaxRespawns <= 0 {
		cfg.MaxRespawns = 2 + 2*cfg.Workers
	}
	tr := cfg.Obs
	if tr == nil {
		tr = obs.New()
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("farm: %w", err)
	}

	// The lease table lists only the goals a run searches; the merge
	// derives the others from the same plan.
	plan, err := driver.NewPlan(cfg.Groups, cfg.Opts)
	if err != nil {
		return nil, nil, fmt.Errorf("farm: %w", err)
	}
	c := &coordinator{
		cfg:      cfg,
		plan:     plan,
		tr:       tr,
		byKey:    make(map[string]*goalEntry),
		workers:  make(map[int]*workerState),
		finished: make(chan struct{}),
	}
	for _, k := range plan.Searched() {
		e := &goalEntry{key: k}
		c.goals = append(c.goals, e)
		c.byKey[k.Key()] = e
	}
	c.remaining = len(c.goals)

	if cfg.Resume {
		if err := c.resume(); err != nil {
			return nil, nil, err
		}
	} else {
		jw, err := journal.Create(CoordJournalPath(cfg.Dir), cfg.Header)
		if err != nil {
			return nil, nil, fmt.Errorf("farm: coordinator journal: %w", err)
		}
		c.jw = jw
	}
	c.jw.Faults = cfg.Faults
	defer c.jw.Close()
	c.mu.Lock()
	c.maybeFinish() // a fully-replayed resume goes straight to merge
	needWorkers := c.remaining > 0
	c.mu.Unlock()

	if needWorkers {
		url, err := c.serveHTTP()
		if err != nil {
			return nil, nil, err
		}
		defer c.httpServer.Close()

		c.mu.Lock()
		for id := 0; id < cfg.Workers; id++ {
			if err := c.spawnLocked(id, url); err != nil {
				// A failed initial spawn consumes respawn budget like any
				// crash; the run proceeds if at least one worker started.
				c.noteSpawnFailureLocked(id, url, err)
			}
		}
		alive := 0
		for _, ws := range c.workers {
			if ws.handle != nil {
				alive++
			}
		}
		c.mu.Unlock()
		if alive == 0 {
			c.mu.Lock()
			c.fail(errors.New("farm: no worker could be spawned"))
			c.mu.Unlock()
		}

		stopTick := make(chan struct{})
		defer close(stopTick)
		go c.reclaimLoop(stopTick)
		if cfg.Heartbeat > 0 {
			go c.heartbeatLoop(stopTick)
		}

		select {
		case <-c.finished:
		case <-cfg.Stop:
			c.mu.Lock()
			c.fail(ErrStopped)
			c.mu.Unlock()
		}

		// Teardown: workers are idle once remaining hits zero (a lease
		// poll answers done and they exit); kill covers the fatal paths.
		// A killed worker may still be finishing a goal, so wait for
		// every one to exit before the shards are merged.
		c.mu.Lock()
		c.closed = true
		for _, ws := range c.workers {
			if ws.handle != nil {
				ws.handle.Kill()
			}
		}
		c.mu.Unlock()
		c.exits.Wait()
	}

	rep := c.report(cfg.Workers, start)
	c.mu.Lock()
	fatal := c.fatal
	c.mu.Unlock()
	if fatal != nil {
		return nil, rep, fatal
	}

	// Merge: the shards are the source of truth for every synthesized
	// record, and the coordinator journal, read last, adds the
	// quarantine records of the goals no shard holds (a straggler's
	// real record wins over its quarantine).
	paths, err := shardPaths(cfg.Dir)
	if err != nil {
		return nil, rep, err
	}
	recs, dups, err := mergeShards(cfg.Header, paths)
	if err != nil {
		return nil, rep, err
	}
	rep.Duplicates = dups
	coord, err := journal.Read(CoordJournalPath(cfg.Dir), cfg.Header)
	if err != nil {
		return nil, rep, fmt.Errorf("farm: coordinator journal: %w", err)
	}
	for _, q := range coord.Goals {
		if _, ok := recs[q.Key()]; !ok {
			recs[q.Key()] = q
		}
	}
	lib, drep, err := c.plan.Assemble(recs)
	if err != nil {
		return nil, rep, err
	}
	rep.Driver = drep
	rep.Elapsed = time.Since(start)
	if s := rep.Elapsed.Seconds(); s > 0 {
		rep.GoalsPerSec = float64(rep.Goals) / s
	}
	tr.Eventf(obs.LevelInfo, "farm.done",
		[]obs.Arg{obs.Int("goals", int64(rep.Goals)), obs.Int("rules", int64(len(lib.Rules))),
			obs.Int("reclaimed", int64(rep.Reclaimed)), obs.Int("respawns", int64(rep.Respawns))},
		"farm: %d goal(s) → %d rule(s) on %d worker(s) in %s (%d lease(s) reclaimed, %d respawn(s))\n",
		rep.Goals, len(lib.Rules), rep.Workers, rep.Elapsed.Round(time.Millisecond),
		rep.Reclaimed, rep.Respawns)
	return lib, rep, nil
}

// resume rebuilds the lease table after coordinator death. A goal is
// done when some shard holds its record; the coordinator journal then
// restores each goal's attempt count (so the backoff and quarantine
// ladder continues where the dead coordinator left it) and its
// quarantines. A lease without a completion simply lapses: the goal
// returns to the pending pool with its attempt count intact.
//
// A worker of the dead coordinator may still be finishing its goal: it
// appends the record to its shard, fails to report it, and exits. So
// the shards are read only once no process holds one (journal's
// single-writer lock), waiting at most one lease; the late record then
// counts as done instead of being leased again.
func (c *coordinator) resume() error {
	paths, err := shardPaths(c.cfg.Dir)
	if err != nil {
		return err
	}
	for _, p := range paths {
		if err := journal.WaitUnlocked(p, c.cfg.Lease); err != nil {
			return fmt.Errorf("farm: resume waited %s for a shard's writer: %w", c.cfg.Lease, err)
		}
	}
	done, _, err := mergeShards(c.cfg.Header, paths)
	if err != nil {
		return err
	}
	jw, rec, err := journal.Resume(CoordJournalPath(c.cfg.Dir), c.cfg.Header)
	if err != nil {
		return fmt.Errorf("farm: coordinator journal: %w", err)
	}
	c.jw = jw
	for _, e := range c.goals {
		if _, ok := done[e.key.Key()]; ok {
			e.state = gsDone
			c.remaining--
			c.replayed++
		}
		e.attempts = rec.Attempts[e.key.Key()]
	}
	for _, q := range rec.Goals {
		if e := c.byKey[q.Key()]; e != nil && e.state == gsPending {
			e.state = gsQuarantined
			c.remaining--
			c.quarantined = append(c.quarantined, q.Key())
		}
	}
	c.tr.Eventf(obs.LevelInfo, "farm.resume",
		[]obs.Arg{obs.Int("done", int64(c.replayed)),
			obs.Int("quarantined", int64(len(c.quarantined))),
			obs.Int("remaining", int64(c.remaining))},
		"farm: resumed — %d goal(s) done, %d quarantined, %d remaining\n",
		c.replayed, len(c.quarantined), c.remaining)
	return nil
}

func (c *coordinator) report(workers int, start time.Time) *Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	q := make([]string, len(c.quarantined))
	copy(q, c.quarantined)
	sort.Strings(q)
	return &Report{
		Workers: workers, Goals: len(c.goals),
		Derived:     len(driver.GoalKeys(c.cfg.Groups)) - len(c.goals),
		Synthesized: c.synthesized, Replayed: c.replayed,
		Granted: c.granted, Reclaimed: c.reclaimed,
		Respawns: c.respawns, Kills: c.kills, Late: c.late,
		Quarantined: q,
		Elapsed:     time.Since(start),
	}
}

// spawnLocked launches worker id against its shard (c.mu held).
func (c *coordinator) spawnLocked(id int, url string) error {
	if c.cfg.Faults.Active(failpoint.FarmWorkerSpawn) {
		return fmt.Errorf("farm: injected spawn failure for worker %d", id)
	}
	shard := ShardPath(c.cfg.Dir, id)
	h, err := c.cfg.Spawn(id, url, shard)
	if err != nil {
		return fmt.Errorf("farm: spawning worker %d: %w", id, err)
	}
	ws := c.workers[id]
	if ws == nil {
		ws = &workerState{id: id}
		c.workers[id] = ws
	}
	ws.handle = h
	ws.gen++
	ws.telemetry = ""
	ws.stalls = 0
	gen := ws.gen
	c.tr.Add("farm.worker.spawns", 1)
	c.tr.Eventf(obs.LevelInfo, "farm.worker.spawn",
		[]obs.Arg{obs.Int("worker", int64(id))},
		"farm: worker %d spawned (shard %s)\n", id, shard)
	c.exits.Add(1)
	go func() {
		defer c.exits.Done()
		err := <-h.Done()
		c.workerExited(id, gen, url, err)
	}()
	return nil
}

// noteSpawnFailureLocked charges a failed spawn against the respawn
// budget and retries once the budget allows (c.mu held).
func (c *coordinator) noteSpawnFailureLocked(id int, url string, err error) {
	c.tr.Eventf(obs.LevelWarn, "farm.worker.spawn_failed",
		[]obs.Arg{obs.Int("worker", int64(id)), obs.Str("error", err.Error())},
		"farm: worker %d spawn failed: %v\n", id, err)
	if c.respawns >= c.cfg.MaxRespawns {
		return
	}
	c.respawns++
	if rerr := c.spawnLocked(id, url); rerr != nil {
		c.tr.Eventf(obs.LevelWarn, "farm.worker.spawn_failed",
			[]obs.Arg{obs.Int("worker", int64(id)), obs.Str("error", rerr.Error())},
			"farm: worker %d respawn failed: %v\n", id, rerr)
	}
}

// workerExited handles a worker's death (or clean exit): its leases are
// reclaimed immediately — no need to wait out the deadline, the lessee
// provably no longer exists — and, if goals remain, the worker is
// respawned against the budget. The shard survives, so the respawned
// worker replays its own durable work.
func (c *coordinator) workerExited(id, gen int, url string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.workers[id]
	if ws == nil || ws.gen != gen || c.closed || c.done {
		return
	}
	ws.handle = nil
	level, what := obs.LevelInfo, "exited"
	if err != nil {
		level, what = obs.LevelWarn, fmt.Sprintf("died: %v", err)
	}
	c.tr.Add("farm.worker.exits", 1)
	c.tr.Eventf(level, "farm.worker.exit",
		[]obs.Arg{obs.Int("worker", int64(id))},
		"farm: worker %d %s\n", id, what)
	now := time.Now()
	for _, e := range c.goals {
		if e.state == gsLeased && e.owner == id {
			c.reclaimLocked(e, now, "owner died")
		}
	}
	if c.remaining == 0 {
		return
	}
	if c.respawns >= c.cfg.MaxRespawns {
		alive := 0
		for _, w := range c.workers {
			if w.handle != nil {
				alive++
			}
		}
		if alive == 0 {
			c.fail(fmt.Errorf("farm: respawn budget (%d) exhausted with %d goal(s) remaining",
				c.cfg.MaxRespawns, c.remaining))
		}
		return
	}
	c.respawns++
	if rerr := c.spawnLocked(id, url); rerr != nil {
		c.noteSpawnFailureLocked(id, url, rerr)
	}
}

// register validates a worker's announced header against the run's —
// the same cross-ISA/configuration refusal journal resume applies — and
// records its telemetry URL for the heartbeat.
func (c *coordinator) register(id int, hdr journal.Header, telemetry string) error {
	if err := journal.CheckHeader(hdr, c.cfg.Header); err != nil {
		c.tr.Eventf(obs.LevelError, "farm.register.refused",
			[]obs.Arg{obs.Int("worker", int64(id)), obs.Str("error", err.Error())},
			"farm: refusing worker %d: %v\n", id, err)
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.workers[id]
	if ws == nil {
		ws = &workerState{id: id}
		c.workers[id] = ws
	}
	ws.telemetry = telemetry
	ws.stalls = 0
	return nil
}

// lease grants the next available goal. The grant is journaled before
// the response is built, so a coordinator crash between the two leaves
// a lease that resume simply lets lapse back into the pending pool.
func (c *coordinator) lease(worker int) (leaseResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remaining == 0 || c.done {
		return leaseResponse{Done: true}, nil
	}
	now := time.Now()
	for _, e := range c.goals {
		if e.state != gsPending || now.Before(e.notBefore) {
			continue
		}
		e.attempts++
		if err := c.jw.AppendLease(journal.Lease{Key: e.key.Key(), Attempt: e.attempts}); err != nil {
			c.fail(err)
			return leaseResponse{}, err
		}
		e.state = gsLeased
		e.owner = worker
		e.deadline = now.Add(c.cfg.Lease)
		c.granted++
		c.tr.Add("farm.lease.granted", 1)
		c.tr.Eventf(obs.LevelDebug, "farm.lease.grant",
			[]obs.Arg{obs.Str("key", e.key.Key()), obs.Int("worker", int64(worker)),
				obs.Int("attempt", int64(e.attempts))},
			"farm: lease %s → worker %d (attempt %d)\n", e.key.Key(), worker, e.attempts)
		if c.cfg.Faults.Active(failpoint.FarmLeaseGrant) {
			// The grant is recorded but the response is dropped: the
			// worker never learns of it, the lease sits idle until its
			// deadline, and the expiry → reclaim → reassign path runs.
			c.tr.Eventf(obs.LevelWarn, "farm.lease.dropped",
				[]obs.Arg{obs.Str("key", e.key.Key())},
				"farm: injected drop of lease grant %s\n", e.key.Key())
			return leaseResponse{WaitMS: c.waitHintLocked(now)}, nil
		}
		return leaseResponse{
			Key:     &goalKeyWire{Group: e.key.Group, Index: e.key.Index, Goal: e.key.Goal},
			LeaseMS: c.cfg.Lease.Milliseconds(),
		}, nil
	}
	return leaseResponse{WaitMS: c.waitHintLocked(now)}, nil
}

// waitHintLocked tells an idle worker how long to sleep before polling
// again: until the nearest backoff expiry or lease deadline, clamped to
// [10ms, 1s].
func (c *coordinator) waitHintLocked(now time.Time) int64 {
	next := now.Add(time.Second)
	for _, e := range c.goals {
		switch e.state {
		case gsPending:
			if e.notBefore.After(now) && e.notBefore.Before(next) {
				next = e.notBefore
			}
		case gsLeased:
			if e.deadline.Before(next) {
				next = e.deadline
			}
		}
	}
	ms := time.Until(next).Milliseconds()
	if ms < 10 {
		ms = 10
	}
	return ms
}

// complete records a finished goal. Nothing is journaled: the worker
// appended the record to its shard before reporting it. Work is
// accepted even from a worker whose lease was reclaimed — synthesis is
// deterministic, so the copies agree; the merge dedups and the report
// counts the late finish.
func (c *coordinator) complete(worker int, rec journal.GoalRecord) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.byKey[rec.Key()]
	if e == nil {
		return fmt.Errorf("farm: completion for unknown goal %s", rec.Key())
	}
	if e.state == gsDone {
		c.late++
		c.tr.Add("farm.complete.late", 1)
		return nil
	}
	wasQuarantined := e.state == gsQuarantined
	if e.state == gsLeased && e.owner != worker {
		c.late++
	}
	e.state = gsDone
	c.synthesized++
	if !wasQuarantined {
		c.remaining--
	} else {
		// A straggler outran its quarantine: the merge reads its shard
		// record before the quarantine record, so the real one wins.
		for i, q := range c.quarantined {
			if q == rec.Key() {
				c.quarantined = append(c.quarantined[:i], c.quarantined[i+1:]...)
				break
			}
		}
	}
	c.tr.Add("farm.goal.completed", 1)
	c.tr.Eventf(obs.LevelDebug, "farm.goal.done",
		[]obs.Arg{obs.Str("key", rec.Key()), obs.Int("worker", int64(worker)),
			obs.Str("status", rec.Status)},
		"farm: %s done on worker %d (%s)\n", rec.Key(), worker, rec.Status)
	c.maybeFinish()
	return nil
}

// reclaimLocked returns a leased goal to the pending pool (or
// quarantines it past the attempt cap); c.mu held.
func (c *coordinator) reclaimLocked(e *goalEntry, now time.Time, why string) {
	c.reclaimed++
	c.tr.Add("farm.lease.reclaimed", 1)
	c.tr.Eventf(obs.LevelWarn, "farm.lease.reclaim",
		[]obs.Arg{obs.Str("key", e.key.Key()), obs.Int("worker", int64(e.owner)),
			obs.Int("attempt", int64(e.attempts)), obs.Str("why", why)},
		"farm: reclaiming lease %s from worker %d (%s, attempt %d)\n",
		e.key.Key(), e.owner, why, e.attempts)
	if e.attempts >= c.cfg.MaxAttempts {
		if err := c.jw.Append(journal.GoalRecord{
			Group: e.key.Group, Index: e.key.Index, Goal: e.key.Goal,
			Status:   driver.StatusQuarantined.String(),
			Attempts: e.attempts,
			Err:      fmt.Sprintf("farm: quarantined after %d attempt(s)", e.attempts),
		}); err != nil {
			c.fail(err)
			return
		}
		e.state = gsQuarantined
		c.remaining--
		c.quarantined = append(c.quarantined, e.key.Key())
		c.tr.Add("farm.goal.quarantined", 1)
		c.tr.Eventf(obs.LevelError, "farm.goal.quarantine",
			[]obs.Arg{obs.Str("key", e.key.Key()), obs.Int("attempts", int64(e.attempts))},
			"farm: quarantining %s after %d attempt(s)\n", e.key.Key(), e.attempts)
		c.maybeFinish()
		return
	}
	e.state = gsPending
	// Exponential backoff: a goal that keeps killing its lease waits
	// longer each round, so a poison pill cannot monopolize the fleet.
	e.notBefore = now.Add(c.cfg.Backoff << (e.attempts - 1))
}

// reclaimLoop sweeps expired leases.
func (c *coordinator) reclaimLoop(stop <-chan struct{}) {
	tick := c.cfg.Lease / 8
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > 2*time.Second {
		tick = 2 * time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		now := time.Now()
		c.mu.Lock()
		for _, e := range c.goals {
			if e.state == gsLeased && now.After(e.deadline) {
				c.reclaimLocked(e, now, "lease expired")
			}
		}
		c.mu.Unlock()
	}
}

// heartbeatLoop scrapes every registered worker's /metrics, which
// answers "is the process serving at all". stallScrapes consecutive
// failures condemn the worker: it is killed, its exit reclaims its
// leases, and the respawn budget decides whether it is replaced.
func (c *coordinator) heartbeatLoop(stop <-chan struct{}) {
	client := &http.Client{Timeout: 5 * time.Second}
	t := time.NewTicker(c.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		type probe struct {
			id        int
			gen       int
			telemetry string
		}
		var probes []probe
		c.mu.Lock()
		for _, ws := range c.workers {
			if ws.handle != nil && ws.telemetry != "" {
				probes = append(probes, probe{ws.id, ws.gen, ws.telemetry})
			}
		}
		c.mu.Unlock()
		for _, p := range probes {
			err := scrapeWorker(client, p.telemetry)
			if c.cfg.Faults.Active(failpoint.FarmHeartbeatDrop) {
				err = errors.New("farm: injected heartbeat drop")
			}
			c.mu.Lock()
			ws := c.workers[p.id]
			if ws == nil || ws.gen != p.gen || ws.handle == nil {
				c.mu.Unlock()
				continue
			}
			if err == nil {
				ws.stalls = 0
				c.mu.Unlock()
				continue
			}
			ws.stalls++
			c.tr.Add("farm.heartbeat.failed", 1)
			if ws.stalls >= stallScrapes {
				c.kills++
				c.tr.Add("farm.worker.killed", 1)
				c.tr.Eventf(obs.LevelWarn, "farm.worker.kill",
					[]obs.Arg{obs.Int("worker", int64(p.id)), obs.Int("stalls", int64(ws.stalls))},
					"farm: killing worker %d after %d failed heartbeat(s)\n", p.id, ws.stalls)
				h := ws.handle
				c.mu.Unlock()
				h.Kill() // exit monitor reclaims leases and respawns
				continue
			}
			c.mu.Unlock()
		}
	}
}

// scrapeWorker probes one worker's liveness: its /metrics must answer
// 200.
func scrapeWorker(client *http.Client, base string) error {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("farm: /metrics: HTTP %d", resp.StatusCode)
	}
	return nil
}
