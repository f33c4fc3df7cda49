// Package farm is the fault-tolerant distributed synthesis farm: a
// lease-based coordinator that shards a setup's searched goals
// (driver.Plan) across N selgen worker processes and survives every
// crash the stack below it can produce. A goal the plan derives from
// another gets no lease; the merge derives it. Work assignment is by
// lease — a goal is granted to one worker, with a deadline derived from
// the retry ladder the worker runs it up (its one clock), and is lost
// only with its lessee: the worker exits, or asks for another goal. A
// lessee past its deadline is killed, and a goal that loses
// maxAttempts leases is quarantined rather than wedging the run.
// Worker health is watched two ways: process exit (the spawner's
// handle) and a heartbeat that scrapes each worker's /metrics endpoint
// — a worker whose telemetry stops answering is killed and its lease
// reclaimed like any crash.
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
// goals, in what order, or how many shards a goal finished in.
package farm

import (
	"errors"
	"fmt"
	"io"
	"math"
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
	// Heartbeat is the telemetry scrape interval (0 = heartbeat off).
	// stallScrapes consecutive failed scrapes condemn a worker.
	Heartbeat time.Duration
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
	Kills       int           `json:"kills"`            // failed heartbeats or a passed lease deadline
	Duplicates  int           `json:"shard_duplicates"` // records of one goal in several shards
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

// maxAttempts is how many leases a goal may lose (each with its
// lessee) before it is quarantined; a goal that exhausts its synthesis
// budget degrades on the worker's retry ladder within one lease.
const maxAttempts = 4

// maxRespawns is the run's worker respawn budget; past it, a crash is
// fatal rather than healed.
func maxRespawns(workers int) int { return 2 + 2*workers }

// pollInterval is how long an idle worker waits before asking again.
const pollInterval = time.Second

// leaseDeadline is how long one lessee may hold a goal under opts:
// twice the sum of the rung timeouts of driver.Ladder, the one budget a
// goal has, which leaves room for its set-up, its journal append and a
// solver call that overruns its rung. It is 0 (no deadline) when opts
// sets no per-goal timeout.
func leaseDeadline(opts driver.Options) time.Duration {
	var total time.Duration
	for _, timeout := range driver.Ladder(opts) {
		total += timeout
	}
	return 2 * total
}

type goalState int

const (
	gsPending goalState = iota
	gsLeased
	gsDone
	gsQuarantined
)

type goalEntry struct {
	key      driver.GoalKey
	state    goalState
	owner    int
	deadline time.Time // zero: none, or its lessee is already being killed
	attempts int
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
	term       time.Duration // leaseDeadline (0 = no deadline)

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

	granted, reclaimed, respawns, kills int
	synthesized, replayed               int
	quarantined                         []string
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
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("farm: %w", err)
	}
	c, err := newCoordinator(cfg)
	if err != nil {
		return nil, nil, err
	}

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
		if c.term > 0 {
			go c.deadlineLoop(stopTick)
		}
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
	c.tr.Eventf(obs.LevelInfo, "farm.done",
		[]obs.Arg{obs.Int("goals", int64(rep.Goals)), obs.Int("rules", int64(len(lib.Rules))),
			obs.Int("reclaimed", int64(rep.Reclaimed)), obs.Int("respawns", int64(rep.Respawns))},
		"farm: %d goal(s) → %d rule(s) on %d worker(s) in %s (%d lease(s) reclaimed, %d respawn(s))\n",
		rep.Goals, len(lib.Rules), rep.Workers, rep.Elapsed.Round(time.Millisecond),
		rep.Reclaimed, rep.Respawns)
	return lib, rep, nil
}

// newCoordinator builds the lease table. It lists only the goals a run
// searches, in plan order; the merge derives the others from the same
// plan.
func newCoordinator(cfg Config) (*coordinator, error) {
	plan, err := driver.NewPlan(cfg.Groups, cfg.Opts)
	if err != nil {
		return nil, fmt.Errorf("farm: %w", err)
	}
	c := &coordinator{
		cfg:      cfg,
		plan:     plan,
		tr:       cfg.Obs,
		term:     leaseDeadline(cfg.Opts),
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
	return c, nil
}

// resume rebuilds the lease table after coordinator death. A goal is
// done when some shard holds its record; the coordinator journal then
// restores each goal's attempt count (so the quarantine cap continues
// where the dead coordinator left it) and its quarantines. A lease
// without a completion simply lapses: the goal returns to the pending
// pool with its attempt count intact.
//
// A worker of the dead coordinator may still be finishing its goal: it
// appends the record to its shard, fails to report it, and exits. So
// the shards are read only once no process holds one (journal's
// single-writer lock), waiting at most one lease deadline (without
// bound when leases have none); the late record then counts as done
// instead of being leased again.
func (c *coordinator) resume() error {
	paths, err := shardPaths(c.cfg.Dir)
	if err != nil {
		return err
	}
	limit, bound := c.term, c.term.String()
	if limit == 0 {
		limit, bound = math.MaxInt64, "no deadline"
	}
	for _, p := range paths {
		err := journal.WaitUnlocked(p, 0)
		if errors.Is(err, journal.ErrLocked) {
			c.tr.Eventf(obs.LevelInfo, "farm.resume.wait",
				[]obs.Arg{obs.Str("shard", p)},
				"farm: waiting for the writer of shard %s to exit (%s)\n", p, bound)
			err = journal.WaitUnlocked(p, limit)
		}
		if err != nil {
			return fmt.Errorf("farm: resume waited for a shard's writer (%s): %w", bound, err)
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
		Respawns: c.respawns, Kills: c.kills,
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
	if c.respawns >= maxRespawns(c.cfg.Workers) {
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
	for _, e := range c.goals {
		if e.state == gsLeased && e.owner == id {
			c.reclaimLocked(e, "owner died")
		}
	}
	if c.remaining == 0 {
		return
	}
	if c.respawns >= maxRespawns(c.cfg.Workers) {
		alive := 0
		for _, w := range c.workers {
			if w.handle != nil {
				alive++
			}
		}
		if alive == 0 {
			c.fail(fmt.Errorf("farm: respawn budget (%d) exhausted with %d goal(s) remaining",
				maxRespawns(c.cfg.Workers), c.remaining))
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

// lease grants worker the pending goal with the fewest attempts, ties
// in plan order, so a goal that lost a lease waits behind every goal
// that has not. The worker loop is sequential: a worker that asks for
// a goal holds none, so a goal still leased to it was never received
// or has been given up, and is reclaimed first. The grant is journaled
// before the response is built, so a coordinator crash between the two
// leaves a lease that resume simply lets lapse back into the pending
// pool.
func (c *coordinator) lease(worker int) (leaseResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.done {
		for _, e := range c.goals {
			if e.state == gsLeased && e.owner == worker {
				c.reclaimLocked(e, "lessee asked for another goal")
			}
		}
	}
	if c.done {
		return leaseResponse{Done: true}, nil
	}
	var e *goalEntry
	for _, g := range c.goals {
		if g.state == gsPending && (e == nil || g.attempts < e.attempts) {
			e = g
		}
	}
	if e == nil {
		return leaseResponse{WaitMS: pollInterval.Milliseconds()}, nil
	}
	e.attempts++
	if err := c.jw.AppendLease(journal.Lease{Key: e.key.Key(), Attempt: e.attempts}); err != nil {
		c.fail(err)
		return leaseResponse{}, err
	}
	e.state = gsLeased
	e.owner = worker
	if c.term > 0 {
		e.deadline = time.Now().Add(c.term)
	}
	c.granted++
	c.tr.Add("farm.lease.granted", 1)
	c.tr.Eventf(obs.LevelDebug, "farm.lease.grant",
		[]obs.Arg{obs.Str("key", e.key.Key()), obs.Int("worker", int64(worker)),
			obs.Int("attempt", int64(e.attempts))},
		"farm: lease %s → worker %d (attempt %d)\n", e.key.Key(), worker, e.attempts)
	if c.cfg.Faults.Active(failpoint.FarmLeaseGrant) {
		// The grant is recorded but the response is dropped: the
		// worker never learns of it, and its next poll reclaims the
		// goal for reassignment.
		c.tr.Eventf(obs.LevelWarn, "farm.lease.dropped",
			[]obs.Arg{obs.Str("key", e.key.Key())},
			"farm: injected drop of lease grant %s\n", e.key.Key())
		return leaseResponse{WaitMS: pollInterval.Milliseconds()}, nil
	}
	return leaseResponse{
		Key: &goalKeyWire{Group: e.key.Group, Index: e.key.Index, Goal: e.key.Goal},
	}, nil
}

// complete records a finished goal. Nothing is journaled: the worker
// appended the record to its shard before reporting it. A record for a
// goal no longer leased to that worker is accepted too: it comes from
// outside the coordinator and is durable in a shard, and synthesis is
// deterministic, so every copy agrees and the merge dedups.
func (c *coordinator) complete(worker int, rec journal.GoalRecord) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.byKey[rec.Key()]
	if e == nil {
		return fmt.Errorf("farm: completion for unknown goal %s", rec.Key())
	}
	if e.state == gsDone {
		return nil
	}
	wasQuarantined := e.state == gsQuarantined
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

// reclaimLocked returns a leased goal to the pending pool, or
// quarantines it once it has lost maxAttempts leases; c.mu held.
func (c *coordinator) reclaimLocked(e *goalEntry, why string) {
	c.reclaimed++
	c.tr.Add("farm.lease.reclaimed", 1)
	c.tr.Eventf(obs.LevelWarn, "farm.lease.reclaim",
		[]obs.Arg{obs.Str("key", e.key.Key()), obs.Int("worker", int64(e.owner)),
			obs.Int("attempt", int64(e.attempts)), obs.Str("why", why)},
		"farm: reclaiming lease %s from worker %d (%s, attempt %d)\n",
		e.key.Key(), e.owner, why, e.attempts)
	if e.attempts >= maxAttempts {
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
}

// condemnLocked records the kill of worker ws and returns its handle,
// for the caller to kill once c.mu is released; the exit monitor then
// reclaims its lease, and the respawn budget decides whether it is
// replaced (c.mu held).
func (c *coordinator) condemnLocked(ws *workerState, why string) Handle {
	c.kills++
	c.tr.Add("farm.worker.killed", 1)
	c.tr.Eventf(obs.LevelWarn, "farm.worker.kill",
		[]obs.Arg{obs.Int("worker", int64(ws.id)), obs.Str("why", why)},
		"farm: killing worker %d: %s\n", ws.id, why)
	return ws.handle
}

// deadlineLoop kills the lessee of every lease past its deadline. A
// lessee that is already gone has its lease reclaimed here instead.
func (c *coordinator) deadlineLoop(stop <-chan struct{}) {
	t := time.NewTicker(min(max(c.term/8, 10*time.Millisecond), 2*time.Second))
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		now := time.Now()
		var doomed []Handle
		c.mu.Lock()
		for _, e := range c.goals {
			if e.state != gsLeased || e.deadline.IsZero() || now.Before(e.deadline) {
				continue
			}
			e.deadline = time.Time{}
			why := fmt.Sprintf("%s outlived its %s lease deadline", e.key.Key(), c.term)
			if ws := c.workers[e.owner]; ws != nil && ws.handle != nil {
				doomed = append(doomed, c.condemnLocked(ws, why))
			} else {
				c.reclaimLocked(e, why)
			}
		}
		c.mu.Unlock()
		for _, h := range doomed {
			h.Kill()
		}
	}
}

// heartbeatLoop scrapes every registered worker's /metrics, which
// answers "is the process serving at all". stallScrapes consecutive
// failures condemn the worker (condemnLocked).
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
				h := c.condemnLocked(ws, fmt.Sprintf("%d failed heartbeat(s)", ws.stalls))
				c.mu.Unlock()
				h.Kill() // exit monitor reclaims the lease and respawns
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
