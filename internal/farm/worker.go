// The worker side of the farm: RunWorker is what `selgen -farm` runs.
// It opens (or crash-recovers) its own journal shard, registers with
// the coordinator — announcing its computed journal header, so a worker
// built from mismatched flags is refused up front — and then loops:
// lease a goal, synthesize it through driver.GoalRunner (the same retry
// ladder, panic quarantine, and journal append a single-process run
// uses), report the durable record back. The shard append happens
// inside GoalRunner.Run, strictly before /complete: a worker SIGKILL'd
// between the two leaves a durable record the merge picks up anyway,
// and one killed mid-synthesis loses only the goal in flight, which the
// coordinator reassigns once it sees the worker exit.

package farm

import (
	"fmt"
	"os"
	"time"

	"selgen/internal/driver"
	"selgen/internal/journal"
	"selgen/internal/obs"
)

// WorkerConfig configures one farm worker.
type WorkerConfig struct {
	// ID is the worker's farm-assigned identity (selgen -farm-id).
	ID int
	// Coord is the coordinator's base URL (selgen -farm).
	Coord string
	// Groups and Opts define the synthesis run and must match the
	// coordinator's (the Header check enforces it). Opts.Journal and
	// Opts.Resume are owned by the worker and must be nil.
	Groups []driver.Group
	Opts   driver.Options
	// Header is the worker's run identity, announced at registration.
	Header journal.Header
	// Shard is the worker's journal path (assigned by the coordinator
	// via the spawn command line).
	Shard string
	// Telemetry is the worker's telemetry base URL, advertised for the
	// coordinator's heartbeat ("" = no heartbeat for this worker).
	Telemetry string
	// Stop requests a graceful exit between goals (SIGINT/SIGTERM).
	Stop <-chan struct{}
}

// RunWorker runs the worker loop until the coordinator reports the run
// done, Stop is closed, or an error makes continuing pointless (a
// refused registration, a dead coordinator, a shard that cannot be
// appended to). A nil return means every goal this worker was handed is
// durable in its shard and acknowledged.
func RunWorker(cfg WorkerConfig) error {
	if cfg.Opts.Journal != nil || cfg.Opts.Resume != nil {
		return fmt.Errorf("farm: worker %d: Opts.Journal/Resume are owned by the worker; leave them nil", cfg.ID)
	}
	tr := cfg.Opts.Obs
	if tr == nil {
		tr = obs.New()
		cfg.Opts.Obs = tr
	}

	// Open the shard: crash recovery is just journal.Resume on our own
	// file — goals already durable replay instead of re-synthesizing.
	var (
		jw  *journal.Writer
		rec *journal.Recovered
		err error
	)
	if _, serr := os.Stat(cfg.Shard); serr == nil {
		jw, rec, err = journal.Resume(cfg.Shard, cfg.Header)
	} else {
		jw, err = journal.Create(cfg.Shard, cfg.Header)
	}
	if err != nil {
		return fmt.Errorf("farm: worker %d: %w", cfg.ID, err)
	}
	defer jw.Close()
	jw.Faults = cfg.Opts.Faults

	opts := cfg.Opts
	opts.Journal = jw
	if rec != nil {
		opts.Resume = rec.Index()
		if n := len(rec.Goals); n > 0 {
			tr.Eventf(obs.LevelInfo, "farm.worker.recovered",
				[]obs.Arg{obs.Int("worker", int64(cfg.ID)), obs.Int("goals", int64(n))},
				"farm: worker %d recovered %d goal(s) from its shard\n", cfg.ID, n)
		}
	}
	runner, err := driver.NewGoalRunner(cfg.Groups, opts)
	if err != nil {
		return fmt.Errorf("farm: worker %d: %w", cfg.ID, err)
	}

	cl := newClient(cfg.Coord)
	if err := cl.post("/register", registerRequest{
		Worker: cfg.ID, Header: cfg.Header, Telemetry: cfg.Telemetry,
	}, nil); err != nil {
		return fmt.Errorf("farm: worker %d: registration refused: %w", cfg.ID, err)
	}

	for {
		select {
		case <-cfg.Stop:
			tr.Eventf(obs.LevelInfo, "farm.worker.stop",
				[]obs.Arg{obs.Int("worker", int64(cfg.ID))},
				"farm: worker %d stopping on request\n", cfg.ID)
			return nil
		default:
		}
		var resp leaseResponse
		if err := cl.post("/lease", leaseRequest{Worker: cfg.ID}, &resp); err != nil {
			// A dead coordinator ends the worker; the shard is durable
			// and a resumed coordinator respawns us against it.
			return fmt.Errorf("farm: worker %d: %w", cfg.ID, err)
		}
		if resp.Done {
			return nil
		}
		if resp.Key == nil {
			wait := time.Duration(resp.WaitMS) * time.Millisecond
			if wait <= 0 {
				wait = 100 * time.Millisecond
			}
			select {
			case <-cfg.Stop:
			case <-time.After(wait):
			}
			continue
		}
		key := driver.GoalKey{Group: resp.Key.Group, Index: resp.Key.Index, Goal: resp.Key.Goal}
		record, err := runner.Run(key)
		if err != nil {
			// A lease naming a goal we don't have, or a shard append
			// failure: either way this worker cannot produce durable
			// work — die and let the coordinator reassign.
			return fmt.Errorf("farm: worker %d: %w", cfg.ID, err)
		}
		if err := cl.post("/complete", completeRequest{Worker: cfg.ID, Record: record}, nil); err != nil {
			return fmt.Errorf("farm: worker %d: %w", cfg.ID, err)
		}
	}
}
