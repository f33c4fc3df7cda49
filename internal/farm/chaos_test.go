// Chaos tests: the farm's guarantees under real SIGKILL, not simulated
// errors. Worker chaos re-execs this test binary as worker subprocesses
// with journal.kill armed, so each dies by uncatchable signal right
// after an append is durable; coordinator chaos runs a whole farm in a
// subprocess with journal.kill armed in the coordinator's registry and
// then resumes it here.
// Both assert the farm's core claim: the merged library is
// byte-identical to an uninterrupted single-process run.

package farm

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"selgen/internal/driver"
	"selgen/internal/failpoint"
)

// TestFarmWorkerHelper is the subprocess body for worker chaos: a real
// farm worker, optionally armed with journal.kill so the OS kills it
// mid-run. Skipped unless launched by TestChaosWorkerSIGKILL.
func TestFarmWorkerHelper(t *testing.T) {
	coord := os.Getenv("FARM_WORKER_COORD")
	if coord == "" {
		t.Skip("subprocess helper")
	}
	id, err := strconv.Atoi(os.Getenv("FARM_WORKER_ID"))
	if err != nil {
		t.Fatalf("FARM_WORKER_ID: %v", err)
	}
	groups, opts, hdr := farmSetup()
	if spec := os.Getenv("FARM_WORKER_FAULTS"); spec != "" {
		reg, err := failpoint.Parse(spec, 1)
		if err != nil {
			t.Fatalf("faults: %v", err)
		}
		opts.Faults = reg
	}
	if err := RunWorker(WorkerConfig{
		ID: id, Coord: coord, Groups: groups, Opts: opts,
		Header: hdr, Shard: os.Getenv("FARM_WORKER_SHARD"),
	}); err != nil {
		t.Fatalf("worker: %v", err)
	}
}

// procHandle adapts a worker subprocess to Handle.
type procHandle struct {
	cmd  *exec.Cmd
	once sync.Once
	done chan error
}

func (h *procHandle) Kill() { h.once.Do(func() { h.cmd.Process.Kill() }) }

func (h *procHandle) Done() <-chan error { return h.done }

// TestChaosWorkerSIGKILL: two real worker subprocesses, each armed to
// be SIGKILLed by the OS right after its second journal append is
// durable. The coordinator must detect the deaths, reclaim the leases,
// respawn the workers (which crash-recover their shards), and merge a
// library byte-identical to the uninterrupted single-process run.
func TestChaosWorkerSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	groups, opts, hdr := farmSetup()
	baseLib, _, err := driver.Run(groups, opts)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	var mu sync.Mutex
	spawns := make(map[int]int)
	var signalDeaths atomic.Int64
	spawn := func(id int, coordURL, shard string) (Handle, error) {
		mu.Lock()
		gen := spawns[id]
		spawns[id]++
		mu.Unlock()
		cmd := exec.Command(os.Args[0], "-test.run=TestFarmWorkerHelper$")
		env := append(os.Environ(),
			"FARM_WORKER_COORD="+coordURL,
			"FARM_WORKER_ID="+strconv.Itoa(id),
			"FARM_WORKER_SHARD="+shard,
		)
		if gen == 0 {
			// First generation only: die (uncatchably) right after the
			// second record is fsync'd. Respawns run clean — the chaos
			// is in the recovery, not an infinite crash loop.
			env = append(env, "FARM_WORKER_FAULTS=journal.kill=hit:2")
		}
		cmd.Env = env
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		h := &procHandle{cmd: cmd, done: make(chan error, 1)}
		go func() {
			err := cmd.Wait()
			var xerr *exec.ExitError
			if errors.As(err, &xerr) && xerr.ExitCode() == -1 {
				signalDeaths.Add(1)
			}
			h.done <- err
		}()
		return h, nil
	}

	lib, rep, err := Run(Config{
		Groups: groups, Opts: opts, Header: hdr,
		Dir: t.TempDir(), Workers: 2,
		Spawn: spawn,
	})
	if err != nil {
		t.Fatalf("farm run: %v", err)
	}
	// Pigeonhole: 5 goals across 2 workers means some first-generation
	// worker reaches its second append and dies by signal.
	if signalDeaths.Load() < 1 {
		t.Fatalf("no worker died by SIGKILL; the chaos never happened")
	}
	if rep.Respawns < 1 {
		t.Fatalf("SIGKILL'd workers were not respawned (respawns=%d)", rep.Respawns)
	}
	if len(rep.Quarantined) != 0 {
		t.Fatalf("chaos run quarantined goals: %v", rep.Quarantined)
	}
	if !bytes.Equal(saveBytes(t, lib), saveBytes(t, baseLib)) {
		t.Fatalf("merged library differs from the uninterrupted run: %d vs %d rules",
			len(lib.Rules), len(baseLib.Rules))
	}
}

// TestFarmCoordinatorHelper is the subprocess body for coordinator
// chaos: a whole farm (in-process workers) whose coordinator is
// SIGKILLed right after a coordinator-journal append is durable.
// Skipped unless launched by TestChaosCoordinatorKillThenResume.
func TestFarmCoordinatorHelper(t *testing.T) {
	dir := os.Getenv("FARM_COORD_DIR")
	if dir == "" {
		t.Skip("subprocess helper")
	}
	groups, opts, hdr := farmSetup()
	faults, err := failpoint.Parse(os.Getenv("FARM_COORD_FAULTS"), 1)
	if err != nil {
		t.Fatalf("faults: %v", err)
	}
	_, _, err = Run(Config{
		Groups: groups, Opts: opts, Header: hdr,
		Dir: dir, Workers: 2,
		Spawn:  inprocSpawner(groups, opts, hdr),
		Faults: faults,
	})
	if err != nil {
		t.Fatalf("farm run: %v", err)
	}
	t.Fatal("coordinator survived the journal.kill failpoint")
}

// TestChaosCoordinatorKillThenResume: the coordinator process dies by
// SIGKILL mid-run (taking its in-process workers with it — the whole
// farm host vanishes); `-resume` on the same directory rebuilds the
// lease table from the shards and the coordinator journal and
// completes to the byte-identical library.
func TestChaosCoordinatorKillThenResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	groups, opts, hdr := farmSetup()
	baseLib, _, err := driver.Run(groups, opts)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	dir := t.TempDir()

	// The coordinator appends only lease grants and quarantines; hit:3
	// kills it on the third grant, with work genuinely in flight.
	cmd := exec.Command(os.Args[0], "-test.run=TestFarmCoordinatorHelper$")
	cmd.Env = append(os.Environ(),
		"FARM_COORD_DIR="+dir,
		"FARM_COORD_FAULTS=journal.kill=hit:3",
	)
	out, err := cmd.CombinedOutput()
	var xerr *exec.ExitError
	if !errors.As(err, &xerr) || xerr.ExitCode() != -1 {
		t.Fatalf("coordinator subprocess did not die by signal: err=%v\n%s", err, out)
	}

	lib, rep, err := Run(Config{
		Groups: groups, Opts: opts, Header: hdr,
		Dir: dir, Workers: 2,
		Spawn:  inprocSpawner(groups, opts, hdr),
		Resume: true,
	})
	if err != nil {
		t.Fatalf("resumed farm run: %v", err)
	}
	if !bytes.Equal(saveBytes(t, lib), saveBytes(t, baseLib)) {
		t.Fatalf("resume after coordinator death differs from the uninterrupted run: %d vs %d rules",
			len(lib.Rules), len(baseLib.Rules))
	}
	total := 0
	for _, g := range groups {
		total += len(g.Goals)
	}
	if rep.Replayed+rep.Synthesized < total {
		t.Fatalf("resume accounted for %d+%d goals, want %d", rep.Replayed, rep.Synthesized, total)
	}
}
