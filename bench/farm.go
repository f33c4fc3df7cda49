package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"selgen/internal/driver"
	"selgen/internal/farm"
	"selgen/internal/journal"
	"selgen/internal/pattern"
	"selgen/internal/target"
)

// farmWorkers is the farm's worker-process count: the box's two cores.
const farmWorkers = 2

// farmWorkload is farm-basic: the e2-basic goals through farm.Run with
// real `selgen -farm` worker processes, configured as selfarm's
// defaults configure them.
type farmWorkload struct {
	b       *bench
	groups  []driver.Group
	opts    driver.Options
	hdr     journal.Header
	args    []string
	suite   *suite
	sampler selSampler

	first []byte
	lib   *pattern.Library
	iter  int
	// workersMB is the largest per-iteration sum of worker peak RSS.
	workersMB float64
}

func (w *farmWorkload) setup() error {
	var err error
	if w.groups, err = driver.SetupFor("x86", "basic"); err != nil {
		return err
	}
	w.opts = cliOptions("x86")
	w.hdr = journal.Header{
		Version:    journal.Version,
		Setup:      "basic",
		Width:      width,
		Target:     "x86",
		ConfigHash: driver.ConfigHash(w.groups, w.opts),
	}
	// The flags selfarm hands its workers, so their ConfigHash agrees.
	w.args = []string{
		"-target", "x86", "-setup", "basic",
		"-width", strconv.Itoa(width),
		"-timeout", w.opts.PerGoalTimeout.String(),
		"-max-patterns", strconv.Itoa(w.opts.MaxPatternsPerGoal),
		"-seed", strconv.FormatInt(synthSeed, 10),
		"-sat-workers", "1",
		"-max-retries", "0",
		"-cost-aware=true",
		"-status", "127.0.0.1:0",
	}
	w.suite, err = newSuite(w.b)
	w.sampler = selSampler{b: w.b, suite: w.suite}
	return err
}

func (w *farmWorkload) iterate() (time.Duration, error) {
	b := w.b
	dir := filepath.Join(b.cfg.work, fmt.Sprintf("farm-%d", w.iter))
	w.iter++
	defer os.RemoveAll(dir)
	sp := &spawner{bin: b.cfg.selgen, args: w.args}
	fsp := b.htr.Span(0, "bench.farm_run")
	start := time.Now()
	lib, rep, err := farm.Run(farm.Config{
		Groups: w.groups, Opts: w.opts, Header: w.hdr,
		Dir:       dir,
		Workers:   farmWorkers,
		Heartbeat: 10 * time.Second, // selfarm's default
		Spawn:     sp.spawn,
		Obs:       b.htr,
	})
	wall := time.Since(start)
	fsp.End()
	cpu, rssMB := sp.wait()
	if err != nil {
		return 0, err
	}
	got := libraryBytes(lib)
	if w.first == nil {
		w.first, w.lib = got, lib
	} else if err := sameLibrary(w.first, got, "merged"); err != nil {
		return 0, err
	}

	// Per-goal synthesis times come from the workers' journal shards.
	var sumMS, maxMS int64
	for id := 0; id < farmWorkers; id++ {
		path := farm.ShardPath(dir, id)
		if _, err := os.Stat(path); err != nil {
			continue // a worker that never started leaves no shard
		}
		rec, err := journal.Read(path, w.hdr)
		if err != nil {
			return 0, err
		}
		for _, g := range rec.Goals {
			sumMS += g.ElapsedMS
			maxMS = max(maxMS, g.ElapsedMS)
			b.countGoal(g.Status, len(g.Patterns))
		}
	}
	for range rep.Quarantined {
		b.countGoal("quarantined", 0)
	}

	synthS := float64(sumMS) / 1e3
	b.add("farm.goals_per_s", float64(rep.Goals)/wall.Seconds())
	b.add("farm.busy_frac", synthS/(farmWorkers*wall.Seconds()))
	b.add("farm.overhead_s", wall.Seconds()-max(synthS/farmWorkers, float64(maxMS)/1e3))
	b.add("farm.leases_granted", float64(rep.Granted))
	b.add("farm.leases_reclaimed", float64(rep.Reclaimed))
	b.add("farm.respawns", float64(rep.Respawns))
	b.add("farm.worker_cpu_s", cpu.Seconds())
	b.add("farm.worker_rss_mb", rssMB)
	w.workersMB = max(w.workersMB, rssMB)
	return wall, w.sampler.sample([]libTarget{{target.X86(), lib}}, wall)
}

func (w *farmWorkload) finish() error {
	b := w.b
	if err := checkLibraries(b, w.suite, []libTarget{{target.X86(), w.lib}}); err != nil {
		return err
	}
	w.sampler.finish()
	b.add("peak_rss_mb", peakRSSMB()+w.workersMB)

	// The merged library must be what a single selgen process writes.
	// This runs after the RSS reading so the child stays out of it.
	sp := b.htr.Span(0, "bench.check")
	defer sp.End()
	ref := filepath.Join(b.cfg.work, "reference.json")
	defer os.Remove(ref)
	var stderr bytes.Buffer
	cmd := exec.Command(b.cfg.selgen, "-target", "x86", "-setup", "basic",
		"-seed", strconv.FormatInt(synthSeed, 10), "-o", ref)
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("reference selgen run: %v: %s", err, stderr.String())
	}
	return checkGolden(w.first, ref)
}

// spawner starts `selgen -farm` workers as farm.CommandSpawner does and
// reads each process's resource usage once it has exited.
type spawner struct {
	bin  string
	args []string

	mu      sync.Mutex
	workers []*worker
}

// worker is a farm.Handle over one worker process.
type worker struct {
	cmd  *exec.Cmd
	once sync.Once
	done chan error
	// exited is closed once Wait has returned and cmd.ProcessState is set.
	exited chan struct{}
}

func (w *worker) Kill() { w.once.Do(func() { w.cmd.Process.Kill() }) }

func (w *worker) Done() <-chan error { return w.done }

func (s *spawner) spawn(id int, coordURL, shard string) (farm.Handle, error) {
	args := append(append([]string{}, s.args...),
		"-farm", coordURL, "-farm-id", strconv.Itoa(id), "-journal", shard)
	cmd := exec.Command(s.bin, args...)
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w := &worker{cmd: cmd, done: make(chan error, 1), exited: make(chan struct{})}
	go func() {
		err := cmd.Wait()
		close(w.exited)
		w.done <- err
	}()
	s.mu.Lock()
	s.workers = append(s.workers, w)
	s.mu.Unlock()
	return w, nil
}

// wait stops every worker still running, waits for all of them to exit,
// and returns their summed CPU time and summed peak RSS.
func (s *spawner) wait() (cpu time.Duration, rssMB float64) {
	s.mu.Lock()
	workers := s.workers
	s.mu.Unlock()
	for _, w := range workers {
		w.Kill()
		<-w.exited
		st := w.cmd.ProcessState
		cpu += st.UserTime() + st.SystemTime()
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			rssMB += float64(ru.Maxrss) / 1024
		}
	}
	return cpu, rssMB
}
