package farm

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selgen/internal/driver"
	"selgen/internal/failpoint"
	"selgen/internal/journal"
	"selgen/internal/obs"
	"selgen/internal/pattern"
	"selgen/internal/riscv"
	"selgen/internal/sem"
	"selgen/internal/x86"
)

// farmSetup is the quickstart run every farm test distributes. The
// options must match between coordinator and workers bit-for-bit
// (ConfigHash covers them), so both sides call this one function.
func farmSetup() ([]driver.Group, driver.Options, journal.Header) {
	groups := driver.QuickSetup()
	opts := driver.Options{Width: 8, Seed: 1, MaxPatternsPerGoal: 16,
		PerGoalTimeout: 90 * time.Second}
	hdr := journal.Header{
		Version: journal.Version, Setup: "quick", Width: opts.Width,
		ConfigHash: driver.ConfigHash(groups, opts),
	}
	return groups, opts, hdr
}

// saveBytes is the byte-identity yardstick: the farm's guarantee is
// about the serialized library, so tests compare at that level.
func saveBytes(t *testing.T, lib *pattern.Library) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := lib.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}

// goroutineHandle adapts an in-process worker goroutine to Handle.
type goroutineHandle struct {
	kill chan struct{}
	once sync.Once
	done chan error
}

func (h *goroutineHandle) Kill()              { h.once.Do(func() { close(h.kill) }) }
func (h *goroutineHandle) Done() <-chan error { return h.done }

// inprocSpawner runs RunWorker in a goroutine of the test process —
// fast and race-detectable; the chaos tests use real subprocesses for
// actual SIGKILL coverage.
func inprocSpawner(groups []driver.Group, opts driver.Options, hdr journal.Header) SpawnFunc {
	return func(id int, coordURL, shard string) (Handle, error) {
		h := &goroutineHandle{kill: make(chan struct{}), done: make(chan error, 1)}
		go func() {
			h.done <- RunWorker(WorkerConfig{
				ID: id, Coord: coordURL, Groups: groups, Opts: opts,
				Header: hdr, Shard: shard, Stop: h.kill,
			})
		}()
		return h, nil
	}
}

func mustFaults(t *testing.T, spec string) *failpoint.Registry {
	t.Helper()
	reg, err := failpoint.Parse(spec, 1)
	if err != nil {
		t.Fatalf("failpoint.Parse(%q): %v", spec, err)
	}
	return reg
}

// TestFarmMatchesSingleProcess is the farm's headline guarantee: two
// workers sharding the quickstart produce a library byte-identical to
// one driver.Run.
func TestFarmMatchesSingleProcess(t *testing.T) {
	groups, opts, hdr := farmSetup()
	baseLib, _, err := driver.Run(groups, opts)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	want := saveBytes(t, baseLib)

	tr := obs.New()
	lib, rep, err := Run(Config{
		Groups: groups, Opts: opts, Header: hdr,
		Dir: t.TempDir(), Workers: 2,
		Spawn: inprocSpawner(groups, opts, hdr),
		Obs:   tr,
	})
	if err != nil {
		t.Fatalf("farm run: %v", err)
	}
	if got := saveBytes(t, lib); !bytes.Equal(got, want) {
		t.Fatalf("farmed library differs from single-process run: %d vs %d rules",
			len(lib.Rules), len(baseLib.Rules))
	}
	if rep.Goals != rep.Synthesized || rep.Granted < rep.Goals {
		t.Fatalf("report: %d goals, %d synthesized, %d granted", rep.Goals, rep.Synthesized, rep.Granted)
	}
	if rep.Reclaimed != 0 || rep.Respawns != 0 || len(rep.Quarantined) != 0 {
		t.Fatalf("clean run reports faults: reclaimed=%d respawns=%d quarantined=%v",
			rep.Reclaimed, rep.Respawns, rep.Quarantined)
	}
	if rep.GoalsPerSec <= 0 {
		t.Fatalf("goals/sec not computed: %v", rep.GoalsPerSec)
	}
	if rep.Driver == nil || rep.Driver.Total.Goals != rep.Goals {
		t.Fatalf("driver report missing or inconsistent: %+v", rep.Driver)
	}
}

// TestFarmDerivedGoalsGetNoLease: over a setup with complementary
// branch pairs, the coordinator leases only the searched goals, and the
// merge derives the others to driver.Run's bytes.
func TestFarmDerivedGoalsGetNoLease(t *testing.T) {
	groups := []driver.Group{{Name: "Branches", MaxLen: 2, Goals: []*sem.Instr{
		riscv.Branch(riscv.RelEq), riscv.Branch(riscv.RelLt),
		riscv.Branch(riscv.RelNe), riscv.Branch(riscv.RelGe),
	}}}
	_, opts, _ := farmSetup()
	hdr := journal.Header{
		Version: journal.Version, Setup: "branches", Width: opts.Width,
		ConfigHash: driver.ConfigHash(groups, opts),
	}
	baseLib, _, err := driver.Run(groups, opts)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	dir := t.TempDir()
	lib, rep, err := Run(Config{
		Groups: groups, Opts: opts, Header: hdr,
		Dir: dir, Workers: 2,
		Spawn: inprocSpawner(groups, opts, hdr),
	})
	if err != nil {
		t.Fatalf("farm run: %v", err)
	}
	if !bytes.Equal(saveBytes(t, lib), saveBytes(t, baseLib)) {
		t.Fatalf("farmed library differs from the single-process run")
	}
	if rep.Goals != 2 || rep.Granted != 2 || rep.Derived != 2 || rep.Driver.Total.Goals != 4 {
		t.Fatalf("report: %d goals leased, %d grants, %d derived, %d merged; want 2, 2, 2, 4",
			rep.Goals, rep.Granted, rep.Derived, rep.Driver.Total.Goals)
	}
	coord, err := journal.Read(CoordJournalPath(dir), hdr)
	if err != nil {
		t.Fatal(err)
	}
	for key := range coord.Attempts {
		if key != "Branches/0/beq" && key != "Branches/1/blt" {
			t.Fatalf("coordinator journal holds a lease for %s", key)
		}
	}
}

// TestLeaseDropReclaimReassign drives the re-poll path
// deterministically: the farm.lease.grant failpoint drops the first
// grant response, so the worker asks for a goal again while the grant
// still names it; that poll must reclaim the goal and it must be
// reassigned — and the library must still come out byte-identical.
func TestLeaseDropReclaimReassign(t *testing.T) {
	groups, opts, hdr := farmSetup()
	baseLib, _, err := driver.Run(groups, opts)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	tr := obs.New()
	lib, rep, err := Run(Config{
		Groups: groups, Opts: opts, Header: hdr,
		Dir: t.TempDir(), Workers: 2,
		Spawn:  inprocSpawner(groups, opts, hdr),
		Faults: mustFaults(t, "farm.lease.grant=hit:1"),
		Obs:    tr,
	})
	if err != nil {
		t.Fatalf("farm run: %v", err)
	}
	if rep.Reclaimed < 1 {
		t.Fatalf("dropped grant was never reclaimed (reclaimed=%d)", rep.Reclaimed)
	}
	if got := tr.Metrics().CounterValue("farm.lease.reclaimed"); got < 1 {
		t.Fatalf("farm.lease.reclaimed = %d, want ≥ 1", got)
	}
	if !bytes.Equal(saveBytes(t, lib), saveBytes(t, baseLib)) {
		t.Fatalf("library differs after a reclaimed lease")
	}
}

// TestQuarantineAfterAttemptCap: a worker that leases goals and never
// completes them gives each one up at its next poll, so every goal
// loses a lease per round; every goal must end up quarantined — with a
// synthetic journal record — rather than wedging the run forever.
func TestQuarantineAfterAttemptCap(t *testing.T) {
	groups, opts, hdr := farmSetup()
	// A black hole: registers, leases, never completes, never dies.
	blackhole := func(id int, coordURL, shard string) (Handle, error) {
		h := &goroutineHandle{kill: make(chan struct{}), done: make(chan error, 1)}
		go func() {
			cl := newClient(coordURL)
			cl.post("/register", registerRequest{Worker: id, Header: hdr}, nil)
			for {
				select {
				case <-h.kill:
					h.done <- nil
					return
				case <-time.After(20 * time.Millisecond):
				}
				var resp leaseResponse
				if cl.post("/lease", leaseRequest{Worker: id}, &resp) != nil || resp.Done {
					h.done <- nil
					return
				}
			}
		}()
		return h, nil
	}

	tr := obs.New()
	lib, rep, err := Run(Config{
		Groups: groups, Opts: opts, Header: hdr,
		Dir: t.TempDir(), Workers: 1,
		Spawn: blackhole,
		Obs:   tr,
	})
	if err != nil {
		t.Fatalf("farm run: %v", err)
	}
	total := 0
	for _, g := range groups {
		total += len(g.Goals)
	}
	if len(rep.Quarantined) != total {
		t.Fatalf("quarantined %d goals, want all %d: %v", len(rep.Quarantined), total, rep.Quarantined)
	}
	if len(lib.Rules) != 0 {
		t.Fatalf("quarantined-everything run produced %d rules", len(lib.Rules))
	}
	if got := tr.Metrics().CounterValue("farm.goal.quarantined"); got != int64(total) {
		t.Fatalf("farm.goal.quarantined = %d, want %d", got, total)
	}
	if rep.Driver.Total.Quarantined != total {
		t.Fatalf("driver report quarantined = %d, want %d", rep.Driver.Total.Quarantined, total)
	}
}

// TestWorkerCrashRespawnsAndRecovers: a worker whose goroutine dies with
// an error is respawned against the budget, its leases reclaimed
// immediately, and the respawned worker replays its shard.
func TestWorkerCrashRespawnsAndRecovers(t *testing.T) {
	groups, opts, hdr := farmSetup()
	baseLib, _, err := driver.Run(groups, opts)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	// First spawn of worker 0 dies right after taking (and completing)
	// one goal; the respawn runs the normal loop. The coordinator
	// respawns a dead worker only while goals remain, so worker 1 holds
	// off until worker 0 has been respawned: otherwise it could drain
	// the plan before worker 0's first incarnation dies, or even
	// leases. Worker 1 waits in its own goroutine, because Spawn runs
	// under the coordinator's lock.
	var mu sync.Mutex
	spawns := make(map[int]int)
	zeroBack := make(chan struct{})
	inner := inprocSpawner(groups, opts, hdr)
	spawn := func(id int, coordURL, shard string) (Handle, error) {
		mu.Lock()
		n := spawns[id]
		spawns[id]++
		mu.Unlock()
		if id == 0 && n == 1 {
			close(zeroBack)
		}
		if id == 1 && n == 0 {
			h := &goroutineHandle{kill: make(chan struct{}), done: make(chan error, 1)}
			go func() {
				select {
				case <-zeroBack:
				case <-h.kill:
					h.done <- nil
					return
				}
				h.done <- RunWorker(WorkerConfig{
					ID: id, Coord: coordURL, Groups: groups, Opts: opts,
					Header: hdr, Shard: shard, Stop: h.kill,
				})
			}()
			return h, nil
		}
		if id == 0 && n == 0 {
			h := &goroutineHandle{kill: make(chan struct{}), done: make(chan error, 1)}
			go func() {
				cl := newClient(coordURL)
				if err := cl.post("/register", registerRequest{Worker: id, Header: hdr}, nil); err != nil {
					h.done <- err
					return
				}
				// Take one lease, complete it durably, then "crash".
				jw, err := journal.Create(shard, hdr)
				if err != nil {
					h.done <- err
					return
				}
				wopts := opts
				wopts.Journal = jw
				runner, err := driver.NewGoalRunner(groups, wopts)
				if err != nil {
					h.done <- err
					return
				}
				for {
					var resp leaseResponse
					if err := cl.post("/lease", leaseRequest{Worker: id}, &resp); err != nil || resp.Done {
						h.done <- err
						return
					}
					if resp.Key == nil {
						time.Sleep(10 * time.Millisecond)
						continue
					}
					rec, err := runner.Run(driver.GoalKey{Group: resp.Key.Group, Index: resp.Key.Index, Goal: resp.Key.Goal})
					if err != nil {
						h.done <- err
						return
					}
					cl.post("/complete", completeRequest{Worker: id, Record: rec}, nil)
					jw.Close()
					h.done <- errors.New("injected worker crash")
					return
				}
			}()
			return h, nil
		}
		return inner(id, coordURL, shard)
	}

	lib, rep, err := Run(Config{
		Groups: groups, Opts: opts, Header: hdr,
		Dir: t.TempDir(), Workers: 2,
		Spawn: spawn,
	})
	if err != nil {
		t.Fatalf("farm run: %v", err)
	}
	if rep.Respawns < 1 {
		t.Fatalf("crashed worker was not respawned (respawns=%d)", rep.Respawns)
	}
	mu.Lock()
	respawned := spawns[0] >= 2
	mu.Unlock()
	if !respawned {
		t.Fatalf("worker 0 was not respawned: spawns=%v", spawns)
	}
	if !bytes.Equal(saveBytes(t, lib), saveBytes(t, baseLib)) {
		t.Fatalf("library differs after a worker crash")
	}
}

// TestSpawnFailpointConsumesBudget: farm.worker.spawn failures are
// healed by the respawn budget; the run completes and counts them.
func TestSpawnFailpointConsumesBudget(t *testing.T) {
	groups, opts, hdr := farmSetup()
	lib, rep, err := Run(Config{
		Groups: groups, Opts: opts, Header: hdr,
		Dir: t.TempDir(), Workers: 2,
		Spawn:  inprocSpawner(groups, opts, hdr),
		Faults: mustFaults(t, "farm.worker.spawn=hit:1"),
	})
	if err != nil {
		t.Fatalf("farm run: %v", err)
	}
	if rep.Respawns < 1 {
		t.Fatalf("injected spawn failure not charged to the budget (respawns=%d)", rep.Respawns)
	}
	if len(lib.Rules) == 0 {
		t.Fatalf("run produced no rules")
	}
}

// wedgeFirst wraps inner so that worker 0's first incarnation wedges:
// it registers with the given telemetry URL, takes one lease, then
// hangs until it is killed, which closes the returned channel. Every
// other spawn is inner's.
func wedgeFirst(inner SpawnFunc, hdr journal.Header, telemetry string) (SpawnFunc, <-chan struct{}) {
	killed := make(chan struct{})
	var spawned atomic.Bool
	return func(id int, coordURL, shard string) (Handle, error) {
		if id != 0 || spawned.Swap(true) {
			return inner(id, coordURL, shard)
		}
		h := &goroutineHandle{kill: make(chan struct{}), done: make(chan error, 1)}
		go func() {
			cl := newClient(coordURL)
			cl.post("/register", registerRequest{Worker: id, Header: hdr, Telemetry: telemetry}, nil)
			for {
				var resp leaseResponse
				if err := cl.post("/lease", leaseRequest{Worker: id}, &resp); err != nil || resp.Done {
					h.done <- err
					return
				}
				if resp.Key != nil {
					break // got a lease; now wedge
				}
				time.Sleep(10 * time.Millisecond)
			}
			<-h.kill
			close(killed)
			h.done <- errors.New("killed while wedged")
		}()
		return h, nil
	}, killed
}

// TestHeartbeatKillsUnresponsiveWorker: a worker whose telemetry stops
// answering while it holds a lease is killed by the heartbeat and its
// lease reassigned; the run still completes byte-identically.
func TestHeartbeatKillsUnresponsiveWorker(t *testing.T) {
	groups, opts, hdr := farmSetup()
	baseLib, _, err := driver.Run(groups, opts)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	// Unresponsive telemetry: every scrape fails.
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer down.Close()
	spawn, killed := wedgeFirst(inprocSpawner(groups, opts, hdr), hdr, down.URL)

	lib, rep, err := Run(Config{
		Groups: groups, Opts: opts, Header: hdr,
		Dir: t.TempDir(), Workers: 2,
		Heartbeat: 50 * time.Millisecond,
		Spawn:     spawn,
	})
	if err != nil {
		t.Fatalf("farm run: %v", err)
	}
	select {
	case <-killed:
	default:
		t.Fatalf("wedged worker was never killed (kills=%d)", rep.Kills)
	}
	if rep.Kills < 1 {
		t.Fatalf("heartbeat kills not reported (kills=%d)", rep.Kills)
	}
	if rep.Reclaimed < 1 {
		t.Fatalf("wedged worker's lease was not reclaimed")
	}
	if !bytes.Equal(saveBytes(t, lib), saveBytes(t, baseLib)) {
		t.Fatalf("library differs after a heartbeat kill")
	}
}

// TestDeadlineKillsWedgedLessee: a worker that takes a goal and then
// blocks, its telemetry still answering, keeps the lease until the
// deadline derived from the retry ladder passes. Then it is killed, its
// exit reclaims the goal, the goal is granted again, and the merge
// writes driver.Run's bytes.
func TestDeadlineKillsWedgedLessee(t *testing.T) {
	// Two goals that take milliseconds, far inside a 500 ms rung 0 even
	// under the race detector. The ladder is 500 ms then 1 s, so the
	// lease deadline is 3 s.
	groups := []driver.Group{{Name: "Quick", MaxLen: 2, AllSizes: true, Goals: []*sem.Instr{
		x86.BinMemSrc(x86.AddInstr(), x86.AM{Base: true}), x86.CmpJcc(x86.CCB),
	}}}
	opts := driver.Options{Width: 8, Seed: 1, MaxPatternsPerGoal: 16,
		PerGoalTimeout: 500 * time.Millisecond, MaxRetries: 1}
	hdr := journal.Header{
		Version: journal.Version, Setup: "quick", Width: opts.Width,
		ConfigHash: driver.ConfigHash(groups, opts),
	}
	baseLib, _, err := driver.Run(groups, opts)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	// Answering telemetry: every scrape succeeds.
	up := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	defer up.Close()
	spawn, killed := wedgeFirst(inprocSpawner(groups, opts, hdr), hdr, up.URL)

	// A farm that never kills the lessee would wait forever; stop it.
	stop := make(chan struct{})
	defer time.AfterFunc(time.Minute, func() { close(stop) }).Stop()
	tr := obs.New()
	dir := t.TempDir()
	start := time.Now()
	lib, rep, err := Run(Config{
		Groups: groups, Opts: opts, Header: hdr,
		Dir: dir, Workers: 1,
		Heartbeat: 50 * time.Millisecond,
		Spawn:     spawn,
		Obs:       tr, Stop: stop,
	})
	if err != nil {
		t.Fatalf("farm run: %v", err)
	}
	select {
	case <-killed:
	default:
		t.Fatalf("wedged lessee was never killed (kills=%d)", rep.Kills)
	}
	if took, term := time.Since(start), leaseDeadline(opts); took < term {
		t.Fatalf("run took %s: the lessee was killed before its %s deadline", took, term)
	}
	if rep.Kills != 1 || rep.Reclaimed != 1 || rep.Respawns != 1 || rep.Granted != 3 || len(rep.Quarantined) != 0 {
		t.Fatalf("report: %d kill(s), %d reclaimed, %d respawn(s), %d grant(s), quarantined %v; want 1, 1, 1, 3, none",
			rep.Kills, rep.Reclaimed, rep.Respawns, rep.Granted, rep.Quarantined)
	}
	if n := tr.Metrics().CounterValue("farm.heartbeat.failed"); n != 0 {
		t.Fatalf("%d heartbeat scrape(s) of an answering worker failed", n)
	}
	coord, err := journal.Read(CoordJournalPath(dir), hdr)
	if err != nil {
		t.Fatal(err)
	}
	if first := driver.GoalKeys(groups)[0].Key(); coord.Attempts[first] != 2 {
		t.Fatalf("%s granted %d time(s), want 2", first, coord.Attempts[first])
	}
	if !bytes.Equal(saveBytes(t, lib), saveBytes(t, baseLib)) {
		t.Fatalf("library differs after a deadline kill")
	}
}

// TestLeaseDeadlineFollowsLadder pins the lease deadline: twice the
// total of the retry ladder a worker runs, and none without a per-goal
// timeout.
func TestLeaseDeadlineFollowsLadder(t *testing.T) {
	for _, tc := range []struct {
		name    string
		timeout time.Duration
		retries int
		want    time.Duration
	}{
		{"selfarm defaults", 5 * time.Minute, 0, 70 * time.Minute}, // 5 + 10 + 20 min
		{"-max-retries 3", 5 * time.Minute, 3, 110 * time.Minute},  // 5 + 10 + 20 + 20 min
		{"-timeout 0", 0, 0, 0},
	} {
		opts := driver.Options{PerGoalTimeout: tc.timeout, MaxRetries: tc.retries}
		if got := leaseDeadline(opts); got != tc.want {
			t.Errorf("%s: lease deadline %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestReclaimedGoalGrantedLast: a worker that asks for a goal gives up
// the one it holds; that goal is granted again only after every goal
// that has lost no lease, and a goal whose lessee has not asked again
// is never granted to another worker.
func TestReclaimedGoalGrantedLast(t *testing.T) {
	groups, opts, hdr := farmSetup()
	c, err := newCoordinator(Config{Groups: groups, Opts: opts, Header: hdr, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if c.jw, err = journal.Create(CoordJournalPath(t.TempDir()), hdr); err != nil {
		t.Fatal(err)
	}
	defer c.jw.Close()
	grant := func(worker int) string {
		t.Helper()
		resp, err := c.lease(worker)
		if err != nil || resp.Key == nil {
			t.Fatalf("lease(%d) = %+v, %v; want a goal", worker, resp, err)
		}
		return resp.Key.Goal
	}

	got := []string{grant(0)}
	if g := grant(1); g != "andn" {
		t.Fatalf("worker 1 was granted %s, want andn", g)
	}
	for range 4 {
		got = append(got, grant(0))
	}
	if want := []string{"inc", "add", "add.ms.b", "cmp.jb", "inc"}; !slices.Equal(got, want) {
		t.Fatalf("worker 0 was granted %v, want %v", got, want)
	}
	if c.reclaimed != 4 {
		t.Fatalf("%d lease(s) reclaimed, want 4", c.reclaimed)
	}
}

// TestStopThenResume: a graceful stop mid-run returns ErrStopped with
// every journal intact; a -resume run completes to the byte-identical
// library without redoing the finished goals.
func TestStopThenResume(t *testing.T) {
	groups, opts, hdr := farmSetup()
	baseLib, _, err := driver.Run(groups, opts)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	dir := t.TempDir()

	// Stop as soon as the first completion lands (polled via metrics).
	tr := obs.New()
	stop := make(chan struct{})
	go func() {
		for tr.Metrics().CounterValue("farm.goal.completed") == 0 {
			time.Sleep(5 * time.Millisecond)
		}
		close(stop)
	}()
	cfg := Config{
		Groups: groups, Opts: opts, Header: hdr,
		Dir: dir, Workers: 1,
		Spawn: inprocSpawner(groups, opts, hdr),
		Obs:   tr, Stop: stop,
	}
	_, rep1, err := Run(cfg)
	if !errors.Is(err, ErrStopped) {
		// The tiny quickstart can occasionally finish before the stop
		// lands; that degrades this test to plain determinism.
		if err != nil {
			t.Fatalf("farm run: %v", err)
		}
		t.Logf("run finished before the stop landed; resume will replay everything")
	}

	cfg2 := cfg
	cfg2.Obs = obs.New()
	cfg2.Stop = nil
	cfg2.Resume = true
	lib, rep2, err := Run(cfg2)
	if err != nil {
		t.Fatalf("resumed farm run: %v", err)
	}
	if rep2.Replayed < rep1.Synthesized {
		t.Fatalf("resume replayed %d goals; the stopped run completed %d", rep2.Replayed, rep1.Synthesized)
	}
	if !bytes.Equal(saveBytes(t, lib), saveBytes(t, baseLib)) {
		t.Fatalf("stop+resume library differs from single-process run")
	}
}

// TestResumeTakesDoneFromShards: a resumed farm takes a goal as done
// when a shard holds its record. The coordinator journal of a farm
// stopped before any lease holds no grant, while shard 0 holds every
// goal's record; the resume must grant nothing, replay every goal, and
// merge the single-process library.
func TestResumeTakesDoneFromShards(t *testing.T) {
	groups, opts, hdr := farmSetup()
	baseLib, _, err := driver.Run(groups, opts)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	dir := t.TempDir()

	// Workers that never lease, and a stop that is already requested.
	idle := func(id int, coordURL, shard string) (Handle, error) {
		h := &goroutineHandle{kill: make(chan struct{}), done: make(chan error, 1)}
		go func() { <-h.kill; h.done <- nil }()
		return h, nil
	}
	stop := make(chan struct{})
	close(stop)
	cfg := Config{
		Groups: groups, Opts: opts, Header: hdr,
		Dir: dir, Workers: 2,
		Spawn: idle, Stop: stop,
	}
	if _, rep, err := Run(cfg); !errors.Is(err, ErrStopped) || rep.Granted != 0 {
		t.Fatalf("stopped farm: err %v, %d lease(s) granted; want ErrStopped and none", err, rep.Granted)
	}

	jw, err := journal.Create(ShardPath(dir, 0), hdr)
	if err != nil {
		t.Fatal(err)
	}
	wopts := opts
	wopts.Journal = jw
	runner, err := driver.NewGoalRunner(groups, wopts)
	if err != nil {
		t.Fatal(err)
	}
	keys := driver.GoalKeys(groups)
	for _, k := range keys {
		if _, err := runner.Run(k); err != nil {
			t.Fatal(err)
		}
	}
	jw.Close()

	cfg.Stop = nil
	cfg.Resume = true
	cfg.Spawn = inprocSpawner(groups, opts, hdr)
	lib, rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("resumed farm run: %v", err)
	}
	if rep.Granted != 0 || rep.Replayed != len(keys) {
		t.Fatalf("resume granted %d lease(s) and replayed %d goal(s); want 0 and %d", rep.Granted, rep.Replayed, len(keys))
	}
	if !bytes.Equal(saveBytes(t, lib), saveBytes(t, baseLib)) {
		t.Fatalf("resumed library differs from the single-process run")
	}
}

// TestResumeWaitsForShardWriter: a worker of a killed coordinator may
// still be finishing a goal when the resume starts. Here a stand-in
// writer holds shard 0, appends the first goal's record a little later,
// and closes the shard. The resume must wait for it, take that goal as
// done without leasing it, merge no duplicate, and write the
// single-process library.
func TestResumeWaitsForShardWriter(t *testing.T) {
	groups, opts, hdr := farmSetup()
	baseLib, _, err := driver.Run(groups, opts)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	dir := t.TempDir()
	cj, err := journal.Create(CoordJournalPath(dir), hdr)
	if err != nil {
		t.Fatal(err)
	}
	cj.Close()

	jw, err := journal.Create(ShardPath(dir, 0), hdr)
	if err != nil {
		t.Fatal(err)
	}
	wopts := opts
	wopts.Journal = jw
	runner, err := driver.NewGoalRunner(groups, wopts)
	if err != nil {
		t.Fatal(err)
	}
	late := driver.GoalKeys(groups)[0]
	werr := make(chan error, 1)
	go func() {
		time.Sleep(200 * time.Millisecond)
		_, err := runner.Run(late)
		if cerr := jw.Close(); err == nil {
			err = cerr
		}
		werr <- err
	}()

	lib, rep, err := Run(Config{
		Groups: groups, Opts: opts, Header: hdr,
		Dir: dir, Workers: 1, Resume: true,
		Spawn: inprocSpawner(groups, opts, hdr),
	})
	if err := <-werr; err != nil {
		t.Fatalf("stand-in shard writer: %v", err)
	}
	if err != nil {
		t.Fatalf("resumed farm run: %v", err)
	}
	if rep.Replayed != 1 || rep.Duplicates != 0 {
		t.Fatalf("resume replayed %d goal(s) with %d shard duplicate(s); want 1 and 0", rep.Replayed, rep.Duplicates)
	}
	coord, err := journal.Read(CoordJournalPath(dir), hdr)
	if err != nil {
		t.Fatal(err)
	}
	if n := coord.Attempts[late.Key()]; n != 0 {
		t.Fatalf("the resume leased %s (attempt %d) while its shard writer was finishing it", late.Key(), n)
	}
	if !bytes.Equal(saveBytes(t, lib), saveBytes(t, baseLib)) {
		t.Fatalf("resumed library differs from the single-process run")
	}
}

// TestRunWaitsForKilledWorkers: Run must not return while a killed
// worker is still writing. An in-process worker stopped mid-goal
// finishes the goal and appends it to its shard; this worker delays
// that append until well after Kill. Were Run to return first, a
// Resume run's new worker could open the shard while the late append
// lands, and the two writers would interleave their records.
func TestRunWaitsForKilledWorkers(t *testing.T) {
	groups, opts, hdr := farmSetup()
	baseLib, _, err := driver.Run(groups, opts)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	var lateAppends atomic.Int32
	spawn := func(id int, coordURL, shard string) (Handle, error) {
		h := &goroutineHandle{kill: make(chan struct{}), done: make(chan error, 1)}
		go func() {
			err := RunWorker(WorkerConfig{
				ID: id, Coord: coordURL, Groups: groups, Opts: opts,
				Header: hdr, Shard: shard, Stop: h.kill,
			})
			<-h.kill
			time.Sleep(100 * time.Millisecond)
			if aerr := appendNextRecord(shard, groups, opts, hdr); err == nil {
				err = aerr
			}
			lateAppends.Add(1)
			h.done <- err
		}()
		return h, nil
	}

	tr := obs.New()
	stop := make(chan struct{})
	go func() {
		for tr.Metrics().CounterValue("farm.goal.completed") == 0 {
			time.Sleep(5 * time.Millisecond)
		}
		close(stop)
	}()
	cfg := Config{
		Groups: groups, Opts: opts, Header: hdr,
		Dir: t.TempDir(), Workers: 1,
		Spawn: spawn,
		Obs:   tr, Stop: stop,
	}
	if _, _, err := Run(cfg); err != nil && !errors.Is(err, ErrStopped) {
		t.Fatalf("farm run: %v", err)
	}
	if n := lateAppends.Load(); n != 1 {
		t.Fatalf("Run returned before the killed worker's late shard append (%d appends done)", n)
	}

	cfg.Obs = obs.New()
	cfg.Stop = nil
	cfg.Resume = true
	cfg.Spawn = inprocSpawner(groups, opts, hdr)
	lib, _, err := Run(cfg)
	if err != nil {
		t.Fatalf("resumed farm run: %v", err)
	}
	if !bytes.Equal(saveBytes(t, lib), saveBytes(t, baseLib)) {
		t.Fatalf("resumed library differs from single-process run")
	}
}

// appendNextRecord synthesizes the first searched goal the shard does
// not hold yet and appends its record: the late write of a worker that
// finished its goal after being killed.
func appendNextRecord(shard string, groups []driver.Group, opts driver.Options, hdr journal.Header) error {
	jw, rec, err := journal.Resume(shard, hdr)
	if err != nil {
		return err
	}
	defer jw.Close()
	plan, err := driver.NewPlan(groups, opts)
	if err != nil {
		return err
	}
	opts.Journal = jw
	runner, err := driver.NewGoalRunner(groups, opts)
	if err != nil {
		return err
	}
	held := rec.Index()
	for _, k := range plan.Searched() {
		if _, ok := held[k.Key()]; !ok {
			_, err := runner.Run(k)
			return err
		}
	}
	return nil
}

// TestRegisterRefusesMismatchedHeader: the coordinator applies the
// journal's cross-ISA/configuration refusal to worker registrations.
func TestRegisterRefusesMismatchedHeader(t *testing.T) {
	_, _, hdr := farmSetup()
	c := &coordinator{cfg: Config{Header: hdr}, tr: obs.New(),
		workers: make(map[int]*workerState), byKey: make(map[string]*goalEntry)}

	bad := hdr
	bad.Target = "riscv"
	if err := c.register(0, bad, ""); err == nil {
		t.Fatalf("register accepted a cross-ISA worker")
	}
	bad = hdr
	bad.ConfigHash = "deadbeef"
	if err := c.register(0, bad, ""); err == nil {
		t.Fatalf("register accepted a mismatched config hash")
	}
	if err := c.register(0, hdr, ""); err != nil {
		t.Fatalf("register refused a matching worker: %v", err)
	}
}

// TestWorkerShardPathsStable: ShardPath and CoordJournalPath are the
// contract between coordinator, resume, and cmd/selfarm.
func TestWorkerShardPathsStable(t *testing.T) {
	if got := ShardPath("/d", 3); got != filepath.Join("/d", "worker-3.journal") {
		t.Fatalf("ShardPath = %q", got)
	}
	if got := CoordJournalPath("/d"); got != filepath.Join("/d", "coordinator.journal") {
		t.Fatalf("CoordJournalPath = %q", got)
	}
}
