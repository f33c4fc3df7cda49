// Package failpoint is a deterministic fault-injection registry for
// robustness testing of the synthesis pipeline: named failpoints are
// threaded through sat → smt → cegis → driver → journal, armed from a
// command-line spec (selgen -faults), and evaluated on a reproducible
// schedule, so every crash, timeout, and torn write a test provokes can
// be provoked again bit-for-bit.
//
// Like internal/obs, the registry is nil-safe: a nil *Registry answers
// false from every Active call, so instrumentation sites need no
// conditionals and cost one nil check when fault injection is off
// (the production configuration).
//
// Determinism: counted modes (once, hit:N, after:N) depend only on the
// per-name hit sequence, which is deterministic for sequential runs and
// per-goal-deterministic under the driver's goal parallelism (each goal
// owns its engine and solvers, so a goal's failpoint hits interleave
// only at the registry counter). The probabilistic mode (prob:P) hashes
// (seed, name, hit index), not a global RNG, so a given hit fires
// identically across runs and thread schedules.
package failpoint

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The registered failpoint names. Arming an unknown name is an error,
// so a typo in a -faults spec fails fast instead of silently injecting
// nothing.
const (
	// SatSpuriousTimeout makes sat.Solver.Solve report budget
	// exhaustion immediately, as if the query were too hard.
	SatSpuriousTimeout = "sat.spurious.timeout"
	// SmtBlastDeadline makes smt.Solver.Check report ErrBudget before
	// searching, modelling a deadline that expired during blasting.
	SmtBlastDeadline = "smt.blast.deadline"
	// SmtCheckPanic panics inside smt.Solver.Check (converted to an
	// ErrInternal-wrapped error at the package boundary).
	SmtCheckPanic = "smt.check.panic"
	// CegisVerifyDie panics in cegis verification right after a
	// counterexample is found (the "verify returns a counterexample,
	// then dies" failure mode).
	CegisVerifyDie = "cegis.verify.die"
	// CegisGoalDeadline makes a cegis goal synthesis report an expired
	// deadline without doing any work (drives the driver's retry
	// ladder deterministically).
	CegisGoalDeadline = "cegis.goal.deadline"
	// DriverGoalPanic panics at the top of a driver goal attempt
	// (quarantined by the driver; the rest of the run proceeds).
	DriverGoalPanic = "driver.goal.panic"
	// JournalTornWrite writes only a prefix of a journal record and
	// reports an error, simulating a crash mid-append.
	JournalTornWrite = "journal.torn.write"
	// JournalKill SIGKILLs the process right after a successful
	// journal append — a deterministic mid-run crash for testing
	// journal resume (used by the CI kill-and-resume smoke test).
	// Armed in the farm coordinator's registry, it kills the
	// coordinator after a durable lease or quarantine record.
	JournalKill = "journal.kill"
	// FarmLeaseGrant drops a coordinator lease response on the floor
	// after it is recorded: the worker never sees the grant and polls
	// again, which reclaims the lease, so it exercises the reclaim →
	// reassign path deterministically.
	FarmLeaseGrant = "farm.lease.grant"
	// FarmWorkerSpawn fails a coordinator worker spawn (counted against
	// the respawn budget, like any crashed worker).
	FarmWorkerSpawn = "farm.worker.spawn"
	// FarmMergeWrite fails the coordinator's merged-library write, so
	// the merge/-resume retry path can be driven without a full disk.
	FarmMergeWrite = "farm.merge.write"
	// FarmHeartbeatDrop makes one coordinator heartbeat scrape count as
	// failed, driving the unhealthy-worker kill-and-reclaim path
	// without an actually wedged worker.
	FarmHeartbeatDrop = "farm.heartbeat.drop"
)

// Known is the set of registered failpoint names.
var Known = map[string]bool{
	SatSpuriousTimeout: true,
	SmtBlastDeadline:   true,
	SmtCheckPanic:      true,
	CegisVerifyDie:     true,
	CegisGoalDeadline:  true,
	DriverGoalPanic:    true,
	JournalTornWrite:   true,
	JournalKill:        true,
	FarmLeaseGrant:     true,
	FarmWorkerSpawn:    true,
	FarmMergeWrite:     true,
	FarmHeartbeatDrop:  true,
}

type mode int

const (
	modeOff mode = iota
	modeAlways
	modeOnce
	modeHit   // fire on exactly the n-th hit (1-based)
	modeAfter // fire on every hit after the n-th
	modeProb  // fire on a seeded pseudo-random schedule with rate p
)

type point struct {
	mode  mode
	n     int64
	p     float64
	hits  int64
	fired int64
}

// Registry holds armed failpoints. The zero value has nothing armed;
// a nil *Registry is a valid no-op sink (every Active returns false).
type Registry struct {
	seed int64

	mu     sync.Mutex
	points map[string]*point
}

// New returns an empty registry whose probabilistic schedules derive
// from seed.
func New(seed int64) *Registry {
	return &Registry{seed: seed, points: make(map[string]*point)}
}

// Parse builds a registry from a comma-separated spec list as accepted
// by the -faults flag, e.g.
//
//	sat.spurious.timeout=once,smt.check.panic=hit:3,journal.torn.write=prob:0.1
//
// An empty spec yields a nil registry (fault injection off).
func Parse(spec string, seed int64) (*Registry, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	r := New(seed)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, pspec, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("failpoint: bad spec %q (want name=mode)", part)
		}
		if err := r.Arm(strings.TrimSpace(name), strings.TrimSpace(pspec)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Arm configures one failpoint. Specs: "off", "always", "once",
// "hit:N" (fire on exactly the N-th hit), "after:N" (fire on every hit
// past the N-th), "prob:P" (seeded schedule firing a fraction P of
// hits). Unknown names are rejected.
func (r *Registry) Arm(name, spec string) error {
	if !Known[name] {
		return fmt.Errorf("failpoint: unknown failpoint %q (known: %s)", name, strings.Join(KnownNames(), ", "))
	}
	p := &point{}
	switch {
	case spec == "off":
		p.mode = modeOff
	case spec == "always":
		p.mode = modeAlways
	case spec == "once":
		p.mode = modeOnce
	case strings.HasPrefix(spec, "hit:"):
		n, err := strconv.ParseInt(spec[len("hit:"):], 10, 64)
		if err != nil || n < 1 {
			return fmt.Errorf("failpoint: %s: bad hit count in %q", name, spec)
		}
		p.mode, p.n = modeHit, n
	case strings.HasPrefix(spec, "after:"):
		n, err := strconv.ParseInt(spec[len("after:"):], 10, 64)
		if err != nil || n < 0 {
			return fmt.Errorf("failpoint: %s: bad hit count in %q", name, spec)
		}
		p.mode, p.n = modeAfter, n
	case strings.HasPrefix(spec, "prob:"):
		f, err := strconv.ParseFloat(spec[len("prob:"):], 64)
		if err != nil || f < 0 || f > 1 {
			return fmt.Errorf("failpoint: %s: bad probability in %q", name, spec)
		}
		p.mode, p.p = modeProb, f
	default:
		return fmt.Errorf("failpoint: %s: bad mode %q (want off, always, once, hit:N, after:N, or prob:P)", name, spec)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.points == nil {
		r.points = make(map[string]*point)
	}
	r.points[name] = p
	return nil
}

// Active records a hit on the named failpoint and reports whether it
// fires this time. Safe for concurrent use; nil-safe (always false).
func (r *Registry) Active(name string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.points[name]
	if p == nil {
		return false
	}
	p.hits++
	fire := false
	switch p.mode {
	case modeAlways:
		fire = true
	case modeOnce:
		fire = p.fired == 0
	case modeHit:
		fire = p.hits == p.n
	case modeAfter:
		fire = p.hits > p.n
	case modeProb:
		fire = schedule(r.seed, name, p.hits) < p.p
	}
	if fire {
		p.fired++
	}
	return fire
}

// schedule maps (seed, name, hit index) to a uniform [0, 1) value with
// FNV-1a: no shared RNG state, so the decision for a given hit is
// independent of thread interleaving and identical across runs.
func schedule(seed int64, name string, hit int64) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", seed, name, hit)
	return float64(h.Sum64()%1_000_000_007) / 1_000_000_007
}

// Hits reports how many times the named failpoint was evaluated.
func (r *Registry) Hits(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := r.points[name]; p != nil {
		return p.hits
	}
	return 0
}

// Fired reports how many times the named failpoint fired.
func (r *Registry) Fired(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := r.points[name]; p != nil {
		return p.fired
	}
	return 0
}

// KnownNames returns the registered failpoint names, sorted.
func KnownNames() []string {
	out := make([]string, 0, len(Known))
	for n := range Known {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
