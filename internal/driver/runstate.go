// RunState is the driver's live-status publisher: one entry per goal
// of the run, updated as goals move through the retry ladder
// (pending → running → ok/retried/degraded/quarantined, or replayed
// straight from a resume journal), and snapshotted concurrently by
// the telemetry server's /goals endpoint. A nil *RunState is a valid
// no-op publisher, so the driver's hot path pays one nil check when
// no status server is attached — the same zero-cost discipline as a
// nil obs.Tracer.

package driver

import (
	"sync"
	"time"

	"selgen/internal/cegis"
	"selgen/internal/journal"
)

// GoalRun is one goal's live state as served by /goals. Elapsed time
// is computed at snapshot time for running goals, so a stuck goal is
// visible as a growing elapsed_ms while its counterexample count
// stalls.
type GoalRun struct {
	Group  string `json:"group"`
	Goal   string `json:"goal"`
	Status string `json:"status"` // pending, running, ok, retried, degraded, quarantined, replayed
	// Rung is the retry-ladder rung of the current (or final) attempt,
	// 0-based; Attempts counts attempts started so far.
	Rung     int `json:"rung"`
	Attempts int `json:"attempts"`
	Patterns int `json:"patterns"`
	// Counterexamples and Multisets stream live from the engine while
	// the goal runs (cegis.LiveStats).
	Counterexamples int64  `json:"counterexamples"`
	Multisets       int64  `json:"multisets"`
	ElapsedMS       int64  `json:"elapsed_ms"`
	Error           string `json:"error,omitempty"`
	Replayed        bool   `json:"replayed,omitempty"`
}

// RunSnapshot is the /goals JSON document.
type RunSnapshot struct {
	ElapsedMS int64 `json:"elapsed_ms"`
	// Counts aggregates Goals by status.
	Counts map[string]int `json:"counts"`
	Goals  []GoalRun      `json:"goals"`
}

// goalState is one goal's mutable entry; RunState.mu guards it.
type goalState struct {
	group, goal string
	status      string
	rung        int
	attempts    int
	patterns    int
	// cex and multisets freeze the final attempt's live counters at
	// finish time, so terminal rows keep their effort numbers after
	// the engine is gone.
	cex       int64
	multisets int64
	errText   string
	replayed  bool
	started   time.Time
	elapsed   time.Duration // fixed at finish; zero while running
	live      *cegis.LiveStats
}

// RunState publishes per-goal run state. Create with NewRunState and
// pass via Options.State; every method is safe for concurrent use and
// nil-safe.
type RunState struct {
	mu      sync.Mutex
	started time.Time
	order   []*goalState
	index   map[string]*goalState
}

// NewRunState returns an empty publisher.
func NewRunState() *RunState {
	return &RunState{index: make(map[string]*goalState)}
}

// register adds a goal in pending state. Registering a key that
// already exists resets its entry: Run registers every goal up front
// and GoalRunner again as the goal starts, and a goal synthesized again
// in one process reuses its row.
func (s *RunState) register(group string, gi int, goal string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started.IsZero() {
		s.started = time.Now()
	}
	key := journal.Key(group, gi, goal)
	if g, ok := s.index[key]; ok {
		*g = goalState{group: group, goal: goal, status: "pending"}
		return
	}
	g := &goalState{group: group, goal: goal, status: "pending"}
	s.index[key] = g
	s.order = append(s.order, g)
}

// startAttempt marks the goal running on the given ladder rung and
// attaches the attempt's live engine counters.
func (s *RunState) startAttempt(key string, rung int, live *cegis.LiveStats) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.index[key]
	if !ok {
		return
	}
	g.status = "running"
	g.rung = rung
	g.attempts = rung + 1
	g.live = live
	if rung == 0 {
		g.started = time.Now()
	}
}

// finish records the goal's terminal outcome.
func (s *RunState) finish(key string, out goalOut) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.index[key]
	if !ok {
		return
	}
	if out.replayed {
		g.status = "replayed"
	} else {
		g.status = out.status.String()
	}
	g.replayed = out.replayed
	g.attempts = out.attempts
	if out.attempts > 0 {
		g.rung = out.attempts - 1
	}
	if out.res != nil {
		g.patterns = len(out.res.Patterns)
		g.elapsed = out.res.Elapsed
	}
	if g.elapsed == 0 && !g.started.IsZero() {
		g.elapsed = time.Since(g.started)
	}
	if out.err != nil {
		g.errText = firstLine(out.err.Error())
	}
	if g.live != nil {
		g.cex = g.live.Counterexamples.Load()
		g.multisets = g.live.MultisetsTried.Load()
		g.live = nil
	}
}

// Snapshot captures the whole run's state for serving. Goals appear
// in registration (run) order.
func (s *RunState) Snapshot() RunSnapshot {
	snap := RunSnapshot{Counts: make(map[string]int)}
	if s == nil {
		return snap
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started.IsZero() {
		snap.ElapsedMS = time.Since(s.started).Milliseconds()
	}
	snap.Goals = make([]GoalRun, 0, len(s.order))
	for _, g := range s.order {
		gr := GoalRun{
			Group: g.group, Goal: g.goal, Status: g.status,
			Rung: g.rung, Attempts: g.attempts, Patterns: g.patterns,
			Counterexamples: g.cex, Multisets: g.multisets,
			Error: g.errText, Replayed: g.replayed,
		}
		switch {
		case g.elapsed != 0:
			gr.ElapsedMS = g.elapsed.Milliseconds()
		case g.status == "running" && !g.started.IsZero():
			gr.ElapsedMS = time.Since(g.started).Milliseconds()
		}
		if g.live != nil {
			gr.Counterexamples = g.live.Counterexamples.Load()
			gr.Multisets = g.live.MultisetsTried.Load()
			gr.Patterns = int(g.live.Patterns.Load())
		}
		snap.Counts[gr.Status]++
		snap.Goals = append(snap.Goals, gr)
	}
	return snap
}
