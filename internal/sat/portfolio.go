// Portfolio SAT solving: N diversified CDCL workers race on a snapshot
// of one solver's CNF, the first definite answer wins and cancels the
// rest through a shared stop flag, and short learnt clauses flow
// between workers through a lock-free exchange buffer.
//
// Diversification comes from Options{Seed, Polarity, RestartSchedule}:
// each worker gets a distinct random stream for branching tie-breaks, a
// different phase heuristic, and an alternating restart schedule, so
// the workers explore genuinely different parts of the search space
// rather than racing identical searches.
//
// Determinism contract (see DESIGN.md "Portfolio solving"): the
// SAT/UNSAT verdict is deterministic — every worker decides the same
// formula, and a Sat model is re-validated against the CNF snapshot
// before it is adopted, so a racy winner can never surface a bogus
// model. Which worker wins, and therefore which satisfying assignment
// is reported, is schedule-dependent.
package sat

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"selgen/internal/failpoint"
	"selgen/internal/obs"
)

// ErrWorkerPanic is wrapped into the error a portfolio Solve returns
// when worker goroutines crashed and no surviving worker produced an
// answer. A crash in one worker while another answers is contained:
// the verdict comes from the survivor and the crash only surfaces in
// the sat.portfolio.worker_panics counter.
var ErrWorkerPanic = errors.New("sat: portfolio worker panicked")

// MaxSharedLen is the longest learnt clause published to an Exchange:
// short clauses prune the most per literal and keep the buffer cheap.
const MaxSharedLen = 8

// Exchange is a fixed-size lock-free ring buffer of short clauses
// shared between portfolio workers. Writers claim slots with an atomic
// counter and publish immutable snapshots through atomic pointers;
// readers scan from their own cursor. Slot overwrites under wrap-around
// lose old clauses (and a reader may observe a slot's newer occupant) —
// acceptable, because every shared clause is a logical consequence of
// the common CNF, so readers can adopt any subset in any order.
type Exchange struct {
	slots []atomic.Pointer[sharedClause]
	head  atomic.Uint64
}

type sharedClause struct {
	lits []Lit
	src  int
}

// NewExchange returns an exchange with capacity rounded up to a power
// of two (minimum 64).
func NewExchange(capacity int) *Exchange {
	n := 64
	for n < capacity {
		n *= 2
	}
	return &Exchange{slots: make([]atomic.Pointer[sharedClause], n)}
}

// publish copies the clause into a fresh slot. The literal slice is
// copied because callers pass reused scratch buffers.
func (e *Exchange) publish(src int, lits []Lit) {
	sc := &sharedClause{lits: append([]Lit(nil), lits...), src: src}
	i := e.head.Add(1) - 1
	e.slots[i&uint64(len(e.slots)-1)].Store(sc)
}

// collect visits clauses published since cursor `from` (skipping those
// published by `src` itself), calling f for each until f returns false.
// It returns the new cursor. Entries overwritten since `from` are
// silently skipped.
func (e *Exchange) collect(src int, from uint64, f func([]Lit) bool) uint64 {
	head := e.head.Load()
	if head > from+uint64(len(e.slots)) {
		from = head - uint64(len(e.slots))
	}
	for ; from < head; from++ {
		sc := e.slots[from&uint64(len(e.slots)-1)].Load()
		if sc == nil || sc.src == src {
			continue
		}
		if !f(sc.lits) {
			return from + 1
		}
	}
	return from
}

// snapshot is a level-0 image of a solver's CNF: variable count, the
// level-0 trail (unit consequences), the live problem clauses, a warm
// start of short learnt clauses, and the saved phases.
type snapshot struct {
	nvars    int
	units    []Lit
	clauses  [][]Lit
	warm     [][]Lit
	polarity []bool
}

// takeSnapshot captures the solver's clause database. The solver must
// be at decision level 0 (it always is between Solve calls).
func (s *Solver) takeSnapshot() *snapshot {
	if s.decisionLevel() != 0 {
		panic("sat: snapshot during search")
	}
	sn := &snapshot{
		nvars:    s.NumVars(),
		units:    append([]Lit(nil), s.trail...),
		polarity: append([]bool(nil), s.polarity...),
	}
	for _, cref := range s.clauses {
		if s.isDeleted(cref) {
			continue
		}
		sn.clauses = append(sn.clauses, append([]Lit(nil), s.clauseLits(cref)...))
	}
	// Short learnt clauses are consequences of the CNF and give every
	// worker the probe's distilled knowledge for free.
	for _, cref := range s.learnts {
		lits := s.clauseLits(cref)
		if s.isDeleted(cref) || len(lits) > MaxSharedLen {
			continue
		}
		sn.warm = append(sn.warm, append([]Lit(nil), lits...))
	}
	return sn
}

// build materializes a fresh worker solver from the snapshot.
func (sn *snapshot) build() *Solver {
	w := New()
	for i := 0; i < sn.nvars; i++ {
		w.NewVar()
	}
	copy(w.polarity, sn.polarity)
	for _, l := range sn.units {
		if !w.AddClause(l) {
			return w
		}
	}
	for _, c := range sn.clauses {
		if !w.AddClause(c...) {
			return w
		}
	}
	for _, c := range sn.warm {
		if !w.AddClause(c...) {
			return w
		}
	}
	return w
}

// validates reports whether the model (as read from w) satisfies the
// snapshot's CNF and the assumptions. Warm-start clauses are implied,
// so checking units + clauses + assumptions is complete.
func (sn *snapshot) validates(w *Solver, assumptions []Lit) bool {
	holds := func(l Lit) bool {
		v := w.Model(l.Var())
		if l.Neg() {
			v = !v
		}
		return v
	}
	for _, l := range sn.units {
		if !holds(l) {
			return false
		}
	}
	for _, l := range assumptions {
		if !holds(l) {
			return false
		}
	}
	for _, c := range sn.clauses {
		ok := false
		for _, l := range c {
			if holds(l) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// DefaultProbeConflicts is the sequential probe budget used when
// Portfolio.ProbeConflicts is zero: queries the incremental solver
// settles within this many conflicts (the vast majority) never pay for
// a fan-out, so a 1-worker portfolio tracks the sequential path and
// easy queries keep their incremental warm state.
const DefaultProbeConflicts = 4096

// Portfolio runs diversified CDCL workers over one solver's CNF with
// first-wins cancellation. The zero value (or Workers ≤ 1) degenerates
// to the plain sequential Solve.
type Portfolio struct {
	// Workers is the number of diversified workers racing after the
	// probe (≤ 1 = sequential only).
	Workers int
	// ProbeConflicts bounds the sequential probe that runs before any
	// fan-out (0 = DefaultProbeConflicts, negative = no probe).
	ProbeConflicts int64
	// DisableSharing turns off the learnt-clause exchange between
	// workers (for ablation; sharing is on by default).
	DisableSharing bool
	// Seed diversifies the workers' random streams.
	Seed int64
	// Obs, when non-nil, receives sat.portfolio.* counters and a
	// sat.portfolio.worker span per worker (winner and wasted effort).
	Obs *obs.Tracer
	// Faults, when non-nil, arms the portfolio failpoints
	// (failpoint.SatWorkerCrash panics inside a worker goroutine; the
	// crash is contained and counted). Nil-safe like Obs.
	Faults *failpoint.Registry
}

// workerConfig returns worker i's diversification: worker 0 mirrors the
// default sequential configuration (phase saving, Luby, no randomness),
// the rest vary polarity, restart schedule, and random stream.
func (p *Portfolio) workerConfig(i int, opts *Options) {
	if i == 0 {
		return
	}
	opts.Seed = p.Seed*int64(len("portfolio"))*1_000_003 + int64(i)*2_654_435_761 + 1
	switch i % 4 {
	case 1:
		opts.Polarity = PolarityFalse
		opts.RestartSchedule = RestartGeometric
	case 2:
		opts.Polarity = PolarityTrue
	case 3:
		opts.Polarity = PhaseSaving
		opts.RestartSchedule = RestartGeometric
	default:
		opts.Polarity = PolarityRandom
	}
}

// Solve decides the solver's CNF under the assumptions. The sequential
// probe runs first on s itself (keeping its incremental warm state);
// only a probe that exhausts its conflict budget triggers the fan-out.
// On Sat, the winning model is validated against the CNF snapshot and
// installed into s, so callers decode it exactly as after a sequential
// Solve. The winner's search statistics are folded into s.Stats.
func (p *Portfolio) Solve(s *Solver, opts Options, assumptions ...Lit) (Status, error) {
	if p == nil || p.Workers <= 1 {
		return s.Solve(opts, assumptions...)
	}
	probe := p.ProbeConflicts
	if probe == 0 {
		probe = DefaultProbeConflicts
	}
	if probe > 0 {
		probeOpts := opts
		probeOpts.MaxConflicts = probe
		if opts.MaxConflicts > 0 && opts.MaxConflicts < probe {
			probeOpts.MaxConflicts = opts.MaxConflicts
		}
		st, err := s.Solve(probeOpts, assumptions...)
		if st != Unknown {
			return st, err
		}
		if err != nil && err != ErrBudget {
			return st, err // canceled: not ours to retry
		}
		if opts.MaxConflicts > 0 {
			if opts.MaxConflicts <= probe {
				return Unknown, ErrBudget // full budget already spent
			}
			opts.MaxConflicts -= probe
		}
		if !opts.Deadline.IsZero() && !time.Now().Before(opts.Deadline) {
			return Unknown, ErrBudget
		}
	}
	return p.fanOut(s, opts, assumptions)
}

// fanOut races the diversified workers on a snapshot of s.
func (p *Portfolio) fanOut(s *Solver, opts Options, assumptions []Lit) (Status, error) {
	if !s.ok {
		// Top-level unsatisfiability (e.g. an empty clause) is not
		// representable in the snapshot's clause list; answer like the
		// sequential Solve would.
		return Unsat, nil
	}
	p.Obs.Add("sat.portfolio.fanouts", 1)
	sn := s.takeSnapshot()

	var stop atomic.Bool
	var exch *Exchange
	if !p.DisableSharing {
		exch = NewExchange(256)
	}
	type outcome struct {
		status Status
		err    error
		stats  Stats
		worker *Solver
	}
	outs := make([]outcome, p.Workers)
	var winner atomic.Int64
	winner.Store(-1)

	var wg sync.WaitGroup
	for i := 0; i < p.Workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Contain worker crashes: a panicking worker (a solver bug,
			// or the sat.worker.crash failpoint) must not kill the
			// process while its siblings can still answer the query. The
			// crashed worker simply never becomes the winner.
			defer func() {
				if r := recover(); r != nil {
					p.Obs.Add("sat.portfolio.worker_panics", 1)
					p.Obs.Event(obs.LevelError, "sat.portfolio.worker_panic",
						obs.Int("worker", int64(i)))
					outs[i] = outcome{status: Unknown,
						err: fmt.Errorf("%w: worker %d: %v", ErrWorkerPanic, i, r)}
				}
			}()
			if p.Faults.Active(failpoint.SatWorkerCrash) {
				panic("failpoint: injected sat worker crash")
			}
			w := sn.build()
			wopts := opts
			wopts.Stop = &stop
			wopts.Exchange = exch
			wopts.ExchangeID = i
			p.workerConfig(i, &wopts)
			var tid int64
			if p.Obs.TraceEnabled() {
				tid = p.Obs.NewTID(fmt.Sprintf("sat worker %d", i))
			}
			sp := p.Obs.Span(tid, "sat.portfolio.worker", obs.Int("worker", int64(i)))
			st, err := w.Solve(wopts, assumptions...)
			sp.End(obs.Str("result", st.String()),
				obs.Int("conflicts", w.Stats.Conflicts))
			outs[i] = outcome{status: st, err: err, stats: w.Stats, worker: w}
			if st != Unknown && winner.CompareAndSwap(-1, int64(i)) {
				stop.Store(true)
			}
		}()
	}
	wg.Wait()

	wi := winner.Load()
	var wasted int64
	for i := range outs {
		if int64(i) != wi {
			wasted += outs[i].stats.Conflicts
		}
	}
	p.Obs.Add("sat.portfolio.wasted_conflicts", wasted)

	if wi < 0 {
		// No worker answered. If every worker died by panic there is no
		// budget story to tell — surface the crash so callers classify
		// it as an internal fault rather than a retryable timeout.
		allPanic := true
		var panicErr error
		for i := range outs {
			if errors.Is(outs[i].err, ErrWorkerPanic) {
				if panicErr == nil {
					panicErr = outs[i].err
				}
			} else {
				allPanic = false
			}
		}
		if allPanic && panicErr != nil {
			return Unknown, panicErr
		}
		// Otherwise the surviving workers exhausted their budget or
		// deadline.
		return Unknown, ErrBudget
	}
	win := outs[wi]
	p.Obs.Add("sat.portfolio.wins", 1)
	p.Obs.Add("sat.portfolio.winner_conflicts", win.stats.Conflicts)
	p.Obs.Observe("sat.portfolio.winner", wi)
	p.Obs.Event(obs.LevelDebug, "sat.portfolio.win",
		obs.Int("worker", wi), obs.Str("result", win.status.String()),
		obs.Int("conflicts", win.stats.Conflicts),
		obs.Int("wasted_conflicts", wasted))

	if win.status == Sat && !sn.validates(win.worker, assumptions) {
		// A model that fails re-validation would poison synthesis with a
		// bogus counterexample; fall back to the sequential search, which
		// is authoritative (this indicates a solver bug — the fallback
		// keeps the pipeline sound regardless).
		p.Obs.Add("sat.portfolio.invalid_models", 1)
		return s.Solve(opts, assumptions...)
	}

	// Fold the winner's effort into the source solver's statistics so
	// incremental callers' per-query conflict deltas stay meaningful,
	// and install the winning model for decoding.
	s.Stats.Decisions += win.stats.Decisions
	s.Stats.Propagations += win.stats.Propagations
	s.Stats.Conflicts += win.stats.Conflicts
	s.Stats.Restarts += win.stats.Restarts
	s.Stats.Learnt += win.stats.Learnt
	s.Stats.Published += win.stats.Published
	s.Stats.Imported += win.stats.Imported
	if win.status == Sat {
		s.model = append(s.model[:0], win.worker.model...)
	}
	return win.status, win.err
}
