package cegis

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime/debug"
	"sync/atomic"
	"time"

	"selgen/internal/bv"
	"selgen/internal/failpoint"
	"selgen/internal/memmodel"
	"selgen/internal/obs"
	"selgen/internal/pattern"
	"selgen/internal/sem"
	"selgen/internal/smt"
)

// Config bounds a synthesis run.
type Config struct {
	// Width is the word width W (the paper uses 32; reduced widths make
	// the pure-Go solver comparable to Z3 on the paper's workload).
	Width int
	// MaxLen is ℓmax, the largest multiset size explored.
	MaxLen int
	// MaxPatternsPerGoal stops the all-patterns enumeration per goal
	// (0 = unlimited).
	MaxPatternsPerGoal int
	// MaxPatternsPerMultiset caps each multiset's enumeration
	// (0 = unlimited). A small cap keeps one prolific multiset (e.g. a
	// family of precondition-carved variants) from consuming the whole
	// per-goal budget before later multisets are reached.
	MaxPatternsPerMultiset int
	// QueryConflicts caps each SMT query (0 = unlimited).
	QueryConflicts int64
	// Deadline aborts the whole run when exceeded (zero = none).
	Deadline time.Time
	// Seed drives deterministic test-case seeding.
	Seed int64
	// DisablePruning turns the §5.4 skip criteria off (for the
	// pruning-ablation experiment).
	DisablePruning bool
	// NaiveMemSlots, when positive, replaces the valid-pointer M-value
	// encoding with the naive reduced-address-space encoding of that
	// many word cells (power of two) — the memory-encoding ablation.
	NaiveMemSlots int
	// DisableTermSimplify turns off the bv rewriting simplifier inside
	// synthesis and verification (the simplifier ablation).
	DisableTermSimplify bool
	// FreezeArgWitnesses adds, per value argument, an extra witness
	// instantiation requiring two P+-satisfying inputs that differ in
	// that argument — rejecting "precondition carving" that freezes an
	// argument (e.g. rol(x,c) = x<<0 under P+ forcing c ≡ 0). Costly:
	// one extra instantiation per argument per multiset; enable it for
	// groups that need it (driver.RotateSetup does).
	FreezeArgWitnesses bool
	// RequireTotal demands the pattern's precondition hold wherever the
	// goal's does (P(g) ⟹ P+), i.e. unconditional rules only. Off by
	// default: instruction selection wants conditional rules too (a
	// pattern with a narrower precondition covers IR whose behaviour is
	// otherwise undefined). Superoptimization wants it on.
	RequireTotal bool
	// AllowNonNormalized disables the normal-form constraint in ϕwf
	// (the §5.6 filter): with it set, the enumeration also returns
	// patterns a canonicalizing compiler would never produce, such as
	// Add(x,x) for 2x.
	AllowNonNormalized bool
	// DisableIncremental selects the non-incremental pipeline (fresh
	// builder/blaster/solver per multiset and per verification query, no
	// counterexample carry-forward). It finds the same patterns more
	// slowly and is kept as the reference that TestIncrementalEquivalence
	// and BenchmarkCEGISFresh compare the incremental pipeline against;
	// nothing outside tests and benchmarks sets it.
	DisableIncremental bool
	// DisableCostAware walks the multisets in size order and turns the
	// dominance filter off (the cost-awareness ablation): a minimal
	// search then stops at the first size that yields rules. By default
	// multisets are walked in ascending total cycle cost (sum of
	// CostOrDefault over the components) and, once a goal has a correct
	// rule, later multisets that cost at least as much and contain the
	// rule's component multiset are skipped as dominated.
	DisableCostAware bool
	// Obs, when non-nil, receives spans (per goal, multiset, and
	// synthesis/verification query) and counter/histogram metrics that
	// subsume the Stats totals. Nil disables all instrumentation.
	Obs *obs.Tracer
	// Live, when non-nil, receives in-flight progress as atomics an
	// external observer may read while the goal is still running (the
	// driver's RunState wires one per goal attempt and the telemetry
	// server's /goals endpoint reads it). Nil costs one nil check per
	// bump.
	Live *LiveStats
	// Faults, when non-nil, arms the engine's failpoints
	// (cegis.goal.deadline, cegis.verify.die) and is threaded into
	// every solver the engine creates so the sat/smt failpoints fire
	// too. Nil-safe like Obs.
	Faults *failpoint.Registry
}

func (c Config) withDefaults() Config {
	if c.Width == 0 {
		c.Width = 32
	}
	if c.MaxLen == 0 {
		c.MaxLen = 3
	}
	return c
}

// initialTests is the number of seeded test cases per goal.
const initialTests = 4

// ErrDeadline is returned when Config.Deadline expires mid-run.
var ErrDeadline = errors.New("cegis: deadline exceeded")

// ErrInternal marks a synthesis failure that is a bug, not a budget: a
// panic inside the goal's synthesis loop, converted to an error at the
// runGoal boundary so one broken goal cannot kill a whole driver run.
// The driver quarantines such goals rather than retrying them.
var ErrInternal = errors.New("cegis: internal error")

// LiveStats publishes a goal's in-flight synthesis progress: atomics
// the engine bumps alongside Stats so a concurrent reader can see
// "counterexamples so far" while the goal is still running, without
// the engine's single-goroutine Stats discipline. Each field is
// monotonic within one Synthesize call.
type LiveStats struct {
	// Counterexamples counts verification failures so far.
	Counterexamples atomic.Int64
	// MultisetsTried counts CEGIS runs over multisets so far.
	MultisetsTried atomic.Int64
	// Patterns counts valid patterns found so far.
	Patterns atomic.Int64
}

// Stats accumulates synthesis effort counters.
type Stats struct {
	// SynthQueries and VerifyQueries count SMT calls.
	SynthQueries, VerifyQueries int64
	// Counterexamples counts verification failures (new test cases).
	Counterexamples int64
	// MultisetsTried counts CEGIS runs over multisets.
	MultisetsTried int64
	// MultisetsSkipped counts §5.4 pruning skips (by criterion).
	SkippedNoSource, SkippedConsumers, SkippedNoMemOps int64
	// QueryTimeouts counts SMT queries that exhausted their conflict
	// budget (QueryConflicts): a synthesis timeout abandons the
	// multiset, a verification timeout skips just that candidate.
	QueryTimeouts int64
	// CexReused counts cached counterexamples from earlier multisets
	// that the concrete prefilter promoted into a later multiset's
	// encoding (lazy carry-forward).
	CexReused int64
	// PrefilterKills counts candidates eliminated by concrete
	// evaluation against the counterexample cache before any SMT
	// verification query.
	PrefilterKills int64
	// DominatedMultisets counts multisets skipped by the cost-aware
	// dominance filter (cost ≥ an already-found rule's cost and
	// component-superset of it).
	DominatedMultisets int64
	// Patterns counts valid patterns found.
	Patterns int64
}

// Engine synthesizes IR patterns for goal machine instructions.
// An Engine is not safe for concurrent use; the driver creates one
// engine per goal worker.
type Engine struct {
	cfg Config
	ops []*sem.Instr

	// obs mirrors Stats into the tracer's metric registry and emits
	// spans; nil when no tracer is configured (every call is a no-op).
	// tid is the trace timeline of the goal currently being synthesized.
	obs *obs.Tracer
	tid int64

	// faults is the fault-injection registry (nil = all failpoints off).
	faults *failpoint.Registry

	// Stats accumulate across Synthesize calls.
	Stats Stats

	// Per-goal incremental state (see incremental.go): one persistent
	// verification context and one persistent synthesis builder/solver
	// per goal, plus the counterexample cache shared across multisets.
	verifiers map[*sem.Instr]*verifier
	synths    map[*sem.Instr]*synthCtx
	cexes     map[*sem.Instr]*cexCache
	seeds     map[*sem.Instr][][]uint64 // see seedTests

	// Solver-effort aggregation for SolverStats: persistent solvers are
	// tracked live, transient ones folded into retired on disposal.
	liveSolvers []*smt.Solver
	retired     SolverStats
}

// New returns an engine over the IR operation set I.
func New(ops []*sem.Instr, cfg Config) *Engine {
	return &Engine{
		cfg:       cfg.withDefaults(),
		ops:       ops,
		obs:       cfg.Obs,
		faults:    cfg.Faults,
		verifiers: make(map[*sem.Instr]*verifier),
		synths:    make(map[*sem.Instr]*synthCtx),
		cexes:     make(map[*sem.Instr]*cexCache),
		seeds:     make(map[*sem.Instr][][]uint64),
	}
}

// Ops returns the IR operation set.
func (e *Engine) Ops() []*sem.Instr { return e.ops }

func (e *Engine) deadlineExceeded() bool {
	return !e.cfg.Deadline.IsZero() && time.Now().After(e.cfg.Deadline)
}

func (e *Engine) queryOpts() smt.Options {
	o := smt.Options{MaxConflicts: e.cfg.QueryConflicts}
	if !e.cfg.Deadline.IsZero() {
		o.Timeout = time.Until(e.cfg.Deadline)
	}
	return o
}

// nameSalt derives a deterministic per-name salt for RNG seeding.
// FNV-1a over the full name, so distinct goals get distinct pseudo-
// random streams even when their names have equal length (deriving the
// salt from len(name) collided e.g. "175.vpr" with "181.mcf").
func nameSalt(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64())
}

// seedTests returns the initial test-case set for a goal. Seeding
// math/rand costs more than a small multiset's whole enumeration, so
// the set is built once per goal and shared by every multiset: callers
// must not modify it.
func (e *Engine) seedTests(goal *sem.Instr) [][]uint64 {
	tcs, ok := e.seeds[goal]
	if !ok {
		tcs = newSeedTests(e.cfg, goal)
		e.seeds[goal] = tcs
	}
	return tcs
}

// newSeedTests builds a goal's seed test set: zeros, all ones, and
// deterministic pseudorandom vectors.
func newSeedTests(cfg Config, goal *sem.Instr) [][]uint64 {
	rng := rand.New(rand.NewSource(cfg.Seed ^ nameSalt(goal.Name)))
	n := len(goal.Args)
	var out [][]uint64
	zero := make([]uint64, n)
	out = append(out, zero)
	ones := make([]uint64, n)
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	out = append(out, ones)
	for len(out) < initialTests {
		tc := make([]uint64, n)
		for i := range tc {
			tc[i] = rng.Uint64()
		}
		out = append(out, tc)
	}
	return out
}

// Verify checks a rule's pattern against its goal over all inputs at
// the engine's width (the paper's verification query, the one the
// synthesis loop asks of every candidate): it searches for a test case
// that (1) meets the pattern's precondition but not the goal's, (2)
// makes results differ, or (3) makes the pattern access an invalid
// address. It returns (nil, true) when the pattern is correct, or a
// counterexample test case (one value per goal argument); an error
// means the query gave up (a budget, the deadline) or the pattern is
// malformed.
//
// By default the query runs in the goal's persistent verification
// context: the goal semantics and argument variables are built and
// bit-blasted once, and the per-candidate constraints live in a
// retractable solver frame. Under Config.DisableIncremental a fresh
// context is built per call (the pre-incremental behaviour).
func (e *Engine) Verify(goal *sem.Instr, p *pattern.Pattern) (cex []uint64, ok bool, err error) {
	// Check the deadline before building and blasting the candidate's
	// violation formula: a fresh verification context can take longer
	// to construct than a short per-goal budget allows.
	if e.deadlineExceeded() {
		return nil, false, ErrDeadline
	}
	e.Stats.VerifyQueries++
	e.obs.Add("cegis.verify_queries", 1)
	sp := e.obs.Span(e.tid, "verify", obs.Str("goal", goal.Name))
	var v *verifier
	if e.cfg.DisableIncremental {
		v = e.newVerifier(goal)
		defer e.retireSolver(v.solver)
	} else {
		v = e.verifierFor(goal)
		v.solver.Push()
		defer v.solver.Pop()
	}
	c0 := v.solver.Stats.Conflicts
	if aerr := v.assertCandidate(e, p); aerr != nil {
		sp.End(obs.Str("result", "error"))
		return nil, false, aerr
	}
	cex, ok, err = v.check(e, goal)
	if err == nil && !ok && e.faults.Active(failpoint.CegisVerifyDie) {
		// The classic worst moment to die: the counterexample is in hand
		// but has not been recorded anywhere yet.
		panic("failpoint: injected verifier death after counterexample")
	}
	result := "cex"
	switch {
	case ok:
		result = "ok"
	case err != nil:
		result = "error"
	}
	dc := v.solver.Stats.Conflicts - c0
	sp.End(obs.Str("result", result), obs.Int("conflicts", dc))
	e.obs.Observe("verify.conflicts", dc)
	return cex, ok, err
}

// CEGISAllPatterns runs the §5.3 loop over one component multiset:
// repeated CEGIS with exclusion clauses until the synthesis query is
// unsatisfiable, returning every pattern over exactly this multiset
// that implements the goal (capped at MaxPatternsPerGoal).
func (e *Engine) CEGISAllPatterns(comps []*sem.Instr, goal *sem.Instr) ([]pattern.Pattern, error) {
	return e.cegisAllPatterns(comps, goal, e.cfg.MaxPatternsPerGoal)
}

func (e *Engine) cegisAllPatterns(comps []*sem.Instr, goal *sem.Instr, budget int) (found []pattern.Pattern, reterr error) {
	// Check before encoding: building and blasting a multiset encoding
	// is the expensive pre-search step a tight deadline must preempt.
	if e.deadlineExceeded() {
		return nil, ErrDeadline
	}
	e.Stats.MultisetsTried++
	e.obs.Add("cegis.multisets_tried", 1)
	if e.cfg.Live != nil {
		e.cfg.Live.MultisetsTried.Add(1)
	}
	msp := e.obs.Span(e.tid, "multiset",
		obs.Str("goal", goal.Name), obs.Int("len", int64(len(comps))))
	var sc *synthCtx
	// The multiset span's closing labels report how much of the blast
	// work this enumeration found already cached (the payoff of the
	// shared term builder / blast cache across multisets).
	var blastH0, blastM0 int64
	defer func() {
		var hits, misses int64
		if msp.Active() {
			h, m := sc.solver.BlastStats()
			hits, misses = h-blastH0, m-blastM0
		}
		msp.End(obs.Int("patterns", int64(len(found))),
			obs.Int("blast_hits", hits), obs.Int("blast_misses", misses))
	}()
	var cache *cexCache
	if e.cfg.DisableIncremental {
		b, s := e.newSolver()
		sc = &synthCtx{b: b, solver: s}
		defer e.retireSolver(s)
	} else {
		// Share the goal's hash-consed term builder across the whole
		// multiset enumeration — component semantics instantiated on
		// the same test-case values are named identically in every
		// multiset (see enc.instantiate), so later multisets find their
		// terms already built and simplified — and reset the SAT core
		// between multisets: consecutive multisets share no assertions,
		// so asserting this multiset's encoding permanently (level-0
		// units that propagate once) and dropping the core afterwards
		// beats a retractable frame, whose guarded clauses re-propagate
		// under their assumption on every Check and whose accumulated
		// circuits every later Sat answer would have to assign. See
		// DESIGN.md ("Incremental solving").
		sc = e.synthCtxFor(goal)
		cache = e.cexCacheFor(goal)
		defer sc.solver.Reset()
	}
	if msp.Active() {
		blastH0, blastM0 = sc.solver.BlastStats()
	}
	en, err := newEnc(e.cfg, goal, comps, sc)
	if err != nil {
		var ns errNoSource
		if errors.As(err, &ns) {
			return nil, nil // unrealizable multiset: zero patterns
		}
		return nil, err
	}
	en.addWitness()
	en.preferStructure()
	// "asserted" tracks which test-case values this encoding already
	// constrains, keyed by cexKey.
	asserted := map[string]bool{}
	// pool is the concrete screening set: seed tests plus every
	// counterexample earlier multisets produced. In incremental mode
	// test cases are asserted lazily — a pool entry is encoded only
	// once it concretely kills a candidate — so unrealizable multisets
	// (the bulk of the enumeration) pay for a witness and one Unsat
	// check instead of a full test-suite encoding. The emitted pattern
	// set is unaffected: candidates are still verified against the full
	// semantics, and the exclusion loop still runs to Unsat.
	var pool [][]uint64
	lazySeeds := cache != nil && len(comps) < eagerSeedLen
	if !lazySeeds {
		for _, tc := range e.seedTests(goal) {
			en.addTestCase(tc)
			asserted[cexKey(tc)] = true
		}
	}
	if cache != nil {
		inPool := map[string]bool{}
		if lazySeeds {
			for _, tc := range e.seedTests(goal) {
				if k := cexKey(tc); !inPool[k] {
					inPool[k] = true
					pool = append(pool, tc)
				}
			}
		}
		for _, tc := range cache.list {
			if k := cexKey(tc); !inPool[k] && !asserted[k] {
				inPool[k] = true
				pool = append(pool, tc)
			}
		}
	}

	// seen guards the pattern set against Canon duplicates. Mirror
	// images, the only duplicates distinct assignments can decode to,
	// are already excluded by ϕwf's orientation constraint.
	seen := make(map[string]bool)
	for {
		if e.deadlineExceeded() {
			return found, ErrDeadline
		}
		if budget > 0 && len(found) >= budget {
			return found, nil
		}
		e.Stats.SynthQueries++
		e.obs.Add("cegis.synth_queries", 1)
		qsp := e.obs.Span(e.tid, "synth",
			obs.Str("goal", goal.Name), obs.Int("len", int64(len(comps))))
		c0 := en.solver.Stats.Conflicts
		res, cerr := en.solver.Check(e.queryOpts())
		dc := en.solver.Stats.Conflicts - c0
		qsp.End(obs.Str("result", res.String()), obs.Int("conflicts", dc))
		e.obs.Observe("synth.conflicts", dc)
		if res == smt.Unsat {
			return found, nil // all patterns over this multiset found
		}
		if res != smt.Sat {
			if e.deadlineExceeded() {
				return found, ErrDeadline
			}
			if errors.Is(cerr, smt.ErrBudget) {
				// Too hard within the per-query budget: abandon this
				// multiset, keeping the verified patterns found so far
				// (the paper's timeout policy; soundness is unaffected
				// because only verified patterns are ever emitted).
				e.Stats.QueryTimeouts++
				e.obs.Add("cegis.query_timeouts", 1)
				return found, nil
			}
			return found, fmt.Errorf("cegis: synthesis unknown for %s", goal.Name)
		}
		a := en.readAssignment()
		cand := en.toPattern(a)
		// Concrete prefilter: replay the screening pool against the
		// candidate before paying for an SMT verification query; a kill
		// lazily promotes the killing test case into the encoding.
		if cache != nil {
			if killers := e.prefilterKillers(goal, &cand, pool); len(killers) > 0 {
				fresh := 0
				for _, killer := range killers {
					if fresh >= maxKillersPerRound {
						break
					}
					k := cexKey(killer)
					if asserted[k] {
						continue
					}
					asserted[k] = true
					fresh++
					e.Stats.PrefilterKills++
					e.obs.Add("cegis.prefilter_kills", 1)
					if cache.seen[k] {
						e.Stats.CexReused++
						e.obs.Add("cegis.cex_reused", 1)
					}
					en.addTestCase(killer)
				}
				if fresh > 0 {
					continue
				}
				// Every killer is already asserted yet the candidate
				// was still proposed: the concrete evaluator and the
				// solver encoding disagree. Fall through to full
				// verification, which is authoritative (and guarantees
				// progress).
			}
		}
		cex, ok, verr := e.Verify(goal, &cand)
		if verr != nil {
			if e.deadlineExceeded() {
				return found, ErrDeadline
			}
			if errors.Is(verr, smt.ErrBudget) {
				// One hard verification query skips just this candidate
				// (exclude it and move on) rather than abandoning the
				// whole multiset enumeration.
				e.Stats.QueryTimeouts++
				e.obs.Add("cegis.query_timeouts", 1)
				en.exclude(a)
				continue
			}
			return found, verr
		}
		if !ok {
			e.Stats.Counterexamples++
			e.obs.Add("cegis.counterexamples", 1)
			if e.cfg.Live != nil {
				e.cfg.Live.Counterexamples.Add(1)
			}
			if cache != nil {
				cache.add(cex)
				asserted[cexKey(cex)] = true
				pool = append(pool, cex)
			}
			en.addTestCase(cex)
			continue
		}
		en.exclude(a)
		key := cand.Canon()
		if !seen[key] {
			seen[key] = true
			found = append(found, cand)
			e.Stats.Patterns++
			e.obs.Add("cegis.patterns", 1)
			if e.cfg.Live != nil {
				e.cfg.Live.Patterns.Add(1)
			}
		}
	}
}

// Result is the outcome of synthesizing one goal.
type Result struct {
	Goal     *sem.Instr
	Patterns []pattern.Pattern
	// MinLen is the minimal pattern size found (ℓ of the iteration
	// that produced results).
	MinLen int
	// Elapsed is the wall-clock synthesis time for this goal.
	Elapsed time.Duration
}

// Synthesize runs iterative CEGIS (Algorithm 2) for one goal: it
// walks the component multisets in ascending total cycle cost (in size
// order under Config.DisableCostAware) and returns all patterns of the
// first band that yields any, a band being one cost (one size under
// the ablation). A deadline abort is reported as an error wrapping
// ErrDeadline (classify with errors.Is).
func (e *Engine) Synthesize(goal *sem.Instr) (*Result, error) {
	return e.runGoal(goal, "minimal", false)
}

// SynthesizeAllSizes is like Synthesize but keeps walking more
// expensive multisets up to MaxLen instead of stopping at the first
// band that yields patterns, aggregating every pattern found (the
// "full setup" behaviour). Cost-aware mode skips dominated multisets;
// Config.DisableCostAware restores the exhaustive enumeration.
func (e *Engine) SynthesizeAllSizes(goal *sem.Instr) (*Result, error) {
	return e.runGoal(goal, "all-sizes", true)
}

// runGoal brackets one goal synthesis with a trace timeline and span,
// and wraps a deadline abort with the goal's name at the public
// boundary, so callers see which goal timed out and must classify the
// error with errors.Is rather than comparing identity. It is also the
// engine's panic boundary: a panic anywhere in the synthesis loop is
// converted to an error wrapping ErrInternal (with the stack attached)
// so the driver can quarantine the goal instead of crashing the run.
func (e *Engine) runGoal(goal *sem.Instr, mode string, allSizes bool) (res *Result, err error) {
	if e.faults.Active(failpoint.CegisGoalDeadline) {
		return &Result{Goal: goal},
			fmt.Errorf("cegis: goal %s: %w", goal.Name, ErrDeadline)
	}
	if e.obs != nil {
		e.tid = e.obs.NewTID("goal " + goal.Name)
	}
	e.obs.Event(obs.LevelDebug, "cegis.goal.start",
		obs.Str("goal", goal.Name), obs.Str("phase", mode))
	sp := e.obs.Span(e.tid, "goal",
		obs.Str("goal", goal.Name), obs.Str("mode", mode))
	func() {
		defer func() {
			if r := recover(); r != nil {
				e.obs.Add("cegis.goal_panics", 1)
				err = fmt.Errorf("cegis: goal %s: %w: %v\n%s",
					goal.Name, ErrInternal, r, debug.Stack())
			}
		}()
		res, err = e.synthesize(goal, allSizes)
	}()
	if res == nil {
		res = &Result{Goal: goal}
	}
	sp.End(obs.Int("patterns", int64(len(res.Patterns))),
		obs.Int("min_len", int64(res.MinLen)))
	if err == ErrDeadline {
		err = fmt.Errorf("cegis: goal %s: %w", goal.Name, err)
	}
	doneTags := []obs.Arg{
		obs.Str("goal", goal.Name), obs.Str("phase", mode),
		obs.Int("patterns", int64(len(res.Patterns))),
		obs.Int("counterexamples", e.Stats.Counterexamples),
	}
	if err != nil {
		doneTags = append(doneTags, obs.Str("error", err.Error()))
	}
	e.obs.Event(obs.LevelDebug, "cegis.goal.done", doneTags...)
	return res, err
}

// requiredMemOps implements the §5.4 refinement: decide by SMT query
// whether the goal must contain load and/or store operations, and
// return those operations (from the engine's op set) as fixed multiset
// members.
func (e *Engine) requiredMemOps(goal *sem.Instr) []*sem.Instr {
	if !goal.AccessesMemory() {
		return nil
	}
	needLoad, needStore := e.AnalyzeMemoryNeeds(goal)
	var req []*sem.Instr
	if needLoad {
		if op := opByName(e.ops, "Load"); op != nil {
			req = append(req, op)
		}
	}
	if needStore {
		if op := opByName(e.ops, "Store"); op != nil {
			req = append(req, op)
		}
	}
	return req
}

func opByName(ops []*sem.Instr, name string) *sem.Instr {
	for _, o := range ops {
		if o.Name == name {
			return o
		}
	}
	return nil
}

// AnalyzeMemoryNeeds decides whether the goal requires a load and/or a
// store in any implementing pattern, by checking satisfiability of
// "output M-value differs from input M-value" restricted to access
// flags (→ load) and to memory contents (→ store), per §5.4.
func (e *Engine) AnalyzeMemoryNeeds(goal *sem.Instr) (needLoad, needStore bool) {
	memArg, memRes := -1, -1
	for i, k := range goal.Args {
		if k == sem.KindMem {
			memArg = i
			break
		}
	}
	for i, k := range goal.Results {
		if k == sem.KindMem {
			memRes = i
			break
		}
	}
	if memArg < 0 || memRes < 0 {
		return false, false
	}

	check := func(flags bool) bool {
		b, solver := e.newSolver()
		defer e.retireSolver(solver)
		ctx := &sem.Ctx{B: b, Width: e.cfg.Width}
		va := make([]*bv.Term, len(goal.Args))
		for i, k := range goal.Args {
			if k != sem.KindMem {
				va[i] = b.Var(fmt.Sprintf("m_a%d", i), ctx.SortOf(k))
			}
		}
		ptrs := memmodel.PtrsFor(b, e.cfg.Width, goal, va, nil)
		model := memmodel.New(b, e.cfg.Width, ptrs)
		ctx.Mem = model
		va[memArg] = b.Var(fmt.Sprintf("m_a%d", memArg), model.Sort())
		geff := goal.Apply(ctx, va, nil)
		mIn, mOut := va[memArg], geff.Results[memRes]
		var diff *bv.Term = b.BoolConst(false)
		for i := 0; i < model.NumPtrs(); i++ {
			if flags {
				diff = b.Or(diff, b.Not(b.Eq(model.Flag(mIn, i), model.Flag(mOut, i))))
			} else {
				diff = b.Or(diff, b.Not(b.Eq(model.Contents(mIn, i), model.Contents(mOut, i))))
			}
		}
		solver.Assert(diff)
		res, _ := solver.Check(e.queryOpts())
		return res == smt.Sat
	}
	return check(true), check(false)
}

// skipMultiset applies the two §5.4 skip criteria; it returns true when
// the multiset provably cannot yield a valid pattern.
func (e *Engine) skipMultiset(goal *sem.Instr, comps []*sem.Instr) bool {
	// Criterion 2 (sources): every consumed kind needs a source — a
	// pattern argument of that kind, or a component producing it
	// without consuming it.
	kinds := []sem.Kind{sem.KindValue, sem.KindBool, sem.KindMem}
	for _, kind := range kinds {
		consumed := false
		for _, c := range comps {
			for _, a := range c.Args {
				if a.Compatible(kind) && kind.Compatible(a) {
					consumed = true
				}
			}
		}
		if !consumed {
			continue
		}
		hasSource := false
		for _, a := range goal.Args {
			if a.Compatible(kind) {
				hasSource = true
			}
		}
		for _, c := range comps {
			takes := false
			for _, a := range c.Args {
				if a.Compatible(kind) {
					takes = true
				}
			}
			if takes {
				continue
			}
			for _, r := range c.Results {
				if r.Compatible(kind) {
					hasSource = true
				}
			}
		}
		if !hasSource {
			e.Stats.SkippedNoSource++
			e.obs.Add("cegis.skipped_no_source", 1)
			return true
		}
	}

	// Criterion 1 (consumers): if n components produce exactly one
	// result of kind S, but fewer than n consumers of S exist, some
	// result must go unused — the pattern would have been found at a
	// smaller ℓ.
	for _, kind := range kinds {
		producers := 0
		for _, c := range comps {
			if len(c.Results) == 1 && c.Results[0].Compatible(kind) && kind.Compatible(c.Results[0]) {
				producers++
			}
		}
		if producers == 0 {
			continue
		}
		consumers := 0
		for _, c := range comps {
			for _, a := range c.Args {
				if a.Compatible(kind) && kind.Compatible(a) {
					consumers++
				}
			}
		}
		for _, r := range goal.Results {
			if r.Compatible(kind) && kind.Compatible(r) {
				consumers++
			}
		}
		if consumers < producers {
			e.Stats.SkippedConsumers++
			e.obs.Add("cegis.skipped_consumers", 1)
			return true
		}
	}

	// Result sourcing: each goal result kind needs a producer among the
	// pattern arguments or component results (criterion 2 applied to
	// the pattern's outputs; e.g. a Bool-producing goal needs a Cmp).
	for _, kind := range kinds {
		wanted := false
		for _, r := range goal.Results {
			if r.Compatible(kind) && kind.Compatible(r) {
				wanted = true
			}
		}
		if !wanted {
			continue
		}
		has := false
		for _, a := range goal.Args {
			if a.Compatible(kind) {
				has = true
			}
		}
		for _, c := range comps {
			for _, r := range c.Results {
				if r.Compatible(kind) {
					has = true
				}
			}
		}
		if !has {
			e.Stats.SkippedNoSource++
			e.obs.Add("cegis.skipped_no_source", 1)
			return true
		}
	}

	// Memory-specific: a goal without memory access cannot use memory
	// operations (subsumed by the source criterion via KindMem, but
	// counted separately for reporting, §5.4).
	if !goal.AccessesMemory() {
		for _, c := range comps {
			if c.AccessesMemory() {
				e.Stats.SkippedNoMemOps++
				e.obs.Add("cegis.skipped_no_mem_ops", 1)
				return true
			}
		}
	}
	return false
}
