// Package obs is the solver stack's observability layer: a
// zero-dependency (stdlib-only) tracing and metrics subsystem threaded
// through sat → smt → cegis → driver → the command-line tools.
//
// It provides three facilities on one Tracer:
//
//   - A low-overhead span API (Span / End) with string and integer
//     labels. Spans record their wall-clock extent on a logical thread
//     (TID) and feed a per-span-name latency histogram. A nil *Tracer
//     is a valid no-op sink: every method is nil-safe, so
//     instrumentation sites need no conditionals and cost only a nil
//     check when observability is off.
//
//   - Counter and histogram registries (see metrics.go) that subsume
//     the ad-hoc cegis.Stats / driver.SolverEffort counters: totals
//     plus query-latency and conflict-count distributions.
//
//   - Exporters: Chrome trace_event JSON (chrome.go, viewable in
//     chrome://tracing or Perfetto) and a text metrics summary for
//     report tables.
//
// Progress lines (the driver's per-goal reporting) also route through
// the Tracer: Eventf (event.go) writes an event's message to the
// attached progress writer and records an instant event in the trace,
// so a trace file tells the same story as the terminal output.
package obs

import (
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Arg is one span label: a key with either a string or an integer
// value. Construct with Str or Int.
type Arg struct {
	Key   string
	str   string
	num   int64
	isNum bool
}

// Str returns a string-valued span label.
func Str(key, value string) Arg { return Arg{Key: key, str: value} }

// Int returns an integer-valued span label.
func Int(key string, value int64) Arg { return Arg{Key: key, num: value, isNum: true} }

// Value returns the label's value as an interface (for JSON export).
func (a Arg) Value() any {
	if a.isNum {
		return a.num
	}
	return a.str
}

// event is one recorded trace event (a completed span or an instant).
type event struct {
	name    string
	tid     int64
	start   time.Duration // since Tracer epoch
	dur     time.Duration // zero for instant events
	instant bool
	args    []Arg
}

// Tracer is the root of the observability layer. Create one with New;
// a nil *Tracer disables all instrumentation (every method no-ops).
//
// Metrics collection is always on for a non-nil Tracer; trace-event
// collection is off until EnableTrace, so a metrics-only Tracer never
// accumulates unbounded event memory. All methods are safe for
// concurrent use (the driver runs goal syntheses in parallel).
type Tracer struct {
	epoch time.Time
	reg   *Registry

	trace atomic.Bool

	mu       sync.Mutex
	events   []event
	threads  map[int64]string
	progress io.Writer
	// events2 is the structured JSONL event sink (see event.go); the
	// name distinguishes it from the trace-event buffer above.
	events2 *eventSink

	nextTID atomic.Int64
}

// New returns a Tracer collecting metrics but no trace events.
func New() *Tracer {
	return &Tracer{
		epoch:   time.Now(),
		reg:     NewRegistry(),
		threads: make(map[int64]string),
	}
}

// EnableTrace turns on trace-event collection (the trace sink).
func (t *Tracer) EnableTrace() {
	if t == nil {
		return
	}
	t.trace.Store(true)
}

// SetProgress attaches a writer that receives the messages of Eventf
// events.
func (t *Tracer) SetProgress(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.progress = w
	t.mu.Unlock()
}

// Metrics returns the Tracer's registry (nil for a nil Tracer).
func (t *Tracer) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// NewTID allocates a logical thread id for trace events, naming its
// timeline in trace viewers. TID 0 is the default (unnamed) timeline.
func (t *Tracer) NewTID(name string) int64 {
	if t == nil {
		return 0
	}
	id := t.nextTID.Add(1)
	t.mu.Lock()
	t.threads[id] = name
	t.mu.Unlock()
	return id
}

// Add bumps the named counter (no-op on a nil Tracer).
func (t *Tracer) Add(name string, delta int64) {
	if t == nil {
		return
	}
	t.reg.Counter(name).Add(delta)
}

// Observe records a value in the named histogram (no-op on a nil
// Tracer).
func (t *Tracer) Observe(name string, v int64) {
	if t == nil {
		return
	}
	t.reg.Histogram(name).Observe(v)
}

// Span is an open span returned by Tracer.Span. End completes it. The
// zero Span (from a nil Tracer) is a valid no-op.
type Span struct {
	t     *Tracer
	tid   int64
	name  string
	start time.Time
	args  []Arg
}

// Span opens a span named name on logical thread tid. The labels are
// recorded when the span ends; pass query-result labels to End.
func (t *Tracer) Span(tid int64, name string, args ...Arg) Span {
	if t == nil {
		return Span{}
	}
	sp := Span{t: t, tid: tid, name: name, start: time.Now()}
	if t.trace.Load() && len(args) > 0 {
		sp.args = args
	}
	return sp
}

// Active reports whether the span records anything (false for spans
// from a nil Tracer).
func (s Span) Active() bool { return s.t != nil }

// End completes the span: its duration feeds the "<name>.us" latency
// histogram, and — when tracing is enabled — a trace event with the
// open labels plus args is recorded.
func (s Span) End(args ...Arg) {
	if s.t == nil {
		return
	}
	dur := time.Since(s.start)
	s.t.reg.Histogram(s.name + ".us").Observe(dur.Microseconds())
	if !s.t.trace.Load() {
		return
	}
	all := s.args
	if len(args) > 0 {
		all = append(append([]Arg{}, s.args...), args...)
	}
	s.t.mu.Lock()
	s.t.events = append(s.t.events, event{
		name:  s.name,
		tid:   s.tid,
		start: s.start.Sub(s.t.epoch),
		dur:   dur,
		args:  all,
	})
	s.t.mu.Unlock()
}

// Instant records a zero-duration trace event (a point annotation).
func (t *Tracer) Instant(tid int64, name string, args ...Arg) {
	if t == nil || !t.trace.Load() {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, event{
		name:    name,
		tid:     tid,
		start:   time.Since(t.epoch),
		instant: true,
		args:    args,
	})
	t.mu.Unlock()
}

// NumEvents reports how many trace events have been recorded.
func (t *Tracer) NumEvents() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}
