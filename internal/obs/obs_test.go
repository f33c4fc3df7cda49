package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	tr.EnableTrace()
	tr.SetProgress(&bytes.Buffer{})
	tr.Add("c", 1)
	tr.Observe("h", 1)
	tr.Progressf("hello %d\n", 1)
	tr.Instant(0, "i")
	if tr.NewTID("x") != 0 {
		t.Fatalf("nil tracer TID must be 0")
	}
	sp := tr.Span(0, "s", Str("k", "v"))
	if sp.Active() {
		t.Fatalf("nil tracer span must be inactive")
	}
	sp.End(Int("n", 1))
	if tr.Metrics() != nil || tr.NumEvents() != 0 {
		t.Fatalf("nil tracer must report empty state")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil trace export: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil trace export not JSON: %v", err)
	}
}

func TestCountersAndHistograms(t *testing.T) {
	tr := New()
	tr.Add("queries", 3)
	tr.Add("queries", 4)
	if got := tr.Metrics().CounterValue("queries"); got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
	if got := tr.Metrics().CounterValue("absent"); got != 0 {
		t.Fatalf("absent counter = %d, want 0", got)
	}
	for _, v := range []int64{1, 2, 3, 100, 1000} {
		tr.Observe("lat", v)
	}
	h := tr.Metrics().HistogramNamed("lat")
	if h == nil {
		t.Fatalf("histogram missing")
	}
	if h.Count() != 5 || h.Sum() != 1106 || h.Min() != 1 || h.Max() != 1000 {
		t.Fatalf("histogram stats: count=%d sum=%d min=%d max=%d",
			h.Count(), h.Sum(), h.Min(), h.Max())
	}
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("p0 = %d, want 1", q)
	}
	if q := h.Quantile(1); q != 1000 {
		t.Fatalf("p100 = %d, want 1000", q)
	}
	// p50 falls in the bucket of 3 (bit length 2 → upper bound 3).
	if q := h.Quantile(0.5); q < 3 || q > 7 {
		t.Fatalf("p50 = %d, want a small-bucket bound", q)
	}
	if m := h.Mean(); m < 221 || m > 222 {
		t.Fatalf("mean = %f", m)
	}
}

func TestHistogramNonPositive(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-5)
	if h.Count() != 2 || h.Min() != -5 || h.Max() != 0 {
		t.Fatalf("stats: %d %d %d", h.Count(), h.Min(), h.Max())
	}
	if q := h.Quantile(0.5); q != -5 && q != 0 {
		t.Fatalf("quantile of non-positive values: %d", q)
	}
}

// TestChromeTraceWellFormed checks the exporter's output parses as
// Chrome trace_event JSON and that spans nest properly per thread.
func TestChromeTraceWellFormed(t *testing.T) {
	tr := New()
	tr.EnableTrace()
	tid := tr.NewTID("goal worker")

	outer := tr.Span(tid, "goal", Str("goal", "add"))
	mid := tr.Span(tid, "multiset", Int("len", 2))
	inner := tr.Span(tid, "synth")
	time.Sleep(time.Millisecond)
	inner.End(Int("conflicts", 7), Str("result", "sat"))
	inner2 := tr.Span(tid, "verify")
	inner2.End(Str("result", "unsat"))
	mid.End(Int("patterns", 1))
	outer.End()
	tr.Instant(tid, "note", Str("message", "done"))

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int64          `json:"pid"`
			TID  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	var haveThreadName bool
	byName := map[string]int{}
	// Spans on one tid must nest: track a stack of [start, end].
	type iv struct{ start, end float64 }
	var stack []iv
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			if ev.Name == "thread_name" && ev.Args["name"] == "goal worker" {
				haveThreadName = true
			}
			continue
		}
		byName[ev.Name]++
		if ev.Name == "" || ev.TS < 0 || ev.PID != 1 {
			t.Fatalf("malformed event: %+v", ev)
		}
		if ev.Ph != "X" {
			continue
		}
		if ev.Dur <= 0 {
			t.Fatalf("span %s has non-positive dur %f", ev.Name, ev.Dur)
		}
		end := ev.TS + ev.Dur
		for len(stack) > 0 && ev.TS >= stack[len(stack)-1].end {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			top := stack[len(stack)-1]
			if ev.TS < top.start || end > top.end {
				t.Fatalf("span %s [%f,%f] not nested in [%f,%f]",
					ev.Name, ev.TS, end, top.start, top.end)
			}
		}
		stack = append(stack, iv{ev.TS, end})
	}
	if !haveThreadName {
		t.Fatalf("missing thread_name metadata")
	}
	for _, want := range []string{"goal", "multiset", "synth", "verify", "note"} {
		if byName[want] == 0 {
			t.Fatalf("missing %q event; have %v", want, byName)
		}
	}
	// Span latency feeds the per-name histogram.
	if h := tr.Metrics().HistogramNamed("synth.us"); h == nil || h.Count() != 1 {
		t.Fatalf("synth.us histogram not recorded")
	}
}

func TestProgressf(t *testing.T) {
	tr := New()
	var buf bytes.Buffer
	tr.SetProgress(&buf)
	tr.Progressf("  %-10s %d patterns\n", "add", 3)
	if !strings.Contains(buf.String(), "add") || !strings.Contains(buf.String(), "3 patterns") {
		t.Fatalf("progress line: %q", buf.String())
	}
	if tr.NumEvents() != 0 {
		t.Fatalf("progress must not record events with tracing off")
	}
	tr.EnableTrace()
	tr.Progressf("next\n")
	if tr.NumEvents() != 1 {
		t.Fatalf("progress must record an instant event with tracing on")
	}
}

func TestWriteSummary(t *testing.T) {
	tr := New()
	tr.Add("cegis.synth_queries", 12)
	tr.Add("cegis.verify_queries", 5)
	for i := int64(1); i <= 100; i++ {
		tr.Observe("synth.us", i*10)
	}
	var buf bytes.Buffer
	tr.Metrics().WriteSummary(&buf)
	out := buf.String()
	for _, want := range []string{"synth.us", "cegis.synth_queries=12", "cegis.verify_queries=5", "P90"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestNoSinkOverhead is the benchmark guard for the no-op path: a
// disabled (nil) tracer span must cost nanoseconds, so a synthesis run
// without observability attached pays nothing measurable. The bound is
// deliberately generous (loaded CI machines) — it guards against the
// no-op path acquiring locks or allocations, not against cycle-level
// regressions.
func TestNoSinkOverhead(t *testing.T) {
	var tr *Tracer
	const n = 1_000_000
	start := time.Now()
	for i := 0; i < n; i++ {
		sp := tr.Span(0, "synth")
		tr.Add("c", 1)
		sp.End()
	}
	elapsed := time.Since(start)
	// ~3 nil checks per iteration; even slow hardware does this in
	// well under 100ns each.
	if elapsed > 500*time.Millisecond {
		t.Fatalf("1e6 disabled spans took %s — no-op path is not cheap", elapsed)
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	var tr *Tracer
	for i := 0; i < b.N; i++ {
		sp := tr.Span(0, "synth")
		sp.End()
	}
}

func BenchmarkSpanMetricsOnly(b *testing.B) {
	tr := New()
	for i := 0; i < b.N; i++ {
		sp := tr.Span(0, "synth")
		sp.End()
	}
}

func BenchmarkSpanTraced(b *testing.B) {
	tr := New()
	tr.EnableTrace()
	for i := 0; i < b.N; i++ {
		sp := tr.Span(0, "synth", Str("goal", "add"))
		sp.End(Int("conflicts", int64(i)))
	}
}
