package obs

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestParseLevel(t *testing.T) {
	for _, lvl := range []Level{LevelDebug, LevelInfo, LevelWarn, LevelError} {
		got, err := ParseLevel(lvl.String())
		if err != nil || got != lvl {
			t.Fatalf("ParseLevel(%q) = %v, %v; want %v", lvl.String(), got, err, lvl)
		}
	}
	if got, err := ParseLevel("WARNING"); err != nil || got != LevelWarn {
		t.Fatalf("ParseLevel(WARNING) = %v, %v; want warn", got, err)
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatalf("ParseLevel(loud) must fail")
	}
}

// TestEventSinkJSONL checks the `selgen -events` contract: one JSON
// object per line, deterministic leading fields (t, level, event, then
// msg and the tags in call order), and level filtering at the sink.
func TestEventSinkJSONL(t *testing.T) {
	tr := New()
	var buf bytes.Buffer
	tr.SetEventSink(&buf, LevelInfo)

	tr.Event(LevelDebug, "cegis.goal.start", Str("goal", "add")) // below min: dropped
	tr.Eventf(LevelInfo, "driver.goal.done",
		[]Arg{Str("goal", "add"), Int("patterns", 3)},
		"  %-10s %d patterns\n", "add", 3)
	tr.Event(LevelError, "driver.goal.quarantine", Str("goal", "andn"))

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d event lines, want 2 (debug filtered):\n%s", len(lines), buf.String())
	}
	if got := tr.Metrics().CounterValue("obs.events"); got != 2 {
		t.Fatalf("obs.events = %d, want 2", got)
	}

	// Field order is part of the format: fixed prefix, then tags in
	// call order.
	if !strings.HasPrefix(lines[0], `{"t":`) {
		t.Fatalf("line does not start with the t field: %q", lines[0])
	}
	wantOrder := []string{`"t":`, `"level":"info"`, `"event":"driver.goal.done"`, `"msg":`, `"goal":"add"`, `"patterns":3`}
	pos := -1
	for _, marker := range wantOrder {
		i := strings.Index(lines[0], marker)
		if i <= pos {
			t.Fatalf("field %q missing or out of order in %q", marker, lines[0])
		}
		pos = i
	}

	var ev struct {
		T        float64 `json:"t"`
		Level    string  `json:"level"`
		Event    string  `json:"event"`
		Msg      string  `json:"msg"`
		Goal     string  `json:"goal"`
		Patterns int     `json:"patterns"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("event line is not JSON: %v\n%q", err, lines[0])
	}
	if ev.T < 0 || ev.Level != "info" || ev.Event != "driver.goal.done" ||
		!strings.HasPrefix(ev.Msg, "add") || !strings.HasSuffix(ev.Msg, "3 patterns") ||
		ev.Goal != "add" || ev.Patterns != 3 {
		t.Fatalf("decoded event %+v", ev)
	}

	ev = struct {
		T        float64 `json:"t"`
		Level    string  `json:"level"`
		Event    string  `json:"event"`
		Msg      string  `json:"msg"`
		Goal     string  `json:"goal"`
		Patterns int     `json:"patterns"`
	}{}
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatalf("second line: %v", err)
	}
	if ev.Level != "error" || ev.Event != "driver.goal.quarantine" || ev.Msg != "" {
		t.Fatalf("second event %+v", ev)
	}

	// Detach: further events go nowhere.
	tr.SetEventSink(nil, LevelDebug)
	tr.Event(LevelError, "late")
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("detached sink still written: %d lines", got)
	}
}

// TestEventLinesAtomicUnderConcurrency hammers the sink from several
// goroutines: every line in the output must be a complete, valid JSON
// object (a torn line means the single-Write discipline broke).
func TestEventLinesAtomicUnderConcurrency(t *testing.T) {
	tr := New()
	var buf bytes.Buffer
	tr.SetEventSink(&buf, LevelDebug)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Eventf(LevelInfo, "hammer",
					[]Arg{Int("worker", int64(w)), Int("i", int64(i))},
					"worker %d event %d", w, i)
			}
		}(w)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != workers*per {
		t.Fatalf("got %d lines, want %d", len(lines), workers*per)
	}
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d torn or invalid: %v\n%q", i, err, ln)
		}
	}
}

// TestProgressfElapsedPrefix pins the satellite behavior: progress
// lines carry a monotonic elapsed-time prefix so interleaved
// goal-parallel output stays orderable.
func TestProgressfElapsedPrefix(t *testing.T) {
	tr := New()
	var buf bytes.Buffer
	tr.SetProgress(&buf)
	tr.Eventf(LevelInfo, "progress", nil, "first\n")
	tr.Eventf(LevelInfo, "progress", nil, "second\n")
	re := regexp.MustCompile(`^\[\+ *\d+\.\d{3}s\] `)
	lines := strings.SplitAfter(buf.String(), "\n")
	var stamps []string
	for _, ln := range lines[:2] {
		m := re.FindString(ln)
		if m == "" {
			t.Fatalf("progress line lacks elapsed prefix: %q", ln)
		}
		stamps = append(stamps, m)
	}
	if stamps[1] < stamps[0] {
		t.Fatalf("elapsed prefix not monotonic: %q then %q", stamps[0], stamps[1])
	}
}

// TestEventfMessageOnlyToProgress: an Event (no message) must not leak
// into the human progress stream.
func TestEventfMessageOnlyToProgress(t *testing.T) {
	tr := New()
	var progress, events bytes.Buffer
	tr.SetProgress(&progress)
	tr.SetEventSink(&events, LevelDebug)
	tr.Event(LevelInfo, "silent", Str("k", "v"))
	if progress.Len() != 0 {
		t.Fatalf("message-less event reached the progress writer: %q", progress.String())
	}
	if !strings.Contains(events.String(), `"event":"silent"`) {
		t.Fatalf("event missing from sink: %q", events.String())
	}
}

// TestNilTracerEvents extends the nil-safety contract to the event API.
func TestNilTracerEvents(t *testing.T) {
	var tr *Tracer
	tr.SetEventSink(&bytes.Buffer{}, LevelDebug)
	tr.Event(LevelError, "x")
	tr.Eventf(LevelError, "y", []Arg{Int("n", 1)}, "boom %d", 1)
}
