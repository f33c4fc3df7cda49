// The leveled structured event log: Eventf turns the tracer's ad-hoc
// progress lines into tagged events that fan out to three sinks at
// once — a JSONL event sink (`selgen -events`), the human progress
// writer (with a monotonic elapsed-time prefix so interleaved
// goal-parallel output stays orderable), and the Chrome trace (as an
// instant event). Every event carries a level, a dotted name, and
// typed tags (goal, phase, rung, …), so a multi-hour run can be
// filtered and joined offline where grep over free-form progress text
// cannot.

package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level orders event severities. Events below a sink's minimum level
// are not written to it.
type Level int

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// ParseLevel parses a level name as written by Level.String.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown level %q (want debug, info, warn, or error)", s)
}

// eventSink is the JSONL destination attached with SetEventSink.
// Its own mutex (not the Tracer's) serializes line writes, so event
// logging never contends with trace-event collection.
type eventSink struct {
	mu  sync.Mutex
	w   io.Writer
	min Level
}

// SetEventSink attaches a JSONL event sink receiving every event at
// or above min. Each event is one JSON object on one line, written
// with a single Write call. Pass nil to detach.
func (t *Tracer) SetEventSink(w io.Writer, min Level) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if w == nil {
		t.events2 = nil
	} else {
		t.events2 = &eventSink{w: w, min: min}
	}
	t.mu.Unlock()
}

// Event records a structured event with no human-readable message: it
// reaches the JSONL sink and the trace, but not the progress writer.
func (t *Tracer) Event(level Level, name string, tags ...Arg) {
	t.Eventf(level, name, tags, "")
}

// Eventf records a structured event with a human-readable message.
// The tags plus the formatted message go to the JSONL sink as one
// line; the message alone (prefixed with the run's monotonic elapsed
// time) goes to the progress writer; and, when tracing is enabled, an
// instant trace event is recorded. A nil Tracer no-ops.
func (t *Tracer) Eventf(level Level, name string, tags []Arg, format string, a ...any) {
	if t == nil {
		return
	}
	msg := ""
	if format != "" {
		msg = fmt.Sprintf(format, a...)
	}
	t.mu.Lock()
	sink := t.events2
	progress := t.progress
	t.mu.Unlock()
	elapsed := time.Since(t.epoch)

	if sink != nil && level >= sink.min {
		line := encodeEvent(elapsed, level, name, msg, tags)
		t.reg.Counter("obs.events").Add(1)
		sink.mu.Lock()
		sink.w.Write(line)
		sink.mu.Unlock()
	}
	if progress != nil && msg != "" {
		io.WriteString(progress, fmt.Sprintf("[+%9.3fs] %s", elapsed.Seconds(), msg))
	}
	if t.trace.Load() {
		args := make([]Arg, 0, len(tags)+2)
		args = append(args, Str("level", level.String()))
		if msg != "" {
			args = append(args, Str("message", strings.TrimSpace(msg)))
		}
		args = append(args, tags...)
		t.Instant(0, name, args...)
	}
}

// encodeEvent renders one JSONL event line with a deterministic field
// order: t (seconds since the tracer epoch), level, event, msg (when
// non-empty), then the tags in call order. Tag keys that collide with
// the fixed fields are emitted anyway (later keys win in readers that
// object, but no information is dropped).
func encodeEvent(elapsed time.Duration, level Level, name, msg string, tags []Arg) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"t":%.6f,"level":%s,"event":%s`,
		elapsed.Seconds(), jsonString(level.String()), jsonString(name))
	if msg != "" {
		fmt.Fprintf(&b, `,"msg":%s`, jsonString(strings.TrimSpace(msg)))
	}
	for _, tag := range tags {
		b.WriteByte(',')
		b.Write(jsonString(tag.Key))
		b.WriteByte(':')
		if tag.isNum {
			fmt.Fprintf(&b, "%d", tag.num)
		} else {
			b.Write(jsonString(tag.str))
		}
	}
	b.WriteString("}\n")
	return b.Bytes()
}

// jsonString marshals s as a JSON string. Marshal of a string cannot
// fail; the error is ignored by construction.
func jsonString(s string) []byte {
	out, _ := json.Marshal(s)
	return out
}
