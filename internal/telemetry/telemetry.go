// Package telemetry is the live status server for synthesis runs: an
// opt-in HTTP endpoint (`selgen -status :6060`) that makes a running —
// or hung — multi-hour library synthesis observable while it is alive,
// instead of only post-mortem through exit-time reports and traces.
//
// Endpoints:
//
//   - /metrics — Prometheus text-format exposition (version 0.0.4) of
//     the live obs.Registry: counters as monotonic counters, gauges as
//     gauges, histograms as count/sum/quantile summaries, plus
//     goroutine/heap/GC runtime gauges sampled into the registry at
//     scrape time. The synthesis farm's coordinator scrapes it from
//     each worker as a liveness heartbeat.
//   - /goals — the driver's per-goal live run state (driver.RunState)
//     as JSON, or a minimal HTML table for browsers (?format=html or
//     an Accept header preferring text/html). A stuck goal is visible
//     while it is stuck: status "running", a growing elapsed_ms, and a
//     stalled counterexample count.
//   - /debug/pprof/* — net/http/pprof profiles on the same listener.
//
// The server binds eagerly (Start fails fast on a bad address) and
// shuts down gracefully (Close waits for in-flight scrapes). When no
// status server is configured nothing here runs: the driver's
// telemetry hooks are nil-safe no-ops, preserving the zero-cost path.
package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"html"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strings"
	"time"

	"selgen/internal/driver"
	"selgen/internal/obs"
)

// Server is a running status server. Create with Start; stop with
// Close.
type Server struct {
	ln    net.Listener
	srv   *http.Server
	reg   *obs.Registry
	state *driver.RunState
	done  chan struct{}
}

// Start listens on addr (host:port; port 0 picks a free port) and
// serves the tracer's registry and, when state is non-nil, the
// driver's live goal table. It returns once the listener is bound, so
// a bad address fails the run up front rather than midway.
func Start(addr string, tr *obs.Tracer, state *driver.RunState) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{
		ln:    ln,
		reg:   tr.Metrics(),
		state: state,
		done:  make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/goals", s.handleGoals)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go func() {
		defer close(s.done)
		// Serve returns ErrServerClosed on graceful shutdown; any other
		// error means the listener died under us, which Close surfaces
		// by the server simply being gone (scrapes fail loudly).
		s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string {
	host := s.Addr()
	// A wildcard-host listener ("[::]:6060") is reachable via loopback.
	if h, p, err := net.SplitHostPort(host); err == nil {
		if ip := net.ParseIP(h); h == "" || (ip != nil && ip.IsUnspecified()) {
			host = net.JoinHostPort("127.0.0.1", p)
		}
	}
	return "http://" + host
}

// Close shuts the server down gracefully, waiting up to five seconds
// for in-flight requests, and leaves no goroutines behind.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}

// handleIndex serves a minimal landing page linking the endpoints.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<!DOCTYPE html><title>selgen telemetry</title>
<h1>selgen telemetry</h1>
<ul>
<li><a href="/metrics">/metrics</a> — Prometheus exposition</li>
<li><a href="/goals?format=html">/goals</a> — live per-goal run state (JSON by default)</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — profiles</li>
</ul>
`)
}

// handleMetrics samples the runtime gauges into the registry, then
// writes a consistent snapshot in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sampleRuntime(s.reg)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePrometheus(w, s.reg.Snapshot())
}

// sampleRuntime records process-level levels as registry gauges, so
// they ride the same snapshot/exposition path as the solver metrics.
func sampleRuntime(reg *obs.Registry) {
	if reg == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	reg.Gauge("runtime.goroutines").Set(int64(runtime.NumGoroutine()))
	reg.Gauge("runtime.heap_alloc_bytes").Set(int64(ms.HeapAlloc))
	reg.Gauge("runtime.heap_sys_bytes").Set(int64(ms.HeapSys))
	reg.Gauge("runtime.heap_objects").Set(int64(ms.HeapObjects))
	reg.Gauge("runtime.gc_cycles").Set(int64(ms.NumGC))
	reg.Gauge("runtime.gc_pause_total_ns").Set(int64(ms.PauseTotalNs))
}

// handleGoals serves the live goal table: JSON for machines, a
// minimal HTML table for browsers.
func (s *Server) handleGoals(w http.ResponseWriter, r *http.Request) {
	var snap driver.RunSnapshot
	if s.state != nil {
		snap = s.state.Snapshot()
	} else {
		snap.Counts = map[string]int{}
	}
	if wantsHTML(r) {
		writeGoalsHTML(w, snap)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap)
}

func wantsHTML(r *http.Request) bool {
	if r.URL.Query().Get("format") == "html" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/html") &&
		!strings.Contains(accept, "application/json")
}

func writeGoalsHTML(w http.ResponseWriter, snap driver.RunSnapshot) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, "<!DOCTYPE html><title>selgen goals</title>\n<h1>goals</h1>\n<p>run elapsed %s · ", time.Duration(snap.ElapsedMS)*time.Millisecond)
	statuses := make([]string, 0, len(snap.Counts))
	for st := range snap.Counts {
		statuses = append(statuses, st)
	}
	sort.Strings(statuses)
	parts := make([]string, 0, len(statuses))
	for _, st := range statuses {
		parts = append(parts, fmt.Sprintf("%s %d", html.EscapeString(st), snap.Counts[st]))
	}
	fmt.Fprintf(w, "%s</p>\n", strings.Join(parts, " · "))
	fmt.Fprint(w, "<table border=1 cellpadding=4>\n<tr><th>group</th><th>goal</th><th>status</th><th>rung</th><th>attempts</th><th>patterns</th><th>cex</th><th>multisets</th><th>elapsed</th><th>error</th></tr>\n")
	for _, g := range snap.Goals {
		fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%s</td><td>%s</td></tr>\n",
			html.EscapeString(g.Group), html.EscapeString(g.Goal),
			html.EscapeString(g.Status), g.Rung, g.Attempts, g.Patterns,
			g.Counterexamples, g.Multisets,
			time.Duration(g.ElapsedMS)*time.Millisecond,
			html.EscapeString(g.Error))
	}
	fmt.Fprint(w, "</table>\n")
}
