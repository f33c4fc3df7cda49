package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"selgen/internal/driver"
	"selgen/internal/failpoint"
	"selgen/internal/obs"
)

// TestWritePrometheusGolden pins the exposition format byte-for-byte:
// sorted counters with the _total suffix, gauges, and histograms as
// count/sum/quantile summaries, every family preceded by its # TYPE
// line.
func TestWritePrometheusGolden(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("cegis.synth_queries").Add(12)
	reg.Counter("cegis.verify_queries").Add(5)
	reg.Gauge("runtime.goroutines").Set(9)
	h := reg.Histogram("synth.us")
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)

	var buf bytes.Buffer
	WritePrometheus(&buf, reg.Snapshot())
	want := `# TYPE selgen_cegis_synth_queries_total counter
selgen_cegis_synth_queries_total 12
# TYPE selgen_cegis_verify_queries_total counter
selgen_cegis_verify_queries_total 5
# TYPE selgen_runtime_goroutines gauge
selgen_runtime_goroutines 9
# TYPE selgen_synth_us summary
selgen_synth_us{quantile="0.5"} 3
selgen_synth_us{quantile="0.9"} 3
selgen_synth_us{quantile="0.99"} 3
selgen_synth_us_sum 6
selgen_synth_us_count 3
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"cegis.synth_queries": "selgen_cegis_synth_queries",
		"runtime.goroutines":  "selgen_runtime_goroutines",
		"a-b.c/d":             "selgen_a_b_c_d",
		"p99":                 "selgen_p99",
	} {
		if got := promName(in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestServerEndpoints exercises every route of a live server against a
// metrics-only tracer (no run state attached).
func TestServerEndpoints(t *testing.T) {
	tr := obs.New()
	tr.Add("cegis.synth_queries", 3)
	s, err := Start("127.0.0.1:0", tr, nil)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer s.Close()

	code, ctype, body := get(t, s.URL()+"/metrics")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics: %d %q", code, ctype)
	}
	for _, want := range []string{
		"# TYPE selgen_cegis_synth_queries_total counter",
		"selgen_cegis_synth_queries_total 3",
		"# TYPE selgen_runtime_goroutines gauge",
		"selgen_runtime_heap_alloc_bytes",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, ctype, body = get(t, s.URL()+"/goals")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/goals: %d %q", code, ctype)
	}
	var snap driver.RunSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/goals not JSON: %v\n%s", err, body)
	}
	if len(snap.Goals) != 0 {
		t.Fatalf("stateless /goals reports goals: %+v", snap)
	}

	code, ctype, body = get(t, s.URL()+"/goals?format=html")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "text/html") || !strings.Contains(body, "<table") {
		t.Fatalf("/goals?format=html: %d %q\n%s", code, ctype, body)
	}

	if code, _, body = get(t, s.URL()+"/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: %d\n%s", code, body)
	}
	if code, _, _ = get(t, s.URL()+"/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/: %d", code)
	}
	if code, _, _ = get(t, s.URL()+"/nonesuch"); code != http.StatusNotFound {
		t.Fatalf("unknown path: %d, want 404", code)
	}
}

// TestStartFailsFast: a bad address errors at Start, not midway
// through a run.
func TestStartFailsFast(t *testing.T) {
	if _, err := Start("127.0.0.1:notaport", obs.New(), nil); err == nil {
		t.Fatalf("Start on a bad address must fail")
	}
}

// TestGoalsReflectsFaultInjectedRun is the end-to-end /goals contract:
// a run with an injected panic in one goal serves, live, every goal
// registered up front and finishes with exactly that goal
// quarantined — error text, attempt count, and the status rollup all
// visible to a scraper.
func TestGoalsReflectsFaultInjectedRun(t *testing.T) {
	faults, err := failpoint.Parse("driver.goal.panic=hit:2", 1)
	if err != nil {
		t.Fatalf("failpoint.Parse: %v", err)
	}
	tr := obs.New()
	state := driver.NewRunState()
	s, err := Start("127.0.0.1:0", tr, state)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer s.Close()

	groups := driver.QuickSetup()
	opts := driver.Options{
		Width: 8, Seed: 1, MaxPatternsPerGoal: 16,
		PerGoalTimeout: 90 * time.Second,
		Obs:            tr, Faults: faults, State: state,
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := driver.Run(groups, opts)
		done <- err
	}()

	// Scrape while the run is in flight: all goals are registered up
	// front, so the first snapshot with any goals at all must show the
	// full table, with non-terminal statuses while work remains.
	sawLive := false
	for !sawLive {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			done <- nil // put completion back for the wait below
			t.Logf("run finished before a mid-run scrape landed (fast machine); final-state checks still apply")
			sawLive = true
		default:
			_, _, body := get(t, s.URL()+"/goals")
			var snap driver.RunSnapshot
			if err := json.Unmarshal([]byte(body), &snap); err != nil {
				t.Fatalf("/goals mid-run: %v", err)
			}
			if len(snap.Goals) > 0 {
				if len(snap.Goals) != len(groups[0].Goals) {
					t.Fatalf("mid-run scrape shows %d goals, want all %d registered up front",
						len(snap.Goals), len(groups[0].Goals))
				}
				if snap.Counts["pending"]+snap.Counts["running"] > 0 {
					sawLive = true
				}
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}

	_, _, body := get(t, s.URL()+"/goals")
	var snap driver.RunSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/goals: %v\n%s", err, body)
	}
	// hit:2 fires on the second attempt; sequential execution makes
	// that the group's second goal (same victim as the driver's own
	// quarantine test).
	victim := groups[0].Goals[1].Name
	if snap.Counts["quarantined"] != 1 || snap.Counts["ok"] != len(groups[0].Goals)-1 {
		t.Fatalf("status rollup %v, want 1 quarantined and %d ok", snap.Counts, len(groups[0].Goals)-1)
	}
	for _, g := range snap.Goals {
		switch g.Goal {
		case victim:
			if g.Status != "quarantined" || g.Error == "" || g.Attempts < 1 {
				t.Fatalf("victim row %+v", g)
			}
		default:
			if g.Status != "ok" || g.Patterns == 0 || g.Error != "" {
				t.Fatalf("healthy goal row %+v", g)
			}
		}
	}
	if snap.ElapsedMS < 0 {
		t.Fatalf("negative run elapsed: %d", snap.ElapsedMS)
	}

	// The same run is visible on /metrics: the quarantine counter the
	// driver bumps rides the exposition.
	_, _, metrics := get(t, s.URL()+"/metrics")
	if !strings.Contains(metrics, "selgen_driver_quarantine_total 1") {
		t.Fatalf("/metrics missing the quarantine counter:\n%s", metrics)
	}
}

// TestServerCloseSettles: repeated start/scrape/close cycles leave no
// goroutines behind.
func TestServerCloseSettles(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 4; round++ {
		s, err := Start("127.0.0.1:0", obs.New(), driver.NewRunState())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		get(t, s.URL()+"/metrics")
		get(t, s.URL()+"/goals")
		if err := s.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
	}
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+2 {
			return // settled (slack for runtime-internal goroutines)
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d now vs %d at start", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
