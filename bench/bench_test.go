package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"

	"selgen/internal/driver"
	"selgen/internal/pattern"
	"selgen/internal/target"
)

// benchmarkFile is the part of BENCHMARK.json the harness must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []listedMetric `json:"end_to_end"`
	PerLayer []listedMetric `json:"per_layer"`
}

type listedMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

func TestWorkloadSetMatchesBenchmarkJSON(t *testing.T) {
	var names []string
	for _, w := range readBenchmarkFile(t).Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if got := workloadNames(); !slices.Equal(got, names) {
		t.Fatalf("harness workloads %v, BENCHMARK.json %v", got, names)
	}
}

// buildSelgen builds the farm worker binary into a test directory.
func buildSelgen(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "selgen")
	out, err := exec.Command("go", "build", "-o", bin, "selgen/cmd/selgen").CombinedOutput()
	if err != nil {
		t.Fatalf("building selgen: %v\n%s", err, out)
	}
	return bin
}

// TestWorkloads runs every workload for one iteration and checks what a
// run emits: exactly BENCHMARK.json's metric names and units, positive
// end-to-end values, and a time ledger whose rows are non-negative, sum
// to the synthesis time and leave driver.self_s at most 10% of it.
func TestWorkloads(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			if (name == "e2-unary" || name == "farm-basic") && (testing.Short() || raceEnabled) {
				t.Skip("long workload; skipped under -short and -race")
			}
			cfg := config{workload: name, seed: 1, minIters: 1, root: "..", work: t.TempDir()}
			if name == "farm-basic" {
				cfg.selgen = buildSelgen(t)
			}
			b, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if b.attempted < 1 || b.failed != 0 {
				t.Errorf("attempted %d, failed %d", b.attempted, b.failed)
			}

			e2e, err := b.result(endToEnd)
			if err != nil {
				t.Fatal(err)
			}
			layer, err := b.result(perLayer)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				res  resultLine
				want []listedMetric
			}{{e2e, bf.EndToEnd}, {layer, bf.PerLayer}} {
				if len(c.res.Metrics) != len(c.want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(c.res.Metrics), len(c.want))
				}
				for _, m := range c.want {
					got, ok := c.res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: emitted %+v (present %t), BENCHMARK.json unit %q", m.Name, got, ok, m.Unit)
					}
				}
			}
			for name, m := range e2e.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}

			synthesizes := name == "quick" || name == "e2-basic" || name == "e2-unary"
			if synthesizes && len(b.ledger) == 0 {
				t.Error("no ledger rows")
			}
			for _, r := range b.ledger {
				sum := 0.0
				for _, v := range []float64{r.SelfS, r.EnumerateS, r.EncodeS, r.SynthCheckS, r.VerifyS} {
					if v < 0 {
						t.Errorf("negative ledger row in %+v", r)
					}
					sum += v
				}
				if math.Abs(sum-r.SynthS) > 0.01*r.SynthS {
					t.Errorf("ledger rows sum to %v, synth_s is %v", sum, r.SynthS)
				}
				if r.SelfS > 0.10*r.SynthS {
					t.Errorf("driver.self_s %v is over 10%% of synth_s %v", r.SelfS, r.SynthS)
				}
			}
		})
	}
}

// TestTracedRun checks a traced run: per-layer metrics and a Chrome
// trace holding the harness's spans.
func TestTracedRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	b, err := run(config{workload: "quick", seed: 1, minIters: 1, traced: true, traceOut: out, root: "..", work: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.result(perLayer); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace: %v", err)
	}
	seen := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		seen[ev.Name] = true
	}
	for _, name := range []string{"bench.iteration", "bench.driver_run", "bench.check", "bench.compile", "bench.select_pass", "goal", "multiset"} {
		if !seen[name] {
			t.Errorf("trace has no %s span", name)
		}
	}
}

// TestCorruptedLibraryFailsChecks feeds each correctness gate a library
// with every sub rule relabelled as add: Sub nodes then select an add.
func TestCorruptedLibraryFailsChecks(t *testing.T) {
	fixture := filepath.Join("testdata", "basic_x86.json")
	lib, err := loadLibrary(fixture)
	if err != nil {
		t.Fatal(err)
	}
	bad := &pattern.Library{Width: lib.Width}
	for _, r := range lib.Rules {
		if r.Goal == "sub" {
			r.Goal = "add"
		}
		bad.Add(r)
	}
	b := &bench{cfg: config{seed: 1}, samples: map[string][]float64{}}
	s, err := newSuite(b)
	if err != nil {
		t.Fatal(err)
	}
	x86 := target.X86()

	if _, err := checkSelection(x86.NewSelector(lib, true), s); err != nil {
		t.Fatalf("fixture fails the execution check: %v", err)
	}
	if _, err := checkSelection(x86.NewSelector(bad, true), s); err == nil {
		t.Error("corrupted library passed the execution check")
	}
	good, corrupt := libraryBytes(lib), libraryBytes(bad)
	if err := checkGolden(good, fixture); err != nil {
		t.Errorf("fixture differs from itself: %v", err)
	}
	if err := checkGolden(corrupt, fixture); err == nil {
		t.Error("corrupted library passed the golden comparison")
	}
	if err := sameLibrary(good, corrupt, "x86"); err == nil {
		t.Error("corrupted library passed the byte-identity check")
	}
}

// TestSelectedCyclesMatchSelectionCheck pins selected_cycles to
// driver.SelectionCheck's mean cycles per graph on the same library.
func TestSelectedCyclesMatchSelectionCheck(t *testing.T) {
	lib, err := loadLibrary(filepath.Join("testdata", "basic_x86.json"))
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{cfg: config{seed: 7}, samples: map[string][]float64{}}
	s, err := newSuite(b)
	if err != nil {
		t.Fatal(err)
	}
	tot, err := checkSelection(target.X86().NewSelector(lib, true), s)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := driver.SelectionCheck(lib, target.X86(), width, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tot.meanCycles(), rep.MeanCycles(); got != want {
		t.Errorf("selected_cycles %v, driver.SelectionCheck %v", got, want)
	}
	if got, want := tot.cov, rep.Coverage; got != want {
		t.Errorf("coverage %+v, driver.SelectionCheck %+v", got, want)
	}
}
