package driver

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"selgen/internal/pattern"
	"selgen/internal/target"
)

// goldenPath returns the committed quickstart library for a target
// (generated by `selgen -target <t> -setup quick` at default flags;
// regenerate with the same command after an intentional change).
func goldenPath(targetName string) string {
	return filepath.Join("..", "..", "testdata", "goldens", "quick_"+targetName+".json")
}

// ruleKey is the drift-sensitive identity of one rule: its goal, its
// costs, and the pattern's canonical fingerprint.
func ruleKey(r pattern.Rule) string {
	return fmt.Sprintf("%s goalCost=%d cost=%d canon=%s", r.Goal, r.GoalCost, r.Cost, r.Pattern.Canon())
}

func ruleKeys(lib *pattern.Library) []string {
	keys := make([]string, 0, len(lib.Rules))
	for _, r := range lib.Rules {
		keys = append(keys, ruleKey(r))
	}
	sort.Strings(keys)
	return keys
}

// TestGoldenQuickstartLibraries is the rule-set drift gate (the
// comparelibs idea as a test): the quickstart library synthesized at
// selgen's default flags must match the committed golden exactly —
// same rule count, same goals, same costs, same canonical patterns —
// for both targets. A diff here means synthesis output changed; if the
// change is intended, regenerate the goldens with
// `go run ./cmd/selgen -target <t> -setup quick -o testdata/goldens/quick_<t>.json`.
func TestGoldenQuickstartLibraries(t *testing.T) {
	for _, name := range target.Names() {
		f, err := os.Open(goldenPath(name))
		if err != nil {
			t.Fatalf("%s: missing golden (regenerate with selgen): %v", name, err)
		}
		golden, err := pattern.Load(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: loading golden: %v", name, err)
		}

		groups, err := SetupFor(name, "quick")
		if err != nil {
			t.Fatal(err)
		}
		// Exactly cmd/selgen's default flags (width 8, seed 1,
		// max-patterns 64, 5m timeout, cost-aware) so the golden can be
		// regenerated from the CLI.
		lib, _, err := Run(groups, Options{
			Target: name, Width: 8, Seed: 1,
			MaxPatternsPerGoal: 64,
			PerGoalTimeout:     5 * time.Minute,
		})
		if err != nil {
			t.Fatalf("%s: synthesis: %v", name, err)
		}

		if lib.Width != golden.Width {
			t.Errorf("%s: width drift: synthesized %d, golden %d", name, lib.Width, golden.Width)
		}
		got, want := ruleKeys(lib), ruleKeys(golden)
		if len(got) != len(want) {
			t.Errorf("%s: rule count drift: synthesized %d rules, golden has %d", name, len(got), len(want))
		}
		gotSet := map[string]bool{}
		for _, k := range got {
			gotSet[k] = true
		}
		wantSet := map[string]bool{}
		for _, k := range want {
			wantSet[k] = true
		}
		for _, k := range want {
			if !gotSet[k] {
				t.Errorf("%s: golden rule lost: %s", name, k)
			}
		}
		for _, k := range got {
			if !wantSet[k] {
				t.Errorf("%s: new rule not in golden: %s", name, k)
			}
		}
	}
}

// exhaustiveQuickSHA256 holds the sha256 of the quick library each
// target's selgen writes with -cost-aware=false, recorded when the
// ablation still ran its own size-major loops.
var exhaustiveQuickSHA256 = map[string]string{
	"x86":   "cc1b40e7dc64619d87da553bbc5f7e5a7cf315a9e907e94a1f30f94c8bf038a6",
	"riscv": "73e03ef4deb9d7a15563c28e019d628d634b7fad6cda6553478113f7bb4c0ea1",
}

// TestExhaustiveQuickstartLibraries pins the cost-awareness ablation
// (E8) byte for byte: its walk visits the multisets in size order,
// stops at the first size that yields rules and skips nothing as
// dominated, so it must keep writing the libraries the size-major
// search wrote.
func TestExhaustiveQuickstartLibraries(t *testing.T) {
	for _, name := range target.Names() {
		want, ok := exhaustiveQuickSHA256[name]
		if !ok {
			t.Errorf("%s: no pinned hash", name)
			continue
		}
		groups, err := SetupFor(name, "quick")
		if err != nil {
			t.Fatal(err)
		}
		// cmd/selgen's default flags with -cost-aware=false.
		lib, _, err := Run(groups, Options{
			Target: name, Width: 8, Seed: 1,
			MaxPatternsPerGoal: 64,
			PerGoalTimeout:     5 * time.Minute,
			DisableCostAware:   true,
		})
		if err != nil {
			t.Fatalf("%s: synthesis: %v", name, err)
		}
		var buf bytes.Buffer
		if err := lib.Save(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: exhaustive quick library sha256 %s, want %s (%d rules)", name, got, want, len(lib.Rules))
		}
	}
}
