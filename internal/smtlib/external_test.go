package smtlib

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"selgen/internal/bv"
)

// corpusDir holds the committed QF_BV scripts; each filename ends in
// _<verdict>.smt2 encoding the expected check-sat verdict.
const corpusDir = "../../testdata/smtlib"

func corpusFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.smt2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no .smt2 scripts in %s", corpusDir)
	}
	return files
}

// expectedVerdict decodes the verdict baked into the filename
// (demorgan_unsat.smt2 → "unsat").
func expectedVerdict(t *testing.T, path string) string {
	t.Helper()
	base := strings.TrimSuffix(filepath.Base(path), ".smt2")
	i := strings.LastIndex(base, "_")
	if i < 0 {
		t.Fatalf("%s: corpus filenames must end in _sat or _unsat", path)
	}
	v := base[i+1:]
	if v != "sat" && v != "unsat" {
		t.Fatalf("%s: unknown expected verdict %q", path, v)
	}
	return v
}

// runScript executes one corpus script and returns the script context
// (for model extraction) and the check-sat verdict lines in order.
func runScript(t *testing.T, src string) (*Script, []string) {
	t.Helper()
	s := NewScript()
	var out strings.Builder
	if err := s.Run(src, &out); err != nil {
		t.Fatalf("running script: %v", err)
	}
	var verdicts []string
	for _, line := range strings.Split(out.String(), "\n") {
		switch line {
		case "sat", "unsat", "unknown":
			verdicts = append(verdicts, line)
		}
	}
	return s, verdicts
}

// checkModel re-parses every assert in src and evaluates it under the
// model the solver produced: a sat verdict must come with a model that
// actually satisfies the script.
func checkModel(t *testing.T, s *Script, src string) {
	t.Helper()
	m := s.modelOfDeclared()
	cmds, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cmds {
		if c.IsAtom() || len(c.List) != 2 || c.List[0].Atom != "assert" {
			continue
		}
		// The script's Env already binds every declared symbol and
		// define-fun, so the assert re-parses in place.
		term, err := ParseTerm(s.B, s.Env, c.List[1])
		if err != nil {
			t.Fatalf("re-parsing assert: %v", err)
		}
		if bv.Eval(term, m) != 1 {
			t.Errorf("model %v does not satisfy %s", m, c.List[1].String())
		}
	}
}

// TestExternalCorpusVerdicts runs every committed QF_BV script through
// the SMT-LIB front end as an external oracle: the check-sat verdict
// must match the one baked into the filename, and every sat verdict's
// model must satisfy the script's asserts.
func TestExternalCorpusVerdicts(t *testing.T) {
	for _, path := range corpusFiles(t) {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := expectedVerdict(t, path)
			s, verdicts := runScript(t, string(src))
			if len(verdicts) == 0 {
				t.Fatal("script produced no check-sat verdict")
			}
			for _, v := range verdicts {
				if v != want {
					t.Fatalf("verdict %q, filename promises %q", v, want)
				}
			}
			if want == "sat" {
				checkModel(t, s, string(src))
			}
		})
	}
}
