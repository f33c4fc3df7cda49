// FuzzJournalScan drives byte-mutated journal images through the
// scanner. The journal is the farm's only durable state, so the scanner
// is the one parser that must hold up against arbitrary disk contents:
// it may reject an image, but it must never panic, and what it salvages
// must be stable — truncating the reported torn tail and re-scanning
// yields exactly the same recovery (idempotence), and scanning any
// byte-prefix of an accepted journal yields a prefix of its goals
// (monotonicity: losing trailing bytes only ever loses trailing
// records, never corrupts or reorders earlier ones).

package journal

import (
	"hash/fnv"
	"maps"
	"testing"
)

// fuzzHeader is the want-header every fuzz scan validates against. The
// seed corpus encodes journals written for it, so mutations explore
// both the accept path and every mismatch error.
var fuzzHeader = Header{Version: Version, Setup: "quick", Width: 8, ConfigHash: "abc123"}

func FuzzJournalScan(f *testing.F) {
	// Seeds mirror testdata/fuzz/FuzzJournalScan: a clean journal, a
	// torn tail, a duplicate goal (refused), goal-before-header, raw
	// garbage, and lease grants. Both sets feed the same generator; the
	// checked-in corpus keeps the interesting shapes under version
	// control.
	hdr := `{"kind":"header","header":{"version":1,"setup":"quick","width":8,"configHash":"abc123"}}`
	goal := func(i byte) string {
		return `{"kind":"goal","goal":{"group":"Quick","index":` + string('0'+i) + `,"goal":"g","status":"ok","minLen":1}}`
	}
	lease := `{"kind":"lease","lease":{"key":"Quick/0/g","attempt":2}}`
	f.Add([]byte(hdr + "\n" + goal(0) + "\n" + goal(1) + "\n"))
	f.Add([]byte(hdr + "\n" + goal(0) + "\n" + goal(1)[:20]))
	f.Add([]byte(hdr + "\n" + goal(0) + "\n" + goal(0) + "\n"))
	f.Add([]byte(goal(0) + "\n" + hdr + "\n"))
	f.Add([]byte("not json at all\n\x00\xff{"))
	f.Add([]byte(hdr + "\n" + lease + "\n" + goal(0) + "\n" + lease[:25]))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := scanData(data, fuzzHeader)
		if err != nil {
			return // rejected is fine; panicking or lying is not
		}
		if rec.TruncatedBytes < 0 || rec.TruncatedBytes > len(data) {
			t.Fatalf("torn tail of %d bytes reported for a %d-byte image", rec.TruncatedBytes, len(data))
		}

		// Idempotence: dropping the reported torn tail leaves a journal
		// the scanner accepts verbatim, with nothing further to truncate.
		trimmed := data[:len(data)-rec.TruncatedBytes]
		again, err := scanData(trimmed, fuzzHeader)
		if err != nil {
			t.Fatalf("re-scan after torn-tail truncation failed: %v", err)
		}
		if again.TruncatedBytes != 0 {
			t.Fatalf("truncation not idempotent: second scan wants %d more bytes gone", again.TruncatedBytes)
		}
		if !equalGoals(rec.Goals, again.Goals) || again.Header != rec.Header || !maps.Equal(rec.Attempts, again.Attempts) {
			t.Fatalf("truncation changed the recovery: %d goals then %d", len(rec.Goals), len(again.Goals))
		}

		// Monotonicity: a byte-prefix (any crash point) of an accepted
		// journal recovers a prefix of its goals. The cut position is
		// derived from the data so the corpus explores cuts without a
		// second fuzz argument.
		if len(trimmed) > 0 {
			h := fnv.New64a()
			h.Write(data)
			cut := int(h.Sum64() % uint64(len(trimmed)+1))
			pre, err := scanData(trimmed[:cut], fuzzHeader)
			if err != nil {
				t.Fatalf("prefix scan of an accepted journal failed at cut %d: %v", cut, err)
			}
			if len(pre.Goals) > len(rec.Goals) {
				t.Fatalf("prefix recovered more goals (%d) than the whole (%d)", len(pre.Goals), len(rec.Goals))
			}
			if !equalGoals(pre.Goals, rec.Goals[:len(pre.Goals)]) {
				t.Fatalf("prefix recovery is not a prefix of the full recovery at cut %d", cut)
			}
			for key, n := range pre.Attempts {
				if n > rec.Attempts[key] {
					t.Fatalf("prefix recovered attempt %d for %s, the whole only %d", n, key, rec.Attempts[key])
				}
			}
		}
	})
}

// equalGoals compares recovered goal slices by key and status — the
// fields the driver keys replay on (patterns ride along unchanged in
// both scans of identical bytes).
func equalGoals(a, b []GoalRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key() != b[i].Key() || a[i].Status != b[i].Status {
			return false
		}
	}
	return true
}

// TestScanFuzzSeedsDirect re-runs the checked-in corpus shapes through
// the scanner with explicit expectations, so a corpus regression is a
// readable test failure rather than only a fuzz finding.
func TestScanFuzzSeedsDirect(t *testing.T) {
	hdr := `{"kind":"header","header":{"version":1,"setup":"quick","width":8,"configHash":"abc123"}}`
	goal := `{"kind":"goal","goal":{"group":"Quick","index":0,"goal":"g","status":"ok","minLen":1}}`
	lease := `{"kind":"lease","lease":{"key":"Quick/0/g","attempt":1}}`
	for _, tc := range []struct {
		name  string
		data  string
		goals int
		torn  bool
		fails bool
	}{
		{"clean", hdr + "\n" + goal + "\n", 1, false, false},
		{"torn tail", hdr + "\n" + goal + "\n" + goal[:30], 1, true, false},
		{"duplicate refused", hdr + "\n" + goal + "\n" + goal + "\n", 0, false, true},
		{"goal before header", goal + "\n" + hdr + "\n", 0, false, true},
		{"lease", hdr + "\n" + lease + "\n" + goal + "\n", 1, false, false},
		{"lease before header", lease + "\n" + hdr + "\n", 0, false, true},
		{"corrupt mid-file", hdr + "\n{broken\n" + goal + "\n", 0, false, true},
	} {
		rec, err := scanData([]byte(tc.data), fuzzHeader)
		if tc.fails {
			if err == nil {
				t.Errorf("%s: want error, got %+v", tc.name, rec)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if len(rec.Goals) != tc.goals || (rec.TruncatedBytes > 0) != tc.torn {
			t.Errorf("%s: recovered %d goals, %d torn bytes", tc.name, len(rec.Goals), rec.TruncatedBytes)
		}
	}
}
