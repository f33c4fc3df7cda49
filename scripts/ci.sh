#!/bin/sh
# ci.sh: the repo's tier-1 gate — build, vet, gofmt, and race-enabled
# tests.
# Run from the repository root:
#
#   ./scripts/ci.sh
#
# The driver tests synthesize small libraries and take a minute or two;
# pass extra `go test` arguments (e.g. -short, -run) after --.
set -eu
cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# gofmt gate: every git-tracked Go file must be gofmt-clean.
unformatted="$(git ls-files -z '*.go' | xargs -0 gofmt -l)"
if [ -n "$unformatted" ]; then
	echo "ci.sh: gofmt -l lists files that need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi
# Fail-fast race pass over the solver stack and the selector: the
# driver runs goals on parallel goroutines that share one tracer and
# fault registry, the isel tests drive one compiled Selector from
# several goroutines, and the farm coordinates worker goroutines over
# HTTP — so these packages are where a data race would surface first
# (obs joins them: the telemetry scraper snapshots the registry while
# synthesis goroutines write it). The driver's synthesis tests
# run well past go test's default 10m timeout under the race detector,
# so this pass needs the same widened timeout as the full suite below.
go test -race -timeout 60m ./internal/sat ./internal/smt ./internal/cegis ./internal/driver \
	./internal/isel ./internal/pattern ./internal/obs ./internal/telemetry \
	./internal/riscv ./internal/target ./internal/farm
# the driver tests synthesize libraries and run well past go test's
# default 10m timeout under the race detector (their per-goal deadlines
# scale up under race too; see internal/driver scaledTimeout)
go test -race -timeout 60m "$@" ./...
# Four tests skip under the race detector: two count allocations
# (TestSelectAllocs, TestWarmEncodingAllocs) and two synthesize past
# the race pass's budget (TestDifferentialSynthesizedLibraries,
# TestCostAwareCoverageMatchesExhaustive). Run them once without it.
go test -run '^(TestSelectAllocs|TestDifferentialSynthesizedLibraries|TestCostAwareCoverageMatchesExhaustive|TestWarmEncodingAllocs)$' \
	./internal/driver ./internal/cegis

# Bounded fuzz pass over the SMT facade: fresh random QF_BV predicates
# (constant-fed muxes and bindable equations among them) checked
# against exhaustive evaluation, beyond the checked-in corpus the run
# above replays.
go test -run '^$' -fuzz '^FuzzCheck$' -fuzztime 15s ./internal/smt

# The re-measuring benchmark is a module of its own, so ./... above
# does not reach its smoke test (every short workload, one iteration).
(cd bench && go test -short ./...)

# Selection smoke: one iteration of the library-size scaling benchmark
# must run clean, and a Table 1 run per target over its committed
# quickstart golden must select code that agrees with the IR
# interpreter on every graph (iselbench exits 1 otherwise).
go test -run '^$' -bench SelectLibrarySize -benchtime 1x ./internal/isel
go run ./cmd/iselbench -basic testdata/goldens/quick_x86.json \
	-full testdata/goldens/quick_x86.json >/dev/null
go run ./cmd/iselbench -target riscv -basic testdata/goldens/quick_riscv.json \
	-full testdata/goldens/quick_riscv.json >/dev/null

# -trace smoke test: a quick-setup run must emit a well-formed Chrome
# trace (parses, has goal/multiset/synth/verify spans, spans nest).
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
go run ./cmd/selgen -setup quick -timeout 2m \
	-o "$tmpdir/quick.json" -trace "$tmpdir/trace.json" >/dev/null
go run scripts/validatetrace.go "$tmpdir/trace.json"

# Options outside their range are usage errors (exit 2) before any goal
# starts: -sat-workers is a compatibility stub (the SAT search is
# sequential, so more than one worker is refused), and the retry-ladder
# depth cannot be negative.
go build -o "$tmpdir/selgen" ./cmd/selgen
for flags in "-sat-workers 2" "-max-retries -1"; do
	rc=0
	# $flags stays unquoted: it is a flag and its value.
	"$tmpdir/selgen" -setup quick $flags -o "$tmpdir/stub.json" >/dev/null 2>&1 || rc=$?
	if [ "$rc" -ne 2 ]; then
		echo "ci.sh: selgen $flags exited $rc, want 2" >&2
		exit 1
	fi
done

# Kill-and-resume smoke test: SIGKILL selgen mid-run (the journal.kill
# failpoint delivers an uncatchable kill right after the 2nd goal
# record is fsync'd — deterministic, unlike timing an external kill -9
# against a ~100ms run), then resume from the journal. The resumed
# library must be byte-identical to an uninterrupted run's.
if "$tmpdir/selgen" -setup quick -timeout 2m -journal "$tmpdir/kill.journal" \
	-o "$tmpdir/killed.json" -faults journal.kill=hit:2 >/dev/null 2>&1; then
	echo "ci.sh: journal.kill failpoint did not kill the run" >&2
	exit 1
fi
"$tmpdir/selgen" -setup quick -timeout 2m -resume "$tmpdir/kill.journal" \
	-o "$tmpdir/resumed.json" >/dev/null
"$tmpdir/selgen" -setup quick -timeout 2m \
	-o "$tmpdir/uninterrupted.json" >/dev/null
cmp "$tmpdir/resumed.json" "$tmpdir/uninterrupted.json" || {
	echo "ci.sh: resumed library differs from the uninterrupted run" >&2
	exit 1
}

# Farm smoke test: a 2-worker distributed quickstart with journal.kill
# armed in worker 0's first incarnation (it is SIGKILL'd right after
# its 2nd shard append is durable; the coordinator reclaims its lease,
# respawns it, and the respawn crash-recovers the shard). The merged
# library must be byte-identical to the single-process golden — the
# farm's core guarantee, exercised across real process boundaries.
go build -o "$tmpdir/selfarm" ./cmd/selfarm
"$tmpdir/selfarm" -setup quick -timeout 2m -workers 2 \
	-selgen "$tmpdir/selgen" -dir "$tmpdir/farm" -o "$tmpdir/farmed.json" \
	-worker-faults journal.kill=hit:2 >/dev/null
cmp "$tmpdir/farmed.json" testdata/goldens/quick_x86.json || {
	echo "ci.sh: farm-merged library differs from the single-process golden" >&2
	exit 1
}

# Derived-goal farm smoke: riscv basic has 26 goals, and 5 of them
# (bne, bge, bgeu, ble, bleu) are their earlier branch's complement.
# The coordinator must lease only the 21 searched goals, and the merge
# must derive the other five to the bytes one selgen process writes.
# A healthy farm loses no lease either: a lease is reclaimed only when
# its worker exits or asks for another goal, so 0 reclaimed guards the
# rule that a worker's poll gives up only a goal it no longer holds.
"$tmpdir/selfarm" -target riscv -setup basic -timeout 2m -workers 2 \
	-selgen "$tmpdir/selgen" -dir "$tmpdir/farmderived" \
	-o "$tmpdir/farmderived.json" >"$tmpdir/farmderived.out"
grep -q 'farm: 21 lease(s) granted, 0 reclaimed,' "$tmpdir/farmderived.out" || {
	echo "ci.sh: the riscv basic farm did not lease exactly its 21 searched goals without a reclaim:" >&2
	cat "$tmpdir/farmderived.out" >&2
	exit 1
}
"$tmpdir/selgen" -target riscv -setup basic -timeout 2m \
	-o "$tmpdir/riscv_basic.json" >/dev/null
cmp "$tmpdir/farmderived.json" "$tmpdir/riscv_basic.json" || {
	echo "ci.sh: the riscv basic farm's library differs from selgen's" >&2
	exit 1
}

# Coordinator kill, then an immediate resume: journal.kill SIGKILLs the
# coordinator after its third durable lease grant, while its workers
# may still be finishing a goal. The resume must wait until they let go
# of their shards (the journal's single-writer lock) and take their
# late records as done, so no goal finishes twice: each of three rounds
# reports 0 shard duplicates and writes the golden bytes. Afterwards no
# worker of either coordinator may still be running.
for round in 1 2 3; do
	rm -rf "$tmpdir/farmkill"
	if "$tmpdir/selfarm" -setup quick -timeout 2m -selgen "$tmpdir/selgen" \
		-dir "$tmpdir/farmkill" -o "$tmpdir/farmkill.json" \
		-faults journal.kill=hit:3 >/dev/null 2>&1; then
		echo "ci.sh: journal.kill failpoint did not kill the farm coordinator" >&2
		exit 1
	fi
	"$tmpdir/selfarm" -setup quick -timeout 2m -selgen "$tmpdir/selgen" \
		-dir "$tmpdir/farmkill" -o "$tmpdir/farmkill.json" \
		-resume -workers 1 >"$tmpdir/farmkill.out"
	grep -q ' 0 shard duplicate(s)' "$tmpdir/farmkill.out" || {
		echo "ci.sh: round $round: the resumed farm merged duplicate shard records:" >&2
		cat "$tmpdir/farmkill.out" >&2
		exit 1
	}
	cmp "$tmpdir/farmkill.json" testdata/goldens/quick_x86.json || {
		echo "ci.sh: round $round: the resumed farm's library differs from the golden" >&2
		exit 1
	}
done
if pgrep -f "$tmpdir/selgen .* -farm " >/dev/null; then
	echo "ci.sh: selgen farm workers outlived their coordinators:" >&2
	pgrep -af "$tmpdir/selgen .* -farm " >&2
	exit 1
fi

# Cost-ablation smoke test: the same quick setup synthesized with
# -cost-aware=false (exhaustive size-major enumeration, no dominance
# prune) must cover exactly the same goals with strictly more rules,
# and no goal's cheapest rule may beat the cost-aware one.
"$tmpdir/selgen" -setup quick -timeout 2m -cost-aware=false \
	-o "$tmpdir/exhaustive.json" >/dev/null
go run scripts/comparelibs.go "$tmpdir/uninterrupted.json" "$tmpdir/exhaustive.json"

# Multi-target smoke: the riscv backend synthesizes its quickstart
# library through the same unchanged pipeline, and both targets'
# libraries must stay byte-identical to the committed goldens
# (synthesis is deterministic at fixed flags; when a drift is intended,
# regenerate testdata/goldens/ in the same commit:
# go run ./cmd/selgen -target <t> -setup quick -o testdata/goldens/quick_<t>.json).
"$tmpdir/selgen" -target riscv -setup quick -timeout 2m \
	-o "$tmpdir/quick_riscv.json" >/dev/null
cmp "$tmpdir/quick_riscv.json" testdata/goldens/quick_riscv.json || {
	echo "ci.sh: riscv quickstart library drifted from testdata/goldens/quick_riscv.json" >&2
	exit 1
}
cmp "$tmpdir/uninterrupted.json" testdata/goldens/quick_x86.json || {
	echo "ci.sh: x86 quickstart library drifted from testdata/goldens/quick_x86.json" >&2
	exit 1
}

# External-oracle smoke: every committed QF_BV script must produce the
# verdict its filename promises through the standalone solver CLI (the
# in-process check, models included, lives in internal/smtlib's
# external test).
go build -o "$tmpdir/bvsat" ./cmd/bvsat
for f in testdata/smtlib/*.smt2; do
	want="${f##*_}"
	want="${want%.smt2}"
	got="$("$tmpdir/bvsat" "$f" | head -n 1)"
	if [ "$got" != "$want" ]; then
		echo "ci.sh: $f: bvsat said '$got', filename promises '$want'" >&2
		exit 1
	fi
done

# Telemetry smoke test: run selgen with the status server on a random
# port, scrape /metrics and /goals while the process is alive (the
# linger window guarantees a scrape even if the quick run finishes
# before the scraper gets there), validate the Prometheus exposition
# and the goals document, then require a clean exit status — the
# graceful-shutdown path. Goroutine-leak coverage for the server lives
# in internal/telemetry's settle test.
status_log="$tmpdir/status.log"
"$tmpdir/selgen" -setup quick -timeout 2m -status 127.0.0.1:0 -status-linger 10s \
	-events "$tmpdir/events.jsonl" -o "$tmpdir/telemetry.json" \
	>/dev/null 2>"$status_log" &
status_pid=$!
addr=""
i=0
while [ "$i" -lt 100 ]; do
	addr="$(sed -n 's#.*listening on http://\([0-9.:]*\).*#\1#p' "$status_log" | head -n 1)"
	[ -n "$addr" ] && break
	i=$((i + 1))
	sleep 0.1
done
if [ -z "$addr" ]; then
	echo "ci.sh: selgen -status never reported a listen address" >&2
	kill "$status_pid" 2>/dev/null || true
	exit 1
fi
go run scripts/validatemetrics.go "http://$addr/metrics" "http://$addr/goals"
wait "$status_pid" || {
	echo "ci.sh: selgen -status run did not exit cleanly" >&2
	exit 1
}
grep -q '"event":"driver.goal.done"' "$tmpdir/events.jsonl" || {
	echo "ci.sh: events.jsonl carries no driver.goal.done events" >&2
	exit 1
}
