#!/bin/sh
# ci.sh: the repo's tier-1 gate — build, vet, and race-enabled tests.
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
# Fail-fast race pass over the solver stack and the selector: the
# portfolio tests spawn racing workers with a shared stop flag and
# clause exchange, the fault-injection tests panic inside those
# workers, and the isel tests drive one compiled Selector from several
# goroutines — so these packages are where a data race would surface
# first (obs joins them: the telemetry scraper snapshots the registry
# while synthesis goroutines write it). The driver's synthesis tests
# run well past go test's default 10m timeout under the race detector,
# so this pass needs the same widened timeout as the full suite below.
go test -race -timeout 60m ./internal/sat ./internal/smt ./internal/cegis ./internal/driver \
	./internal/isel ./internal/pattern ./internal/obs ./internal/telemetry \
	./internal/riscv ./internal/target ./internal/farm
# the driver tests synthesize libraries and run well past go test's
# default 10m timeout under the race detector (their per-goal deadlines
# scale up under race too; see internal/driver scaledTimeout)
go test -race -timeout 60m "$@" ./...

# The re-measuring benchmark is a module of its own, so ./... above
# does not reach its smoke test (every short workload, one iteration).
(cd bench && go test -short ./...)

# Selection benchmark smoke: one iteration of the library-size scaling
# benchmark must run clean, and a single-rep BENCH_isel.json must parse
# and show the indexed matcher sublinear in library size.
go test -run '^$' -bench SelectLibrarySize -benchtime 1x ./internal/isel
benchdir="$(mktemp -d)"
trap 'rm -rf "$benchdir"' EXIT # replaced below once tmpdir exists
go build -o "$benchdir/iselbench" ./cmd/iselbench
(cd "$benchdir" && ./iselbench -isel-json -isel-reps 1 >/dev/null)
go run scripts/validateiselbench.go "$benchdir/BENCH_isel.json"

# -trace smoke test: a quick-setup run must emit a well-formed Chrome
# trace (parses, has goal/multiset/synth/verify spans, spans nest).
# -sat-workers 2 routes verification through the SAT portfolio so any
# sat.portfolio.worker spans land on their own trace TIDs and must
# still nest cleanly.
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir" "$benchdir"' EXIT
go run ./cmd/selgen -setup quick -timeout 2m -sat-workers 2 \
	-o "$tmpdir/quick.json" -trace "$tmpdir/trace.json" >/dev/null
go run scripts/validatetrace.go "$tmpdir/trace.json"

# Kill-and-resume smoke test: SIGKILL selgen mid-run (the journal.kill
# failpoint delivers an uncatchable kill right after the 2nd goal
# record is fsync'd — deterministic, unlike timing an external kill -9
# against a ~100ms run), then resume from the journal. The resumed
# library must be byte-identical to an uninterrupted run's.
go build -o "$tmpdir/selgen" ./cmd/selgen
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
# -backoff 100ms keeps the reclaimed goal's reassignment prompt.
go build -o "$tmpdir/selfarm" ./cmd/selfarm
"$tmpdir/selfarm" -setup quick -timeout 2m -workers 2 -backoff 100ms \
	-selgen "$tmpdir/selgen" -dir "$tmpdir/farm" -o "$tmpdir/farmed.json" \
	-worker-faults journal.kill=hit:2 >/dev/null
cmp "$tmpdir/farmed.json" testdata/goldens/quick_x86.json || {
	echo "ci.sh: farm-merged library differs from the single-process golden" >&2
	exit 1
}

# Cost-ablation smoke test: the same quick setup synthesized with
# -cost-aware=false (exhaustive size-major enumeration, no dominance
# prune) must cover exactly the same goals with strictly more rules,
# and no goal's cheapest rule may beat the cost-aware one. The
# committed BENCH_cegis.json must carry the same invariant in its cost
# section.
"$tmpdir/selgen" -setup quick -timeout 2m -cost-aware=false \
	-o "$tmpdir/exhaustive.json" >/dev/null
go run scripts/comparelibs.go "$tmpdir/uninterrupted.json" "$tmpdir/exhaustive.json"
go run scripts/validatecegisbench.go BENCH_cegis.json

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
# verdict its filename promises through the standalone solver CLI, with
# the SAT portfolio engaged (the in-process differential against the
# sequential solver lives in internal/smtlib's external test).
go build -o "$tmpdir/bvsat" ./cmd/bvsat
for f in testdata/smtlib/*.smt2; do
	want="${f##*_}"
	want="${want%.smt2}"
	got="$("$tmpdir/bvsat" -sat-workers 2 "$f" | head -n 1)"
	if [ "$got" != "$want" ]; then
		echo "ci.sh: $f: bvsat said '$got', filename promises '$want'" >&2
		exit 1
	fi
done

# Bench-trajectory gate: the committed BENCH_*.json must stay within
# 15% of the committed baselines under scripts/baseline/ on
# incremental_ms, nsPerNode, and rulesPerNode. An intentional
# regression refreshes the baseline copy in the same commit, with the
# reason in the commit message — the trajectory is gated, not
# eyeballed.
go run scripts/benchdiff.go BENCH_cegis.json BENCH_isel.json

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
