#!/usr/bin/env bash
# ci.sh — the repository's tier-1 gate, plus the race detector, the
# unionlint static-analysis suite, and a short fuzz smoke run.
#
# The networked coordinator (internal/server) absorbs sketches on each
# connection's reader goroutine, up to GOMAXPROCS at once; every change
# must keep that path race-clean, so CI always runs the full suite
# under -race.
# unionlint (cmd/unionlint, see README "Static analysis") enforces the
# invariants the compiler can't: coordinated seeding, documented mutex
# guards, the %w error contract at the wire boundary, float comparison
# hygiene, and — via cross-package facts — the registry/wire/
# determinism contracts (kindcheck, ackcontract, mergepure,
# failpointcheck), plus interprocedural hot-path allocation budgets
# (allocflow) cross-checked against testing.AllocsPerRun at runtime.
set -euo pipefail
cd "$(dirname "$0")"

# Pinned versions for the optional third-party analyzers. This CI runs
# offline: the tools are used when already present on PATH (or after
# CI_INSTALL_TOOLS=1 fetches them on a networked runner) and skipped
# otherwise, so the gate never depends on network access.
STATICCHECK_VERSION="${STATICCHECK_VERSION:-2024.1.1}"
GOVULNCHECK_VERSION="${GOVULNCHECK_VERSION:-v1.1.3}"

echo "== go vet =="
go vet ./...

echo "== unionlint self-test (golden suites) =="
# The linter's own analysistest suites run before the linter is trusted
# with the tree: a broken analyzer must fail loudly here, not silently
# under-report in the pass below. This includes the lockorder and
# allocflow golden suites and the driver's cross-package fact and
# test-file cases over temp modules (internal/analysis/driver).
go test -count=1 ./internal/analysis/...

echo "== unionlint (lint/report.jsonl) =="
# The linter binary and the regenerated artifacts live in a scratch
# directory removed on exit, so CI never replaces a unionlint the
# developer installed.
CI_TMP="$(mktemp -d)"
trap 'rm -rf "$CI_TMP"' EXIT
UNIONLINT="$CI_TMP/unionlint"
REPORT_TMP="$CI_TMP/report.jsonl"
ALLOCFLOW_TMP="$CI_TMP/allocflow.baseline"
go build -o "$UNIONLINT" ./cmd/unionlint
# One run over every package and its test compilations. It gates on
# findings (-json exits 1 and prints the grouped per-analyzer summary
# on stderr), and its machine-readable findings are tracked as a trend
# artifact: a clean tree commits an empty lint/report.jsonl, and the
# regeneration must match it byte for byte.
if ! "$UNIONLINT" -json ./... >"$REPORT_TMP"; then
    echo "ci.sh: unionlint found violations (fix them, annotate" \
         "'unionlint:allow <analyzer> <reason>', or run" \
         "'go run ./cmd/unionlint -fix ./...' for %w rewrites)."
    echo "ci.sh: fact-driven analyzers: kindcheck (registry tags/sentinels)," \
         "ackcontract (// ackclass: transient/permanent), mergepure" \
         "(// mergepure:seam for reviewed nondeterminism), failpointcheck" \
         "(declared failpoint sites), lockorder (guarded-field access," \
         "deadlock/ordering/blocking-while-locked over // guards: mutexes;" \
         "reviewed waits take // unionlint:allow lockorder <reason>)," \
         "allocflow (// hotpath: roots" \
         "budgeted against lint/allocflow.baseline; license steady-state" \
         "growth with // allocflow:amortized <reason>, prune error paths" \
         "with // allocflow:cold <reason>); see README 'Static analysis'."
    exit 1
fi
if ! diff -u lint/report.jsonl "$REPORT_TMP"; then
    echo "ci.sh: lint/report.jsonl is stale; regenerate with:" \
         "go run ./cmd/unionlint -json ./... > lint/report.jsonl"
    exit 1
fi

echo "== allocflow baseline freshness (lint/allocflow.baseline) =="
# The committed baseline must match what the current tree generates:
# a budget change without a regenerated baseline is invisible to the
# pass above (which gates against the committed file), so CI
# regenerates to a scratch path and diffs modulo the comment header.
"$UNIONLINT" -allocflow.update -allocflow.baseline="$ALLOCFLOW_TMP" ./... >/dev/null
if ! diff -u <(grep -v '^#' lint/allocflow.baseline) <(grep -v '^#' "$ALLOCFLOW_TMP"); then
    echo "ci.sh: lint/allocflow.baseline is stale; regenerate with:" \
         "go run ./cmd/unionlint -allocflow.update ./..."
    exit 1
fi

echo "== staticcheck (optional, pinned $STATICCHECK_VERSION) =="
if [[ "${CI_INSTALL_TOOLS:-0}" == "1" ]] && ! command -v staticcheck >/dev/null; then
    go install "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION"
fi
if command -v staticcheck >/dev/null; then
    staticcheck ./...
else
    echo "staticcheck not on PATH; skipping (set CI_INSTALL_TOOLS=1 on a networked runner)"
fi

echo "== govulncheck (optional, pinned $GOVULNCHECK_VERSION) =="
if [[ "${CI_INSTALL_TOOLS:-0}" == "1" ]] && ! command -v govulncheck >/dev/null; then
    go install "golang.org/x/vuln/cmd/govulncheck@$GOVULNCHECK_VERSION"
fi
if command -v govulncheck >/dev/null; then
    govulncheck ./...
else
    echo "govulncheck not on PATH; skipping (set CI_INSTALL_TOOLS=1 on a networked runner)"
fi

echo "== go build =="
go build ./...

echo "== go test -race =="
# Includes the sketch conformance suite (internal/sketch, every
# registered kind) and the hot-path allocation cross-check
# (internal/allocgate: allocflow ceilings vs testing.AllocsPerRun).
go test -race -count=1 ./...

echo "== seeded suites: chaos, cluster, set-expression, WAL recovery (seeds 1..3, -race) =="
# The suites that take -chaos.seed, swept over seeds 1..3 in one run
# per seed. Each seeded schedule must leave the coordinator
# bit-identical to its fault-free control:
#   - chaos: seeded fault schedules through internal/failpoint and
#     internal/faultnet reproduce the identical fault trace;
#   - cluster: three shards relaying into a parent, through faulty hops
#     and across shard death with ring migration;
#   - set-expression: nested queries over named streams on a 3-shard
#     ring are float64-identical to local evaluation;
#   - WAL recovery: a coordinator killed at each wal/* failpoint, or
#     with a torn tail, reboots from its log (single, relay and
#     3-shard topologies).
# Only these packages define -chaos.seed, so they are named explicitly
# instead of using ./... .
SEEDED_PKGS=(./internal/server ./internal/client ./internal/distnet)
SEEDED_RUN='Chaos|TestClusterShardDeathMigrationConverges|TestExprShardedCluster|TestWALRecovery|TestWALClusterParentCrashRecovery'
SEEDED_FAILED=()
for seed in 1 2 3; do
    echo "-- chaos.seed=$seed --"
    if ! go test -race -run "$SEEDED_RUN" "${SEEDED_PKGS[@]}" -chaos.seed="$seed"; then
        SEEDED_FAILED+=("$seed")
    fi
done
if ((${#SEEDED_FAILED[@]})); then
    echo "ci.sh: seeded suites failed for seed(s): ${SEEDED_FAILED[*]}; the failing"
    echo "ci.sh: test names its leg. Where each leg's code lives: faults in" \
         "internal/failpoint and internal/faultnet; the ring and migration in" \
         "internal/cluster; the relay flush and stream-carrying relay in" \
         "internal/server/relay.go; batched, sharded and QueryExpr routing in" \
         "internal/client; the expression evaluator in internal/server/expr.go;" \
         "the log in internal/wal and its server wiring (log-before-ack, seal" \
         "barrier, replay-before-accept) in internal/server/wal.go."
    echo "ci.sh: replay one seed with:" \
         "go test -race -run '<test>' <pkg> -chaos.seed=<seed>"
    exit 1
fi

# BENCH_absorb.json (repo root) is the checked-in coordinator-path
# microbenchmark snapshot (absorb ns/op and MB/s, merge, envelope
# decode, per kind, plus allocs_licensed/allocs_budget_ok comparing
# observed absorb allocations to the allocflow ceiling). It is not
# gated here — timings are machine-dependent, and the allocation gate
# already runs above via internal/allocgate — regenerate it on a quiet
# machine with:
#   go run ./cmd/gtbench -bench BENCH_absorb.json
# BENCH_wal.json is the same kind of snapshot for the durability layer
# (append ns/op with and without fsync, replay MB/s):
#   go run ./cmd/gtbench -bench-wal BENCH_wal.json
# BENCH_expr.json snapshots the set-expression evaluator (AnswerExpr
# ns/query per expression shape):
#   go run ./cmd/gtbench -bench-expr BENCH_expr.json
# BENCH_relay.json snapshots the relay tier (a FlushRelay round over
# loopback TCP, and client.PushBatch):
#   go run ./cmd/gtbench -bench-relay BENCH_relay.json

echo "== fuzz smoke: FuzzWireDecode (10s) =="
# A short bounded run of the wire-format fuzzer: enough to catch a
# decoder regression on every CI pass without turning the gate into a
# fuzzing campaign.
go test -run='^$' -fuzz='^FuzzWireDecode$' -fuzztime=10s ./internal/wire

echo "== fuzz smoke: FuzzSamplerUnmarshal (10s) =="
# The gt sample decoder builds the sorted in-memory sample straight
# from the wire (strictly increasing labels, every level re-verified):
# no bytes may panic it, every accepted input must re-encode, size,
# clone and merge consistently, and a decode into a used sampler (an
# absorb slot's scratch) and the old one-pass decoder must accept and
# refuse the same bytes and decode the same state.
go test -run='^$' -fuzz='^FuzzSamplerUnmarshal$' -fuzztime=10s ./internal/core

echo "== fuzz smoke: FuzzClientReadFrame (10s) =="
# Same budget for the client's reply reader, which replays the wire
# fuzzer's shared corpus and must agree with it frame for frame.
go test -run='^$' -fuzz='^FuzzClientReadFrame$' -fuzztime=10s ./internal/client

echo "== fuzz smoke: FuzzSketchOpen (10s) =="
# And for the registry envelope opener, which fronts every decoder in
# the sketch registry: no input may panic it, every accepted input
# must re-encode to an identical envelope header, and a used Scratch
# and the kmv, hll and fm kinds' old decoders must agree with it.
go test -run='^$' -fuzz='^FuzzSketchOpen$' -fuzztime=10s ./internal/sketch

echo "== fuzz smoke: FuzzWALReplay (10s) =="
# And for the WAL segment decoder and Open/Replay recovery path, which
# replays the wire fuzzer's shared corpus plus torn and bit-flipped
# segments: no bytes on disk may panic a boot, damage must classify as
# ErrDamaged at a deterministic clean offset, and the truncated log
# must accept appends afterwards.
go test -run='^$' -fuzz='^FuzzWALReplay$' -fuzztime=10s ./internal/wal

echo "ci.sh: all checks passed"
