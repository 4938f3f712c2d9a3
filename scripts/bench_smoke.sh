#!/usr/bin/env bash
# bench_smoke.sh — keep the perf-trajectory harness honest.
#
# CI runs every sim-backed ifdb-bench experiment at a short duration,
# then asserts the three properties the harness is sold on:
#
#   1. determinism — recording the same seed twice yields byte-identical
#      traces for every experiment, and a -replay run consumes them;
#   2. the JSON report parses under the current schema and carries the
#      groups and registry delta the diff tool needs;
#   3. -diff compares the fresh report against the committed baseline
#      (BENCH_6.json, legacy schema) without erroring.
#
# Numbers from a 2s run are noise; nothing here gates on throughput.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/bin/" ./cmd/ifdb-bench

BENCH="$workdir/bin/ifdb-bench"
EXPS="prepared,replica-read,shard-write,mixed-tenant"

# --- 1. Determinism: same seed, two recordings, byte-identical traces.
"$BENCH" -exp "$EXPS" -duration 50ms -seed 7 -record "$workdir/t1" >/dev/null
"$BENCH" -exp "$EXPS" -duration 50ms -seed 7 -record "$workdir/t2" >/dev/null
for exp in prepared replica-read shard-write mixed-tenant; do
  if ! cmp -s "$workdir/t1/$exp.trace" "$workdir/t2/$exp.trace"; then
    echo "bench_smoke: trace for $exp is not deterministic across recordings" >&2
    exit 1
  fi
done

# An open-loop arrival process must be just as replayable.
"$BENCH" -exp prepared -arrival poisson -rate 500 -duration 200ms -seed 9 \
  -record "$workdir/p1" >/dev/null
"$BENCH" -exp prepared -arrival poisson -rate 500 -duration 200ms -seed 9 \
  -record "$workdir/p2" >/dev/null
cmp -s "$workdir/p1/prepared.trace" "$workdir/p2/prepared.trace" || {
  echo "bench_smoke: poisson trace is not deterministic" >&2; exit 1; }

# --- 2. Replay the recorded traces and emit the schema-2 JSON report.
# scatter-agg rides along: it is not schedule-driven (no trace), but
# its groups and notes — distributed-aggregate bytes-on-wire — must land
# in the same report the diff tool consumes.
"$BENCH" -exp "$EXPS,scatter-agg" -duration 1s -replay "$workdir/t1" \
  -json "$workdir/BENCH_smoke.json" >/dev/null

grep -q '"schema": 2' "$workdir/BENCH_smoke.json" || {
  echo "bench_smoke: report missing schema 2 marker" >&2; exit 1; }
for needle in '"experiments"' '"groups"' '"registry"' '"p99_us"' \
              'mixed-tenant' 'ifdb_router_shard_routed_total' \
              'scatter-agg' 'rows_bytes_4shards_partial-agg' \
              'ifdb_wire_rows_bytes_total'; do
  grep -q "$needle" "$workdir/BENCH_smoke.json" || {
    echo "bench_smoke: report missing $needle" >&2; exit 1; }
done

# Self-diff doubles as a schema parse check (Load runs on both sides)
# and must report zero regressions.
"$BENCH" -diff "$workdir/BENCH_smoke.json" "$workdir/BENCH_smoke.json" \
  > "$workdir/selfdiff.out"
grep -q "0 regressions" "$workdir/selfdiff.out" || {
  echo "bench_smoke: self-diff reported regressions" >&2
  cat "$workdir/selfdiff.out" >&2
  exit 1
}

# --- 3. Diff against the committed baselines: the legacy schema-1
# file must load and compare cleanly, and the later baselines
# (BENCH_8.json, BENCH_10.json) must share groups with the fresh report
# (exit 0; the verdict is for humans).
"$BENCH" -diff BENCH_6.json "$workdir/BENCH_smoke.json" > "$workdir/diff.out"
grep -q "compared metrics" "$workdir/diff.out" || {
  echo "bench_smoke: legacy baseline diff produced no comparison summary" >&2
  cat "$workdir/diff.out" >&2
  exit 1
}
"$BENCH" -diff BENCH_8.json "$workdir/BENCH_smoke.json" > "$workdir/diff8.out"
grep -q "compared metrics" "$workdir/diff8.out" || {
  echo "bench_smoke: BENCH_8 baseline diff produced no comparison summary" >&2
  cat "$workdir/diff8.out" >&2
  exit 1
}
"$BENCH" -diff BENCH_10.json "$workdir/BENCH_smoke.json" > "$workdir/diff10.out"
grep -q "compared metrics" "$workdir/diff10.out" || {
  echo "bench_smoke: BENCH_10 baseline diff produced no comparison summary" >&2
  cat "$workdir/diff10.out" >&2
  exit 1
}
grep -q "scatter-agg" "$workdir/diff10.out" || {
  echo "bench_smoke: BENCH_10 diff did not compare the scatter-agg groups" >&2
  cat "$workdir/diff10.out" >&2
  exit 1
}

echo "bench_smoke: OK (determinism, schema, baseline diffs)"
