#!/usr/bin/env bash
# docs_smoke.sh — keep README.md executable rather than decorative.
#
# CI runs this after build: it extracts the quickstart session and the
# shard-map example straight out of README.md (between the HTML marker
# comments), runs them against live servers, and asserts the outcomes
# the prose promises. Editing the README without keeping the commands
# working fails the job; editing server flags without updating the
# README fails the flag-drift check.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/bin/" ./cmd/...

# --- 1. The quickstart ifdb-cli session, verbatim from README.md.
awk '/<!-- quickstart-cli-begin -->/{f=1;next} /<!-- quickstart-cli-end -->/{f=0} f' README.md \
  | sed '/^```/d' > "$workdir/session.sql"
if ! grep -q "SELECT" "$workdir/session.sql"; then
  echo "docs_smoke: README quickstart session not found (markers moved?)" >&2
  exit 1
fi

"$workdir/bin/ifdb-server" -addr 127.0.0.1:15433 -token demo \
  >"$workdir/server.log" 2>&1 &
for i in $(seq 1 50); do
  if "$workdir/bin/ifdb-cli" -addr 127.0.0.1:15433 -token demo </dev/null >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done

out=$("$workdir/bin/ifdb-cli" -addr 127.0.0.1:15433 -token demo < "$workdir/session.sql")
echo "$out"
# The prose's claims: the labeled row is visible while contaminated...
echo "$out" | grep -q "Alice | flu" || { echo "docs_smoke: labeled read missing"; exit 1; }
# ...and invisible again after declassification (Query by Label).
echo "$out" | grep -q "(0 rows)" || { echo "docs_smoke: post-declassify confinement missing"; exit 1; }
echo "$out" | grep -q "tag alice_medical" || { echo "docs_smoke: tag creation missing"; exit 1; }
if echo "$out" | grep -q "error:"; then
  echo "docs_smoke: quickstart session reported an error" >&2
  exit 1
fi

# --- 1b. The "Using database/sql" walkthrough: the README's Go block
# must be byte-identical to examples/sqldriver/main.go (no drift), and
# the example must run green against the quickstart server still up on
# 15433.
awk '/<!-- sqldriver-begin -->/{f=1;next} /<!-- sqldriver-end -->/{f=0} f' README.md \
  | sed '/^```/d' > "$workdir/sqldriver.go"
if ! diff -u examples/sqldriver/main.go "$workdir/sqldriver.go"; then
  echo "docs_smoke: README sqldriver block drifted from examples/sqldriver/main.go" >&2
  exit 1
fi
driverout=$(go run ./examples/sqldriver -addr 127.0.0.1:15433 -token demo)
echo "$driverout"
echo "$driverout" | grep -q "sqldriver: OK" || { echo "docs_smoke: sqldriver walkthrough failed"; exit 1; }
echo "$driverout" | grep -q "2. ship database  done=true" || { echo "docs_smoke: sqldriver output drifted"; exit 1; }

# --- 1c. The EXPLAIN walkthrough, verbatim from README.md, against
# the quickstart server still up on 15433 (the session continues it):
# the plan must show the index pick, the pushdown, the index join and
# the projection on top the prose walks through.
awk '/<!-- explain-cli-begin -->/{f=1;next} /<!-- explain-cli-end -->/{f=0} f' README.md \
  | sed '/^```/d' > "$workdir/explain.sql"
if ! grep -q "EXPLAIN" "$workdir/explain.sql"; then
  echo "docs_smoke: README EXPLAIN session not found (markers moved?)" >&2
  exit 1
fi
explout=$("$workdir/bin/ifdb-cli" -addr 127.0.0.1:15433 -token demo < "$workdir/explain.sql")
echo "$explout"
echo "$explout" | grep -q "scan visits AS v | index=visits_patient prefix=1" \
  || { echo "docs_smoke: EXPLAIN lost the index selection the README shows"; exit 1; }
echo "$explout" | grep -q "push=\[(v.patient = 'Alice') AND (v.day > 100)\]" \
  || { echo "docs_smoke: EXPLAIN lost the predicate pushdown the README shows"; exit 1; }
echo "$explout" | grep -q "project \[v.day, p.diagnosis\]" \
  || { echo "docs_smoke: EXPLAIN lost the projection the README shows"; exit 1; }
echo "$explout" | grep -q "join index INNER patients" \
  || { echo "docs_smoke: EXPLAIN lost the index join the README shows"; exit 1; }
if echo "$explout" | grep -q "error:"; then
  echo "docs_smoke: EXPLAIN session reported an error" >&2
  exit 1
fi

# --- 2. The sharded-cluster walkthrough's map file parses and serves.
awk '/# shards.conf/{f=1;next} /^```/{if(f)exit} f' README.md > "$workdir/shards.conf"
if ! grep -q "^shard 0" "$workdir/shards.conf"; then
  echo "docs_smoke: README shard map example not found" >&2
  exit 1
fi
"$workdir/bin/ifdb-server" -addr 127.0.0.1:15434 -token demo \
  -shard-id 0 -shard-map "$workdir/shards.conf" \
  >"$workdir/server-shard.log" 2>&1 &
for i in $(seq 1 50); do
  if "$workdir/bin/ifdb-cli" -addr 127.0.0.1:15434 -token demo </dev/null >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
shardout=$(echo '\shardmap' | "$workdir/bin/ifdb-cli" -addr 127.0.0.1:15434 -token demo)
echo "$shardout" | grep -q "shard 1 primary 127.0.0.1:5435" \
  || { echo "docs_smoke: served shard map does not match the README example"; exit 1; }

# --- 2b. The scatter-gather walkthrough: a real two-shard cluster,
# the examples/scatter program against it, and its output diffed
# byte-for-byte against the README's block — the EXPLAIN plan lines
# (Scatter/Gateway/Fragment) and the merged GROUP BY counts are the
# prose's claims.
cat > "$workdir/shards2.conf" <<'EOF'
version 1
table events key k
shard 0 primary 127.0.0.1:15436
shard 1 primary 127.0.0.1:15437
EOF
"$workdir/bin/ifdb-server" -addr 127.0.0.1:15436 -token demo \
  -shard-id 0 -shard-map "$workdir/shards2.conf" \
  >"$workdir/server-s0.log" 2>&1 &
"$workdir/bin/ifdb-server" -addr 127.0.0.1:15437 -token demo \
  -shard-id 1 -shard-map "$workdir/shards2.conf" \
  >"$workdir/server-s1.log" 2>&1 &
for port in 15436 15437; do
  for i in $(seq 1 50); do
    if "$workdir/bin/ifdb-cli" -addr 127.0.0.1:$port -token demo </dev/null >/dev/null 2>&1; then
      break
    fi
    sleep 0.1
  done
done
awk '/<!-- scatter-out-begin -->/{f=1;next} /<!-- scatter-out-end -->/{f=0} f' README.md \
  | sed '/^```/d' > "$workdir/scatter.want"
if ! grep -q "Scatter \[shards=2" "$workdir/scatter.want"; then
  echo "docs_smoke: README scatter walkthrough output not found (markers moved?)" >&2
  exit 1
fi
go run ./examples/scatter -addr 127.0.0.1:15436 -token demo > "$workdir/scatter.got"
if ! diff -u "$workdir/scatter.want" "$workdir/scatter.got"; then
  echo "docs_smoke: examples/scatter output drifted from the README block" >&2
  exit 1
fi

# --- 3. The Monitoring walkthrough: a durable server with
# -metrics-listen must serve a Prometheus scrape carrying the WAL and
# IFC series the README shows, with real fsyncs counted.
"$workdir/bin/ifdb-server" -addr 127.0.0.1:15435 -token demo \
  -datadir "$workdir/data" -metrics-listen 127.0.0.1:19090 \
  -log-level info -slow-query 50ms \
  >"$workdir/server-metrics.log" 2>&1 &
for i in $(seq 1 50); do
  if "$workdir/bin/ifdb-cli" -addr 127.0.0.1:15435 -token demo </dev/null >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
printf 'CREATE TABLE m (k BIGINT PRIMARY KEY);\nINSERT INTO m VALUES (1);\n' \
  | "$workdir/bin/ifdb-cli" -addr 127.0.0.1:15435 -token demo >/dev/null
scrape=$(curl -sf http://127.0.0.1:19090/metrics)
echo "$scrape" | grep -qE '^ifdb_wal_fsync_total [1-9]' \
  || { echo "docs_smoke: /metrics missing nonzero ifdb_wal_fsync_total"; exit 1; }
echo "$scrape" | grep -q '^ifdb_ifc_label_denials_total ' \
  || { echo "docs_smoke: /metrics missing ifdb_ifc_label_denials_total"; exit 1; }
echo "$scrape" | grep -q '^ifdb_server_active_sessions ' \
  || { echo "docs_smoke: /metrics missing ifdb_server_active_sessions"; exit 1; }

# --- 3b. The "Benchmarking & workload simulation" walkthrough: every
# sim-backed cluster experiment records its schedule and replays it
# (tiny duration; numbers are irrelevant, the flags and files are the
# claim).
sim_exps="replica-read shard-write mixed-tenant"
"$workdir/bin/ifdb-bench" -exp "${sim_exps// /,}" -duration 50ms -seed 7 \
  -record "$workdir/traces" >/dev/null
for exp in $sim_exps; do
  [ -s "$workdir/traces/$exp.trace" ] \
    || { echo "docs_smoke: -record produced no trace for $exp"; exit 1; }
done
"$workdir/bin/ifdb-bench" -exp "${sim_exps// /,}" -duration 50ms \
  -replay "$workdir/traces" >/dev/null \
  || { echo "docs_smoke: -replay failed on just-recorded traces"; exit 1; }

# --- 4. Flag drift: every -flag the README's sh blocks pass to the
# binaries must still exist in some binary's -h output.
help=$({ "$workdir/bin/ifdb-server" -h; "$workdir/bin/ifdb-cli" -h; "$workdir/bin/ifdb-bench" -h; } 2>&1 || true)
flags=$(awk '/^```sh$/{f=1;next} /^```/{f=0} f && /ifdb-|^[[:space:]]*-/' README.md \
  | grep -oE '(^|[[:space:]])-[a-z][a-z-]*' | sed -E 's/^[[:space:]]*-//' | sort -u)
for f in $flags; do
  echo "$help" | grep -qE "^[[:space:]]*-$f\b" \
    || { echo "docs_smoke: README mentions flag -$f, not found in any binary's -h"; exit 1; }
done

echo "docs_smoke: README quickstart, shard map, scatter walkthrough, metrics scrape, and flags all check out"
