#!/usr/bin/env bash
# Server-mode smoke test: pipe a small NDJSON job script — an estimate, a
# sweep, a sharded sweep, and one malformed line — into `qre serve` and
# assert the session's exit code, its record count, and that the malformed
# line yielded an error record instead of a crash; a non-UTF-8 line must
# likewise yield an error record and leave the next job served. Then
# exercise the persistence and fan-in story: two `--cache-file` sessions (the second must
# run entirely from the first's snapshot, and a corrupted snapshot must warn
# and start cold, never crash), and `qre merge` over two sharded sessions'
# outputs (the merge must byte-equal the unsharded session's item records
# after re-sorting). Finally the network transport: launch `--listen
# 127.0.0.1:0`, submit the same script over a raw TCP socket (bash
# /dev/tcp), drain with the `{"control": "shutdown"}` verb, and assert the
# job records are byte-compatible with the pipe session's. Run from the
# workspace root; CI runs it after `cargo build --release`.
set -euo pipefail

QRE=${QRE:-target/release/qre}
if [ ! -x "$QRE" ]; then
    echo "serve_smoke: $QRE not built (run: cargo build --release)" >&2
    exit 1
fi

out=$(mktemp)
workdir=$(mktemp -d)
trap 'rm -f "$out"; rm -rf "$workdir"' EXIT

printf '%s\n' \
  '{ "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } } }' \
  '{ "id": "sweep", "sweep": { "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 100 } } ], "errorBudgets": [ 1e-4 ] } }' \
  '{ "id": "shard-1", "shard": {"index": 1, "count": 2}, "sweep": { "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 100 } } ], "errorBudgets": [ 1e-4 ] } }' \
  'this line is deliberately not JSON' \
  | "$QRE" serve --jobs 1 > "$out"
# set -e: a non-zero serve exit (the session must survive the malformed
# line) has already failed the script here.

fail() { echo "serve_smoke: $1" >&2; echo "--- output ---" >&2; cat "$out" >&2; exit 1; }

# 1 result + stats, 6 sweep items + stats, 3 shard items + stats, 1 error.
records=$(wc -l < "$out")
[ "$records" -eq 14 ] || fail "expected 14 records, got $records"

errors=$(grep -c '"status":"error"' "$out") || true
[ "$errors" -eq 1 ] || fail "expected exactly 1 error record, got $errors"
grep -q '{"job":4,"status":"error","message":"invalid job' "$out" \
  || fail "malformed line 4 did not yield its error record"

stats=$(grep -c '"stats":' "$out") || true
[ "$stats" -eq 3 ] || fail "expected 3 stats records, got $stats"

# The sharded job re-ran scenarios the sweep already designed: pure hits.
grep -q '{"job":"shard-1","stats":{"items":3,"errors":0,"cacheHits":3,"cacheMisses":0' "$out" \
  || fail "sharded job did not run from the warm session cache"

# --- Persistent cache across two sessions -----------------------------------

SWEEP_JOB='{ "id": "sweep", "sweep": { "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 100 } } ], "errorBudgets": [ 1e-4 ] } }'
cache="$workdir/designs.json"

# Session 1: cold, saves its snapshot at exit.
echo "$SWEEP_JOB" | "$QRE" serve --jobs 1 --cache-file "$cache" > "$workdir/session1.ndjson"
[ -f "$cache" ] || fail "session 1 left no cache snapshot"
grep -q '"cacheMisses":6' "$workdir/session1.ndjson" \
  || { cp "$workdir/session1.ndjson" "$out"; fail "session 1 was not cold"; }

# Session 2: a fresh process over the snapshot — zero searches.
echo "$SWEEP_JOB" | "$QRE" serve --jobs 1 --cache-file "$cache" > "$workdir/session2.ndjson"
grep -q '"cacheHits":6,"cacheMisses":0' "$workdir/session2.ndjson" \
  || { cp "$workdir/session2.ndjson" "$out"; fail "session 2 did not run from the snapshot"; }

# Corrupt snapshot: loud stderr warning, cold session, exit 0.
echo 'not a snapshot at all' > "$cache"
echo "$SWEEP_JOB" | "$QRE" serve --jobs 1 --cache-file "$cache" \
  > "$workdir/session3.ndjson" 2> "$workdir/session3.err"
grep -q '"cacheMisses":6' "$workdir/session3.ndjson" \
  || { cp "$workdir/session3.ndjson" "$out"; fail "corrupt snapshot did not fall back to a cold start"; }
grep -q 'ignoring cache snapshot' "$workdir/session3.err" \
  || { cp "$workdir/session3.err" "$out"; fail "corrupt snapshot was not reported"; }

# --- Bounded design store: evictions must surface in stats ------------------

# Capacity 1 under the six-design sweep: five inserts overflow the bound, so
# the stats record must carry the exact eviction count and a store of one.
echo "$SWEEP_JOB" | "$QRE" serve --jobs 1 --cache-cap 1 > "$workdir/capped.ndjson"
grep -q '"cacheMisses":6,"cacheEntries":1,"cacheEvictions":5' "$workdir/capped.ndjson" \
  || { cp "$workdir/capped.ndjson" "$out"; fail "capped session did not report its evictions"; }

# --- Hostile input: a non-UTF-8 line ----------------------------------------

# 0xFF never occurs in UTF-8. The line gets one error record under its
# ordinal, and the valid job after it is still served (set -e: exit 0).
printf '\xff\xfe bad\n%s\n' '{ "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } } }' \
  | "$QRE" serve --jobs 1 > "$workdir/hostile.ndjson"
hostile=$(wc -l < "$workdir/hostile.ndjson")
[ "$hostile" -eq 3 ] \
  || { cp "$workdir/hostile.ndjson" "$out"; fail "expected 3 records after a non-UTF-8 line, got $hostile"; }
grep -q '^{"job":1,"status":"error","message":"invalid job: line is not valid UTF-8' "$workdir/hostile.ndjson" \
  || { cp "$workdir/hostile.ndjson" "$out"; fail "non-UTF-8 line 1 did not yield its error record"; }
grep -q '^{"job":2,"status":"success"' "$workdir/hostile.ndjson" \
  || { cp "$workdir/hostile.ndjson" "$out"; fail "job 2 after the non-UTF-8 line did not run"; }
grep -q '^{"job":2,"stats":{"items":1,"errors":0' "$workdir/hostile.ndjson" \
  || { cp "$workdir/hostile.ndjson" "$out"; fail "job 2 after the non-UTF-8 line has no stats record"; }

# --- qre merge over sharded sessions ----------------------------------------

SWEEP_BODY='"sweep": { "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 100 } } ], "errorBudgets": [ 1e-4 ] }'
echo "{ \"id\": \"fig4\", $SWEEP_BODY }" | "$QRE" serve --jobs 1 > "$workdir/full.ndjson"
for i in 0 1; do
  echo "{ \"id\": \"fig4\", \"shard\": {\"index\": $i, \"count\": 2}, $SWEEP_BODY }" \
    | "$QRE" serve --jobs 1 > "$workdir/shard$i.ndjson"
done
"$QRE" merge "$workdir/shard0.ndjson" "$workdir/shard1.ndjson" > "$workdir/merged.ndjson"
merged=$(wc -l < "$workdir/merged.ndjson")
[ "$merged" -eq 6 ] || { cp "$workdir/merged.ndjson" "$out"; fail "expected 6 merged records, got $merged"; }
# The merge byte-equals the unsharded session's item records (after
# re-sorting both sides; the unsharded session emits in completion order).
if ! diff <(sort "$workdir/merged.ndjson") \
          <(grep -v '"stats":' "$workdir/full.ndjson" | sort) > /dev/null; then
  cp "$workdir/merged.ndjson" "$out"
  fail "merged shard output diverges from the unsharded sweep"
fi
# An incomplete shard set must fail loudly.
if "$QRE" merge "$workdir/shard1.ndjson" > /dev/null 2> "$workdir/merge.err"; then
  fail "merge of an incomplete shard set unexpectedly succeeded"
fi
grep -q 'do not cover' "$workdir/merge.err" \
  || { cp "$workdir/merge.err" "$out"; fail "incomplete merge did not name the gap"; }

# --- Socket round-trip: qre serve --listen ----------------------------------

# The same four-line script as the pipe session above, over TCP. Port 0
# picks a free port, reported on stderr; stdin is /dev/null, which must NOT
# drain the server (only the shutdown verb below does). --per-conn 1
# mirrors the pipe session's --jobs 1, so the records are comparable.
netcache="$workdir/netcache.json"
"$QRE" serve --listen 127.0.0.1:0 --max-conns 4 --per-conn 1 \
  --cache-file "$netcache" < /dev/null 2> "$workdir/net.err" &
server_pid=$!
addr=''
for _ in $(seq 1 100); do
  addr=$(grep -o 'listening on [0-9.:]*' "$workdir/net.err" | head -n1 | awk '{print $3}' || true)
  if [ -n "$addr" ]; then break; fi
  sleep 0.1
done
if [ -z "$addr" ]; then
  kill "$server_pid" 2> /dev/null || true
  cp "$workdir/net.err" "$out"
  fail "--listen server never reported its bound address"
fi
port=${addr##*:}

exec 3<> "/dev/tcp/127.0.0.1/$port" || fail "cannot connect to $addr"
printf '%s\n' \
  '{ "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } } }' \
  '{ "id": "sweep", "sweep": { "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 100 } } ], "errorBudgets": [ 1e-4 ] } }' \
  '{ "id": "shard-1", "shard": {"index": 1, "count": 2}, "sweep": { "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 100 } } ], "errorBudgets": [ 1e-4 ] } }' \
  'this line is deliberately not JSON' \
  '{ "id": "stop", "control": "shutdown" }' >&3
timeout 30 cat <&3 > "$workdir/net.ndjson" \
  || { cp "$workdir/net.err" "$out"; fail "socket session did not drain and close"; }
exec 3<&- 3>&-
wait "$server_pid" || { cp "$workdir/net.err" "$out"; fail "--listen server exited non-zero"; }

# Session framing: a hello first, a drained bye last, 14 job records plus
# the shutdown ack in between.
net_records=$(wc -l < "$workdir/net.ndjson")
[ "$net_records" -eq 17 ] \
  || { cp "$workdir/net.ndjson" "$out"; fail "expected 17 socket records, got $net_records"; }
head -n1 "$workdir/net.ndjson" | grep -q '"hello":{"session":1,' \
  || { cp "$workdir/net.ndjson" "$out"; fail "socket session did not open with a hello"; }
tail -n1 "$workdir/net.ndjson" | grep -q '"bye":{"session":1,.*"drained":true' \
  || { cp "$workdir/net.ndjson" "$out"; fail "socket session did not close with a drained bye"; }

# Byte-compatibility: minus the lifecycle framing and the control ack, the
# socket session's records are exactly the pipe session's.
if ! diff <(grep -v -e '"hello":' -e '"bye":' -e '"control":' "$workdir/net.ndjson" | sort) \
          <(sort "$out") > /dev/null; then
  cp "$workdir/net.ndjson" "$out"
  fail "socket records diverge from pipe mode"
fi

# Graceful drain saved the snapshot (the sweep's six designs plus the
# single estimate's default-budget design).
[ -f "$netcache" ] || fail "drain did not save the --cache-file snapshot"
grep -q '0 design(s) loaded, 7 saved' "$workdir/net.err" \
  || { cp "$workdir/net.err" "$out"; fail "server did not report the drain-time snapshot save"; }

echo "serve_smoke: OK ($records records, 1 error record, warm-cache shard," \
     "persistent cache across sessions, capped-store evictions reported," \
     "non-UTF-8 line answered with an error record," \
     "shard merge == unsharded sweep, socket round trip byte-compatible" \
     "with pipe mode and drained cleanly)"
