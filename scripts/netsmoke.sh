#!/usr/bin/env bash
# netsmoke drives a real svserve over TCP: it generates a recursive
# (fig7) document, starts the server on loopback (-anscache on), runs
# svload against it in closed-loop, open-loop, and repeated-query
# (Zipf-skewed) mode, asserts /explainz returns a full per-phase
# explain for a recursive query, validates /metricsz with promcheck and
# requires the answer cache to have served hits, checks /queryz
# fingerprint accounting against sv_pipeline_total and the structured
# event log for well-formed wide events, and finally SIGTERMs the
# server and requires a clean drain.
#
# Unlike `make loadsmoke` (in-process handler), this exercises the
# network path: ReadHeaderTimeout, real connections, graceful shutdown.
#
# Usage: scripts/netsmoke.sh [port]
set -euo pipefail

cd "$(dirname "$0")/.."

PORT="${1:-${NETSMOKE_PORT:-18344}}"
BASE="http://127.0.0.1:${PORT}"
WORK="$(mktemp -d)"
SRV_PID=""

cleanup() {
    if [ -n "$SRV_PID" ] && kill -0 "$SRV_PID" 2>/dev/null; then
        kill -KILL "$SRV_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "netsmoke: FAIL: $*" >&2
    if [ -s "$WORK/svserve.log" ]; then
        echo "netsmoke: server log:" >&2
        sed 's/^/  /' "$WORK/svserve.log" >&2
    fi
    exit 1
}

echo "netsmoke: building binaries"
go build -o "$WORK/bin/" ./cmd/svserve ./cmd/svload ./cmd/promcheck ./cmd/xmlgen

echo "netsmoke: generating recursive fig7 document"
"$WORK/bin/xmlgen" -builtin fig7 -seed 1 -max-repeat 3 -max-depth 12 >"$WORK/fig7.xml"

echo "netsmoke: starting svserve on $BASE"
"$WORK/bin/svserve" -builtin fig7 -doc "$WORK/fig7.xml" -addr "127.0.0.1:${PORT}" \
    -max-inflight 8 -timeout 250ms -read-header-timeout 2s -drain 10s \
    -anscache -trace-sample 1 -slow-query 5s \
    -eventlog "$WORK/events.jsonl" -eventlog-sample 1 >"$WORK/svserve.log" 2>&1 &
SRV_PID=$!

# Wait for the server to accept connections.
up=""
for _ in $(seq 1 100); do
    if curl -fsS -o /dev/null "$BASE/healthz" 2>/dev/null; then
        up=1
        break
    fi
    kill -0 "$SRV_PID" 2>/dev/null || fail "svserve exited before becoming healthy"
    sleep 0.1
done
[ -n "$up" ] || fail "svserve did not become healthy within 10s"

echo "netsmoke: closed-loop svload over TCP"
"$WORK/bin/svload" -url "$BASE" -builtin fig7 -levels 4,16 -duration 500ms \
    -timeout 250ms -out /dev/null -q

echo "netsmoke: open-loop svload over TCP (fixed 200 rps point)"
"$WORK/bin/svload" -url "$BASE" -builtin fig7 -rates 200 -duration 500ms \
    -timeout 250ms -out /dev/null -q

echo "netsmoke: repeated-query Zipf svload over TCP (answer cache serving path)"
"$WORK/bin/svload" -url "$BASE" -builtin fig7 -zipf 1.2 -levels 8 -duration 500ms \
    -timeout 250ms -out /dev/null -q

echo "netsmoke: large-document scenario (structural index serving path)"
"$WORK/bin/svload" -builtin hospital-large -levels 4 -duration 500ms \
    -timeout 250ms -out "$WORK/large.json" -q
python3 - "$WORK/large.json" <<'EOF' || fail "hospital-large run did not serve from the label index"
import json, sys
r = json.load(open(sys.argv[1]))
assert r["doc_nodes"] >= 10000, f'doc only {r["doc_nodes"]} nodes'
p = r["server_stats"]["pipeline"]
assert p["indexed_evals"] > 0, p
EOF

echo "netsmoke: /explainz on a recursive query"
curl -fsS --get "$BASE/explainz" \
    --data-urlencode "class=user" \
    --data-urlencode "q=//a//a/b" >"$WORK/explain.json" ||
    fail "/explainz request failed"
for field in '"rewrite_ns"' '"optimize_ns"' '"eval_ns"' '"rewritten"' '"optimized"' '"eval_mode"' '"trace"'; do
    grep -q "$field" "$WORK/explain.json" || fail "/explainz response missing $field"
done
# The explain path bypasses the plan cache, so all three phases must
# report nonzero durations even on a warm server.
python3 - "$WORK/explain.json" <<'EOF' || fail "/explainz phase timings not all positive"
import json, sys
e = json.load(open(sys.argv[1]))["explain"]
assert e["rewrite_ns"] > 0 and e["optimize_ns"] > 0 and e["eval_ns"] > 0, e
EOF

echo "netsmoke: /metricsz validates as Prometheus text exposition"
curl -fsS "$BASE/metricsz" >"$WORK/metrics.txt" || fail "/metricsz request failed"
"$WORK/bin/promcheck" "$WORK/metrics.txt" || fail "/metricsz failed promcheck"
grep -q '^sv_phase_duration_seconds_count{phase="rewrite"}' "$WORK/metrics.txt" ||
    fail "/metricsz missing per-phase histogram"
# The Zipf-skewed run repeats hot queries, so the answer cache must have
# served some of them.
awk '$1 == "sv_anscache_hits_total" { v = $2 } END { exit !(v > 0) }' "$WORK/metrics.txt" ||
    fail "/metricsz sv_anscache_hits_total not > 0 after repeated-query run"
# Every eval series must carry the node-set representation label, and
# the parsed (hence compacted) document must have produced bitset-path
# evals — losing either means the repr split regressed.
if grep '^sv_eval_total{' "$WORK/metrics.txt" | grep -qv 'repr='; then
    fail "/metricsz sv_eval_total series without a repr label"
fi
grep -q '^sv_eval_total{' "$WORK/metrics.txt" ||
    fail "/metricsz has no sv_eval_total series at all"
# The eval modes are sequential, indexed and cached; any other mode
# label means a deleted evaluator came back.
if grep '^sv_eval_total{' "$WORK/metrics.txt" | grep -Ev 'mode="(sequential|indexed|cached)"' | grep -q .; then
    fail "/metricsz sv_eval_total series with a mode outside {sequential, indexed, cached}"
fi
awk -F' ' '/^sv_eval_total\{.*repr="bitset"/ { sum += $2 } END { exit !(sum > 0) }' "$WORK/metrics.txt" ||
    fail '/metricsz sv_eval_total{repr="bitset"} not > 0 on a compacted document'
# The fingerprint-registry gauges must be present (promcheck above
# already validated their format) and the wide-event log must have
# recorded events at -eventlog-sample 1.
for series in sv_qstats_fingerprints sv_qstats_capacity sv_qstats_observations_total \
    sv_qstats_evictions_total sv_eventlog_events_total sv_eventlog_rotations_total; do
    grep -q "^$series " "$WORK/metrics.txt" || fail "/metricsz missing $series"
done
awk '$1 == "sv_eventlog_events_total" { v = $2 } END { exit !(v > 0) }' "$WORK/metrics.txt" ||
    fail "/metricsz sv_eventlog_events_total not > 0 with -eventlog-sample 1"

echo "netsmoke: /queryz fingerprint accounting"
curl -fsS "$BASE/queryz?n=0" >"$WORK/queryz.json" || fail "/queryz request failed"
# At quiescence the Count sum over every tracked fingerprint equals the
# registry's observation count equals sv_pipeline_total exactly.
python3 - "$WORK/queryz.json" "$WORK/metrics.txt" <<'EOF' || fail "/queryz accounting broken"
import json, sys
qz = json.load(open(sys.argv[1]))
rows = qz["top"]
assert rows, "no fingerprints tracked after load"
assert all(r["fingerprint"] and r["class"] and r["count"] > 0 for r in rows), rows
total = sum(r["count"] for r in rows)
pipeline = None
for line in open(sys.argv[2]):
    if line.startswith("sv_pipeline_total "):
        pipeline = int(float(line.split()[1]))
assert pipeline is not None, "sv_pipeline_total missing from /metricsz"
assert total == pipeline == qz["registry"]["observations"], (total, pipeline, qz["registry"])
EOF

echo "netsmoke: event log holds well-formed wide events"
[ -s "$WORK/events.jsonl" ] || fail "event log is empty with -eventlog-sample 1"
python3 - "$WORK/events.jsonl" <<'EOF' || fail "event log record malformed"
import json, sys
ev = json.loads(open(sys.argv[1]).readline())
for field in ("time_unix_us", "kind", "request_id", "class", "status",
              "query", "fingerprint", "total_us", "eval_us"):
    assert field in ev, f"missing {field}: {ev}"
assert ev["kind"] in ("sampled", "slow", "error"), ev
EOF

echo "netsmoke: draining (SIGTERM)"
curl -fsS "$BASE/healthz" >/dev/null || fail "healthz not OK before drain"
kill -TERM "$SRV_PID"
# Best-effort: catch the 503 drain window (may already be closed if all
# requests finished; the deterministic transition test lives in
# internal/serve). Then require a clean exit.
for _ in $(seq 1 20); do
    code="$(curl -s -o /dev/null -w '%{http_code}' "$BASE/healthz" 2>/dev/null || true)"
    [ "$code" = "503" ] && echo "netsmoke: observed 503 during drain"
    [ -z "$code" ] || [ "$code" = "000" ] && break
    sleep 0.05
done
for _ in $(seq 1 100); do
    kill -0 "$SRV_PID" 2>/dev/null || break
    sleep 0.1
done
kill -0 "$SRV_PID" 2>/dev/null && fail "svserve did not exit within 10s of SIGTERM"
SRV_PID=""
grep -q "shut down cleanly" "$WORK/svserve.log" || fail "svserve did not log a clean shutdown"

echo "netsmoke: PASS"
