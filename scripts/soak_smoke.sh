#!/bin/sh
# Soak test for the serving-and-measuring loop: a real `urs serve`
# under sustained open-loop solve traffic must come out healthy —
# zero 5xx on either side of the wire, a finite p99 from the
# histogram-quantile export, `urs slo check` exit 0, burn-rate gauges
# in /metrics and "slo" records in the ledger — and the same server
# with a deliberately crippled solver (--solve-max-iter 1) must flip
# `urs slo check` to exit 1 and journal the breach. Used by
# `make soak-smoke` (and hence `make ci`).
#
# The healthy leg also soaks the telemetry pipeline: the ledger runs
# with rotation (--ledger-max-bytes 65536 --ledger-keep 3) and batched
# flushing (--ledger-flush-every 64), and afterwards the disk footprint
# must be bounded (at most 4 files, at most 256 KiB total) with
# every surviving segment parseable. A third, bounded-traffic leg keeps
# enough retention that nothing is deleted and cross-checks `urs query`
# per-route counts against the server's urs_http_requests_total.
#
# SOAK_SECONDS (default 60) bounds the loadgen leg.
set -eu

PORT="${URS_SOAK_PORT:-9117}"
PORT2=$((PORT + 1))
SOAK_SECONDS="${SOAK_SECONDS:-60}"
BIN=./_build/default/bin/urs_cli.exe
LOG=/tmp/urs_soak.log
LEDGER=/tmp/urs_soak_ledger.jsonl
CRIPPLED_LOG=/tmp/urs_soak_crippled.log
CRIPPLED_LEDGER=/tmp/urs_soak_crippled_ledger.jsonl
OUT=/tmp/urs_soak_loadgen.json

fail() {
  echo "soak-smoke: $1" >&2
  exit 1
}

PID=""
trap 'kill "$PID" 2>/dev/null || true' EXIT

wait_up() {
  # serve runs a quick doctor pass before it starts listening
  i=0
  while [ $i -lt 100 ]; do
    if curl -sf "http://127.0.0.1:$1/healthz" >/dev/null 2>&1; then
      return 0
    fi
    i=$((i + 1))
    sleep 0.2
  done
  echo "soak-smoke: server never answered on port $1" >&2
  cat "$2" >&2
  exit 1
}

# ---- healthy leg: sustained solve traffic, SLOs must hold ----

rm -f "$LEDGER" "$LEDGER".* "$OUT"
"$BIN" serve --port "$PORT" --ledger "$LEDGER" \
  --ledger-max-bytes 65536 --ledger-keep 3 --ledger-flush-every 64 \
  >"$LOG" 2>&1 &
PID=$!
wait_up "$PORT" "$LOG"

# open-loop Poisson arrivals on POST /solve: the parser, cache and
# (on the first miss) the solver are on the request path; latency is
# measured from the scheduled arrival, so a stalled server cannot
# hide behind a slowed generator
"$BIN" loadgen --port "$PORT" --mode open --rate 50 --workers 4 \
  --duration "$SOAK_SECONDS" --solve -o "$OUT" >/dev/null

# zero 5xx, zero transport errors, zero timeouts — as the client saw it
grep -q '"errors":0' "$OUT" || fail "loadgen counted non-2xx responses (see $OUT)"
grep -q '"timeouts":0' "$OUT" || fail "loadgen counted timeouts (see $OUT)"
if grep -q '"5[0-9][0-9]":' "$OUT"; then
  fail "loadgen saw 5xx status codes (see $OUT)"
fi

# ... and as the server counted it
if curl -sf "http://127.0.0.1:$PORT/metrics" |
  grep -q '^urs_http_requests_total{code="5'; then
  fail "server-side RED metrics count 5xx responses"
fi

# the p99 of the solve route, interpolated from the histogram by the
# quantile export, must be a finite bounded number
p99=$(curl -sf "http://127.0.0.1:$PORT/metrics" |
  sed -n 's/^urs_http_request_seconds_quantile{quantile="0.99",route="\/solve"} //p')
[ -n "$p99" ] || fail "no p99 quantile for route /solve in /metrics"
ok=$(printf '%s\n' "$p99" | awk '$1 + 0 > 0 && $1 + 0 < 1.0 { print "ok" }')
[ "$ok" = "ok" ] || fail "/solve p99 is $p99 (want finite, 0 < p99 < 1s)"

# the objectives hold: exit 0, burn-rate gauges exported, slo records
# journaled (`slo check` evaluates the engine, which publishes both)
"$BIN" slo check --port "$PORT" || fail "slo check reported a breach on a healthy run"
curl -sf "http://127.0.0.1:$PORT/metrics" | grep -q '^urs_slo_burn_rate{' ||
  fail "no urs_slo_burn_rate gauges in /metrics"

# stop the server first: with --ledger-flush-every 64 the newest
# records (the slo evaluation among them) may still be buffered, and
# close flushes
kill "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true

grep -q '"kind":"slo"' "$LEDGER" || fail "no slo records in the ledger"
grep '"kind":"slo"' "$LEDGER" | grep -q '"outcome":"ok"' ||
  fail "no ok-outcome slo records in the ledger"

# ---- rotation kept the journal bounded and every segment readable ----

# every file the ledger wrote counts, not only the numbered segments
seg_count=$(ls "$LEDGER"* 2>/dev/null | wc -l)
[ "$seg_count" -le 4 ] ||
  fail "$seg_count ledger files on disk (want <= keep + 1 = 4)"
total_bytes=$(cat "$LEDGER"* 2>/dev/null | wc -c)
[ "$total_bytes" -le 262144 ] ||
  fail "ledger files total $total_bytes bytes (want <= 256 KiB)"
[ -f "$LEDGER.1" ] || fail "a ${SOAK_SECONDS}s soak never rotated the ledger"

# `urs query` streams every segment; zero malformed lines means each
# surviving segment parses end to end
qjson=$("$BIN" query --ledger "$LEDGER" --format json)
printf '%s\n' "$qjson" | grep -q '"malformed":0' ||
  fail "rotated ledger has malformed lines: $qjson"

# ---- crippled leg: a starved solver must trip the error-rate SLO ----

rm -f "$CRIPPLED_LEDGER"
"$BIN" serve --port "$PORT2" --ledger "$CRIPPLED_LEDGER" \
  --solve-max-iter 1 >"$CRIPPLED_LOG" 2>&1 &
PID=$!
wait_up "$PORT2" "$CRIPPLED_LOG"

# every solve now fails to converge and comes back 500
i=0
while [ $i -lt 20 ]; do
  curl -s -o /dev/null -X POST -H 'Content-Type: application/json' \
    -d '{"scenario":"paper"}' "http://127.0.0.1:$PORT2/solve"
  i=$((i + 1))
done

rc=0
"$BIN" slo check --port "$PORT2" >/dev/null || rc=$?
[ "$rc" = "1" ] || fail "slo check exited $rc on a crippled server (want 1)"
curl -sf "http://127.0.0.1:$PORT2/metrics" | grep -q '^urs_slo_burn_rate{' ||
  fail "no urs_slo_burn_rate gauges on the crippled server"
grep '"kind":"slo"' "$CRIPPLED_LEDGER" | grep -q '"outcome":"breach"' ||
  fail "no breach-outcome slo records in the crippled ledger"

kill "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true

# ---- bounded leg: ledger counts must reconcile with RED metrics ----
#
# Rotation is active but retention is generous (traffic volume stays
# far below keep * max_bytes), so no record is ever deleted: the
# per-route request counts `urs query` reads back from the journal
# must equal the server's own urs_http_requests_total counters.

PORT3=$((PORT + 2))
ROT_LEDGER=/tmp/urs_soak_rot_ledger.jsonl
ROT_LOG=/tmp/urs_soak_rot.log
METRICS_SNAP=/tmp/urs_soak_rot_metrics.txt
COUNTS=/tmp/urs_soak_rot_counts.txt

rm -f "$ROT_LEDGER" "$ROT_LEDGER".*
"$BIN" serve --port "$PORT3" --ledger "$ROT_LEDGER" \
  --ledger-max-bytes 16384 --ledger-keep 64 >"$ROT_LOG" 2>&1 &
PID=$!
wait_up "$PORT3" "$ROT_LOG"

"$BIN" loadgen --port "$PORT3" --mode open --rate 40 --workers 2 \
  --duration 5 --solve -o /dev/null >/dev/null

# snapshot the counters, then stop the server so the tail is flushed
curl -sf "http://127.0.0.1:$PORT3/metrics" >"$METRICS_SNAP" ||
  fail "no /metrics snapshot from the bounded-leg server"
kill "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true

[ -f "$ROT_LEDGER.1" ] || fail "bounded leg never rotated the ledger"

"$BIN" query --ledger "$ROT_LEDGER" --kind http.access \
  --group-by route --format data >"$COUNTS" ||
  fail "urs query failed on the bounded-leg ledger"

routes_checked=0
while read -r route count; do
  case "$route" in
  \#* | "") continue ;;
  /metrics) continue ;; # the snapshot request itself is in flight
  esac
  srv=$(awk -v want="route=\"$route\"" '
    /^urs_http_requests_total\{/ && index($0, want) { sum += $2 }
    END { printf "%d", sum }' "$METRICS_SNAP")
  [ "$srv" = "$count" ] ||
    fail "route $route: ledger counts $count, server counted $srv"
  routes_checked=$((routes_checked + 1))
done <"$COUNTS"
[ "$routes_checked" -ge 1 ] || fail "no routes to reconcile (see $COUNTS)"

echo "soak-smoke: ok"
