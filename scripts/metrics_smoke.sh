#!/bin/sh
# metrics_smoke.sh — start a secmemd with the observability endpoints on,
# drive a little traced traffic through it, scrape /metrics through
# metricslint (prefix, HELP/TYPE, duplicate and value checks), and spot
# check that the request series actually moved. Used by `make
# metrics-smoke` and CI.
set -eu

cd "$(dirname "$0")/.."
ADDR="${ADDR:-127.0.0.1:7393}"
HEALTH="${HEALTH:-127.0.0.1:7394}"

go build -o /tmp/secmemd ./cmd/secmemd
go build -o /tmp/loadgen ./cmd/loadgen
go build -o /tmp/metricslint ./cmd/metricslint

/tmp/secmemd -listen "$ADDR" -health "$HEALTH" -shards 4 -mem 16MiB &
PID=$!
trap 'kill -TERM $PID 2>/dev/null || true' EXIT INT TERM

i=0
until /tmp/loadgen -addr "$ADDR" -conns 1 -ops 1 -mixes 1.0 >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && { echo "secmemd did not come up" >&2; exit 1; }
    sleep 0.1
done

# Traced traffic so the trace rings and every request series move.
/tmp/loadgen -addr "$ADDR" -conns 4 -ops 2000 -mixes 0.5 \
    -scrape "http://$HEALTH" -trace

# The exposition must satisfy the metric conventions end to end.
/tmp/metricslint -url "http://$HEALTH/metrics"

# Spot checks: the hot-path series moved and the pool section is present.
SCRAPE=$(curl -s "http://$HEALTH/metrics" 2>/dev/null || wget -qO- "http://$HEALTH/metrics")
echo "$SCRAPE" | grep -q '^secmemd_requests_total{op="read",status="ok"} [1-9]' ||
    { echo "request counter did not move" >&2; exit 1; }
echo "$SCRAPE" | grep -q '^secmemd_shard_state{shard="0",state="serving"} 1' ||
    { echo "pool scrape section missing" >&2; exit 1; }
echo "$SCRAPE" | grep -q '^secmemd_pool_untrusted_bytes [1-9]' ||
    { echo "untrusted memory gauge missing" >&2; exit 1; }
echo "$SCRAPE" | grep -q '^secmemd_build_info{' ||
    { echo "build info gauge missing" >&2; exit 1; }

kill -TERM $PID
wait $PID
trap - EXIT INT TERM
echo "metrics smoke passed"
