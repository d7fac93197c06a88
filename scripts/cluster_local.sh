#!/bin/sh
# cluster_local.sh — run a local 3-node secmemd cluster plus a router in
# the foreground: the README "Running a cluster" quickstart. Ctrl-C tears
# everything down (members exit through their drain-and-verify path).
#
#   make cluster
#   # membership:     go run ./cmd/secmemrouter -admin view -target 127.0.0.1:7401
#   # smart clients:  cluster.NewSmartClient over the member list below
#   # dumb clients:   any server.Client on 127.0.0.1:7400 (via the router)
#
# cmd/secmemd/smoke_test.go (make smoke) drives the same topology from Go:
# traffic, metrics lint, failover, join and leave.
set -eu

cd "$(dirname "$0")/.."
BASE="${BASE:-127.0.0.1}"
MEM="${MEM:-16MiB}"
DATA="${DATA:-/tmp/secmemd-cluster-local}"

MEMBERS="n1=$BASE:7401/$BASE:9401/$BASE:8401,n2=$BASE:7402/$BASE:9402/$BASE:8402,n3=$BASE:7403/$BASE:9403/$BASE:8403"

go build -o /tmp/secmemd ./cmd/secmemd
go build -o /tmp/secmemrouter ./cmd/secmemrouter

PIDS=""
cleanup() {
    for pid in $PIDS; do kill -TERM "$pid" 2>/dev/null || true; done
    for pid in $PIDS; do wait "$pid" 2>/dev/null || true; done
}
trap cleanup EXIT INT TERM

for id in n1 n2 n3; do
    /tmp/secmemd -cluster-id "$id" -cluster "$MEMBERS" \
        -mem "$MEM" -data-dir "$DATA/$id" -fsync always &
    PIDS="$PIDS $!"
done
/tmp/secmemrouter -listen "$BASE:7400" -health "$BASE:9400" -cluster "$MEMBERS" &
PIDS="$PIDS $!"

echo
echo "cluster up: members $MEMBERS"
echo "router (plain wire protocol) on $BASE:7400, health on $BASE:9400"
echo "Ctrl-C to stop."
wait
