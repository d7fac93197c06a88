#!/bin/sh
# cluster_local.sh — run a local 3-node secmemd cluster in the foreground:
# the README "Running a cluster" quickstart. Every member runs with
# -cluster-proxy, so a plain wire client on any member reaches every page.
# Ctrl-C tears everything down (members exit through their
# drain-and-verify path).
#
#   make cluster
#   # membership:     go run ./cmd/secmemadmin view -target 127.0.0.1:7401
#   # smart clients:  cluster.NewSmartClient over the member list below
#   # plain clients:  any server.Client on 127.0.0.1:7401..7403 (proxied)
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

PIDS=""
cleanup() {
    for pid in $PIDS; do kill -TERM "$pid" 2>/dev/null || true; done
    for pid in $PIDS; do wait "$pid" 2>/dev/null || true; done
}
trap cleanup EXIT INT TERM

for id in n1 n2 n3; do
    /tmp/secmemd -cluster-id "$id" -cluster "$MEMBERS" -cluster-proxy \
        -mem "$MEM" -data-dir "$DATA/$id" -fsync always &
    PIDS="$PIDS $!"
done

echo
echo "cluster up: members $MEMBERS"
echo "plain wire clients: any member's wire port (each proxies to the owner)"
echo "Ctrl-C to stop."
wait
