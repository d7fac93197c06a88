# Tier-1 gate for the aisebmt reproduction and its service layer.
#
#   make check           vet + build + full test suite + race pass on the
#                        concurrent packages (what CI and ROADMAP's tier-1
#                        line run)
#   make race            only the race pass (internal/shard, internal/server,
#                        internal/persist)
#   make fuzz            a short fuzz session on the wire codec
#   make fuzz-smoke      brief fuzz pass over every decoder that parses
#                        untrusted bytes (wire, WAL record, sealed anchor,
#                        counter block) and the controller's byte-granular
#                        span path; CI runs this after check
#   make bench           service benchmark: start secmemd, drive it with
#                        loadgen, write BENCH_service.json
#   make bench-recovery  crash-recovery benchmark: restart-to-first-byte vs
#                        WAL length per fsync policy, BENCH_recovery.json
#   make bench-crypto    crypto hot-path microbenchmarks: overhauled engines
#                        vs their frozen reference implementations,
#                        BENCH_crypto.json
#   make bench-integrity Merkle tree update-engine benchmarks: batched,
#                        coalescing passes vs the frozen serial reference
#                        walk, plus e2e pool write throughput,
#                        BENCH_integrity.json
#   make bench-smoke     one-iteration pass over every microbenchmark (CI
#                        keeps them compiling and allocation-clean)
#   make metrics-smoke   start a daemon with observability on, drive traced
#                        traffic, lint the /metrics exposition (prefix,
#                        HELP/TYPE, duplicates); CI runs this after check
#   make bench-cluster   cluster benchmark: 3-node smoke with metrics lint,
#                        then single-daemon vs cluster throughput and a
#                        kill-the-owner failover phase, BENCH_cluster.json
#   make cluster-smoke   the same at CI sizes (short duration, small pool);
#                        CI runs this after check
#   make lifecycle-smoke cluster lifecycle end-to-end over real daemons:
#                        admin join via the wire op, kill-the-owner failover
#                        with automatic re-replication, fenced rejoin of the
#                        stale member, admin leave with verified handoff;
#                        CI runs this after the cluster smoke
#   make cluster         run a local 3-node cluster + router in the
#                        foreground (the README quickstart); Ctrl-C stops it
#   make chaos           deterministic fault-injection matrix (cmd/chaos):
#                        bit-flips, rollback, WAL faults, torn writes, slow
#                        I/O and multi-tenant attacks against a live durable
#                        pool; CI runs a short smoke of it
#   make tenant-smoke    start a tenant-enabled daemon (swap scheme +
#                        resident budget), drive tenant churn over the wire,
#                        lint the exposition incl. secmemd_tenant_*, then
#                        SIGKILL a tenant-durable daemon and assert the
#                        restart serves every acked tenant byte; CI runs
#                        this after check
#   make bench-tenants   multi-tenant benchmark suites: lifecycle churn
#                        (with a -tenant-serialize A/B baseline),
#                        swap-under-pressure with client-side shadowing,
#                        counter-overflow re-encryption storm, SIGKILL
#                        kill-and-recover, BENCH_tenants.json

GO ?= go

.PHONY: check vet build test race fuzz fuzz-smoke bench bench-recovery bench-crypto bench-integrity bench-smoke chaos chaos-smoke metrics-smoke bench-cluster cluster-smoke lifecycle-smoke cluster tenant-smoke bench-tenants

check: vet build test race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/integrity/... ./internal/obs/... ./internal/shard/... ./internal/server/... ./internal/persist/... ./internal/cluster/... ./internal/chaos/... ./internal/vm/... ./internal/tenant/...

fuzz:
	$(GO) test -run=none -fuzz=FuzzRequestRoundTrip -fuzztime=20s ./internal/server/

fuzz-smoke:
	$(GO) test -run=none -fuzz=FuzzRequestRoundTrip -fuzztime=5s ./internal/server/
	$(GO) test -run=none -fuzz=FuzzTenantDispatch -fuzztime=5s ./internal/server/
	$(GO) test -run=none -fuzz=FuzzWALRecord -fuzztime=5s ./internal/persist/
	$(GO) test -run=none -fuzz=FuzzWALScan -fuzztime=5s ./internal/persist/
	$(GO) test -run=none -fuzz=FuzzAnchor -fuzztime=5s ./internal/persist/
	$(GO) test -run=none -fuzz=FuzzAgainstStdlib -fuzztime=5s ./internal/crypto/aes/
	$(GO) test -run=none -fuzz=FuzzAgainstStdlib -fuzztime=5s ./internal/crypto/hmac/
	$(GO) test -run=none -fuzz=FuzzAgainstStdlib -fuzztime=5s ./internal/crypto/sha1/
	$(GO) test -run=none -fuzz=FuzzDecodeEncode -fuzztime=5s ./internal/counter/
	$(GO) test -run=none -fuzz=FuzzWriteRead -fuzztime=5s ./internal/core/

chaos: build
	$(GO) run ./cmd/chaos -rounds 3
	$(GO) run ./cmd/chaos -rounds 3 -seed 42

chaos-smoke: build
	$(GO) run ./cmd/chaos -rounds 1 -q

bench: build
	./scripts/bench_service.sh

bench-recovery: build
	./scripts/bench_recovery.sh

bench-crypto:
	./scripts/bench_crypto.sh

bench-integrity:
	./scripts/bench_integrity.sh

bench-smoke:
	$(GO) test -run=none -bench . -benchtime 1x ./internal/crypto/... ./internal/counter/... ./internal/integrity/... ./internal/core/... ./internal/shard/... .

metrics-smoke: build
	./scripts/metrics_smoke.sh

bench-cluster: build
	./scripts/bench_cluster.sh

cluster-smoke: build
	DURATION=1s MEM=4MiB CONNS=4 ./scripts/bench_cluster.sh

lifecycle-smoke: build
	./scripts/lifecycle_smoke.sh

cluster: build
	./scripts/cluster_local.sh

tenant-smoke: build
	./scripts/tenant_smoke.sh

bench-tenants: build
	./scripts/bench_tenants.sh
