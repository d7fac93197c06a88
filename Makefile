# Tier-1 gate for the aisebmt reproduction and its service layer.
#
#   make check           vet + build + cross-build + full test suite + race
#                        pass on the concurrent packages (what CI and
#                        ROADMAP's tier-1 line run)
#   make cross           the builds without the amd64 assembly: vet the
#                        portable paths of the MAC engine (SHA-1), the pad
#                        kernel (AES) and the controller and memory above
#                        them for arm64, and build everything for 386
#   make race            only the race pass (internal/mem, internal/shard,
#                        internal/server, internal/persist, ...)
#   make fuzz            a short fuzz session on the wire codec
#   make fuzz-smoke      brief fuzz pass over every decoder that parses
#                        untrusted bytes (wire, WAL record, sealed anchor,
#                        counter block, tenant journal restore, the chunked
#                        memory image decoder against its per-record
#                        reader, the snapshot framing walk against the
#                        byte-slice walk it replaced), the controller's
#                        byte-granular span path, the untrusted-memory
#                        model against its map oracle,
#                        the controller's AES/HMAC engines against the
#                        from-scratch ciphers and the tree's sweep walk
#                        against the full walk; CI runs this after check
#   make bench           the service benchmark (go run ./bench): the real
#                        secmemd under the four BENCHMARK.json workloads,
#                        end-to-end metrics per workload; exits non-zero
#                        if any run is not correct
#   make bench-quick     the same in its smoke shape (one 2s slice, one
#                        restart); CI runs this after check
#   make bench-smoke     one-iteration pass over every microbenchmark (CI
#                        keeps them compiling and allocation-clean),
#                        including the tree engine's serial-reference pair
#   make metrics-smoke   the smoke legs that lint a real daemon's /metrics,
#                        one of them after a SIGKILL recovery (phase gauges)
#   make smoke           end-to-end smoke over real secmemd processes
#                        (cmd/secmemd/smoke_test.go, build tag smoke):
#                        metrics lint and spot checks, a cordoned shard,
#                        tenant churn/pressure/overflow and SIGKILL
#                        recovery, cluster failover with zero acked-write
#                        loss, and the join/failover/fenced-rejoin/leave
#                        lifecycle; CI runs this after check
#   make cluster         run a local 3-node proxying cluster in the
#                        foreground (the README quickstart); Ctrl-C stops it
#   make chaos           the deterministic fault-injection matrix for three
#                        rounds (TestChaosMatrix and TestChaosSurvivesRestart,
#                        seeds 1 and 42): bit-flips, rollback, WAL faults,
#                        torn writes, slow I/O and multi-tenant attacks
#                        against a live durable pool; make test runs the
#                        same tests at two rounds, and the cluster half runs
#                        as internal/cluster TestClusterChaos

GO ?= go

.PHONY: check vet build cross test race fuzz fuzz-smoke bench bench-quick bench-smoke metrics-smoke smoke chaos cluster

check: vet build cross test race

vet:
	$(GO) vet ./...
	$(GO) vet -tags smoke ./cmd/secmemd/

build:
	$(GO) build ./...

cross:
	GOARCH=arm64 $(GO) vet ./internal/cpuid/... ./internal/integrity/... ./internal/encrypt/... ./internal/mem/... ./internal/core/...
	GOARCH=386 $(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/mem/... ./internal/integrity/... ./internal/obs/... ./internal/shard/... ./internal/server/... ./internal/persist/... ./internal/cluster/... ./internal/chaos/... ./internal/vm/... ./internal/tenant/...

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
	$(GO) test -run=none -fuzz=FuzzEngineMatchesScratch -fuzztime=5s ./internal/encrypt/
	$(GO) test -run=none -fuzz=FuzzEngineMatchesScratch -fuzztime=5s ./internal/integrity/
	$(GO) test -run=none -fuzz=FuzzVerifySweep -fuzztime=5s ./internal/integrity/
	$(GO) test -run=none -fuzz=FuzzDecodeEncode -fuzztime=5s ./internal/counter/
	$(GO) test -run=none -fuzz=FuzzWriteRead -fuzztime=5s ./internal/core/
	$(GO) test -run=none -fuzz=FuzzRestore -fuzztime=5s ./internal/tenant/journal/
	$(GO) test -run=none -fuzz=FuzzMemoryOps -fuzztime=5s ./internal/mem/
	$(GO) test -run=none -fuzz=FuzzDeserialize -fuzztime=5s ./internal/mem/
	$(GO) test -run=none -fuzz=FuzzSnapshotSections -fuzztime=5s ./internal/shard/

chaos:
	$(GO) test -count=1 -run TestChaos ./internal/chaos/ -chaos.rounds 3

bench:
	$(GO) run ./bench

bench-quick:
	$(GO) run ./bench -quick

bench-smoke:
	$(GO) test -run=none -bench . -benchtime 1x ./internal/mem/... ./internal/crypto/... ./internal/encrypt/... ./internal/counter/... ./internal/integrity/... ./internal/core/... ./internal/shard/... .

metrics-smoke:
	$(GO) test -tags smoke -count=1 -run 'TestSmokeMetrics|TestSmokeTenantRecover' ./cmd/secmemd/

smoke:
	$(GO) test -tags smoke -count=1 ./cmd/secmemd/

cluster: build
	./scripts/cluster_local.sh
