// Command secmemd runs the secure-memory service daemon: a page-sharded
// pool of secure memory controllers behind the wire protocol of
// internal/server.
//
// Usage:
//
//	secmemd -listen 127.0.0.1:7393 -shards 4 -mem 16MiB -scheme aise-bmt
//	secmemd -data-dir /var/lib/secmemd -fsync always -snapshot-every 1m
//
// The daemon serves read/write/verify/root/stats/swapout/swapin/hibernate
// requests (the benchmark harness, go run ./bench, drives it end to end)
// and shuts down gracefully on SIGINT/SIGTERM: it stops accepting work,
// drains every shard queue, and verifies the integrity of every shard
// before exiting. A non-zero exit code after a signal means the final
// integrity sweep failed.
//
// With -data-dir the daemon is durable: every mutation is group-committed
// to a per-shard write-ahead log before it is acknowledged (-fsync picks
// the sync policy), snapshots are cut periodically (-snapshot-every) and
// at shutdown, and on startup the state is recovered — snapshot resumed,
// WAL replayed, Bonsai roots re-verified — before the first request is
// answered. The listener opens during recovery; requests simply wait. If
// recovery detects on-disk tampering the daemon refuses to start.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"aisebmt/internal/cluster"
	"aisebmt/internal/core"
	"aisebmt/internal/obs"
	"aisebmt/internal/persist"
	"aisebmt/internal/server"
	"aisebmt/internal/shard"
	"aisebmt/internal/tenant"
)

// schemes maps the -scheme presets to controller configurations.
var schemes = map[string]struct {
	enc core.EncryptionScheme
	itg core.IntegrityScheme
}{
	"aise-bmt":    {core.AISE, core.BonsaiMT},
	"aise-mt":     {core.AISE, core.MerkleTree},
	"aise":        {core.AISE, core.NoIntegrity},
	"global64-mt": {core.CtrGlobal64, core.MerkleTree},
	"none":        {core.NoEncryption, core.NoIntegrity},
}

func main() {
	listen := flag.String("listen", "127.0.0.1:7393", "TCP listen address")
	shardsN := flag.Int("shards", shard.DefaultShards, "number of independent secure-memory shards")
	queue := flag.Int("queue", shard.DefaultQueueDepth, "bounded request-queue depth per shard")
	batch := flag.Int("batch", shard.DefaultBatchMax, "max requests executed per shard lock acquisition")
	memSize := flag.String("mem", "16MiB", "pool-wide protected data size (bytes, or KiB/MiB suffix)")
	scheme := flag.String("scheme", "aise-bmt", "protection preset: aise-bmt, aise-mt, aise, global64-mt, none")
	macBits := flag.Int("macbits", 128, "MAC width in bits (32, 64, 128, 256)")
	swapSlots := flag.Int("swapslots", 64, "Page Root Directory slots per shard (0 disables swap)")
	residentPages := flag.Int("resident-pages", 0, "tenant memory-pressure budget: swap cold tenant pages out once more than this many are resident (0 disables the controller; requires a swap-capable scheme)")
	tenantDurable := flag.Bool("tenant-durable", true, "journal tenant address spaces through -data-dir with the pool's -fsync guarantee: a restarted daemon serves every acknowledged tenant byte after a process crash, and after a power cut too under -fsync always (batch/off roll tenants back to a consistent prefix); no effect without -data-dir; the raw swapout/swapin wire ops are refused")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request timeout (queueing included)")
	keyHex := flag.String("key", "", "32 hex chars of processor key (default: a fixed demo key)")
	drain := flag.Duration("drain", 10*time.Second, "connection drain budget at shutdown")
	dataDir := flag.String("data-dir", "", "durability directory (WAL + snapshots); empty runs in-memory only")
	fsyncMode := flag.String("fsync", "always", "WAL sync policy: always (sync before ack), batch (background interval), off")
	snapEvery := flag.Duration("snapshot-every", time.Minute, "background snapshot + WAL truncation period (0 disables; requires -data-dir)")
	healthAddr := flag.String("health", "", "HTTP address for /healthz and /readyz probes (empty disables)")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the -health address")
	clusterID := flag.String("cluster-id", "", "this node's member ID; enables cluster mode (requires -cluster and -data-dir)")
	clusterList := flag.String("cluster", "", "static membership: comma-separated id=wire/health/repl entries")
	clusterProxy := flag.Bool("cluster-proxy", false, "forward misrouted requests to their owner instead of answering NotOwner")
	clusterJoinAddr := flag.String("cluster-join", "", "seed member's repl address: bootstrap membership from its sealed view instead of -cluster (waits until an admin admits -cluster-id via the cluster-join wire op)")
	rereplGrace := flag.Duration("rerepl-grace", 0, "bound on the single-copy grace window after a promotion before writes stall on re-replication (0 = default)")
	treeWorkers := flag.Int("tree-workers", 4, "hash fan-out of the batched Merkle tree update engine per shard batch (<=1 hashes on the worker goroutine)")
	treeCache := flag.Int("tree-cache", 1024, "write-back cache of tree node storage blocks per shard (0 disables)")
	showVersion := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *showVersion {
		bi := obs.ReadBuildInfo()
		fmt.Printf("secmemd %s (%s, rev %s", bi.Version, bi.GoVersion, bi.Revision)
		if bi.Modified {
			fmt.Print(", modified")
		}
		fmt.Println(")")
		return
	}

	logger := log.New(os.Stderr, "secmemd: ", log.LstdFlags)

	bytes, err := parseSize(*memSize)
	if err != nil {
		logger.Fatalf("-mem: %v", err)
	}
	preset, ok := schemes[*scheme]
	if !ok {
		logger.Fatalf("-scheme: unknown preset %q", *scheme)
	}
	key := []byte("secmemd-demo-key")
	if *keyHex != "" {
		key, err = parseKey(*keyHex)
		if err != nil {
			logger.Fatalf("-key: %v", err)
		}
	}
	slots := *swapSlots
	if preset.itg != core.BonsaiMT {
		slots = 0 // swap protection is a BMT feature; other presets run without it
	}

	// Cluster mode: the member list is the single source of addresses, so
	// every node built from the same -cluster string agrees on where every
	// peer listens. Our own entry overrides -listen and (if unset) -health.
	var (
		clusterMembers []cluster.Member
		clusterSelf    cluster.Member
		clusterView    *cluster.View
	)
	if *clusterID != "" {
		if *clusterList == "" && *clusterJoinAddr == "" {
			logger.Fatalf("-cluster-id requires -cluster or -cluster-join")
		}
		if *dataDir == "" {
			logger.Fatalf("cluster mode requires -data-dir: replication ships sealed WAL segments")
		}
		if *clusterJoinAddr != "" {
			// Join bootstrap: the seed's sealed view is the membership. An
			// admin admits this ID on a live member (cluster-join wire op);
			// until that lands we are not in the view, so poll.
			waiting := false
			for {
				v, ferr := cluster.FetchView(*clusterJoinAddr, key, 5*time.Second)
				if ferr == nil {
					listed := false
					for _, m := range v.Members {
						if m.ID == *clusterID {
							listed = true
							break
						}
					}
					if listed {
						clusterView, clusterMembers = v, v.Members
						break
					}
				}
				if !waiting {
					logger.Printf("cluster: waiting for %q to be admitted at seed %s (err=%v)", *clusterID, *clusterJoinAddr, ferr)
					waiting = true
				}
				time.Sleep(2 * time.Second)
			}
			logger.Printf("cluster: joined view epoch %d via seed %s (%d members)", clusterView.Epoch, *clusterJoinAddr, len(clusterMembers))
		} else {
			clusterMembers, err = cluster.ParseMembers(*clusterList)
			if err != nil {
				logger.Fatalf("-cluster: %v", err)
			}
		}
		found := false
		for _, m := range clusterMembers {
			if m.ID == *clusterID {
				clusterSelf, found = m, true
				break
			}
		}
		if !found {
			logger.Fatalf("-cluster-id: %q not in -cluster member list", *clusterID)
		}
		*listen = clusterSelf.Wire
		if *healthAddr == "" {
			*healthAddr = clusterSelf.Health
		}
		// A background snapshot rotates the WAL epoch; the shipper's rotate
		// hook re-baselines its follower after each checkpoint (writes stall
		// briefly until it re-attaches), so periodic snapshots are safe but
		// still default off in cluster mode unless asked for.
		snapSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "snapshot-every" {
				snapSet = true
			}
		})
		if !snapSet {
			*snapEvery = 0
		} else if *snapEvery > 0 {
			logger.Printf("cluster: note: -snapshot-every=%s rotates the WAL epoch; the replication stream re-baselines its follower after each checkpoint", *snapEvery)
		}
	}

	// One observability service backs every layer: the pool registers its
	// worker instruments and trace rings, persist deposits commit-stage
	// costs, and the server registers the request-level series. Scrape it
	// at /metrics on the -health address.
	obsSvc := obs.NewService(*shardsN, obs.DefaultRingSize)
	obs.RegisterBuildInfo(obsSvc.Reg, obs.ReadBuildInfo())

	cfg := shard.Config{
		Shards:     *shardsN,
		QueueDepth: *queue,
		BatchMax:   *batch,
		Obs:        obsSvc,
		Core: core.Config{
			DataBytes:           bytes,
			MACBits:             *macBits,
			Key:                 key,
			Encryption:          preset.enc,
			Integrity:           preset.itg,
			SwapSlots:           slots,
			TreeUpdateWorkers:   *treeWorkers,
			TreeNodeCacheBlocks: *treeCache,
		},
	}

	var store *persist.Store
	var fsyncPolicy persist.Policy
	if *dataDir != "" {
		policy, err := persist.ParsePolicy(*fsyncMode)
		if err != nil {
			logger.Fatalf("-fsync: %v", err)
		}
		fsyncPolicy = policy
		store, err = persist.Open(persist.Options{
			Dir:           *dataDir,
			Key:           key,
			Fsync:         policy,
			SnapshotEvery: *snapEvery,
			Logf:          logger.Printf,
			Obs:           obsSvc,
		})
		if err != nil {
			logger.Fatalf("persist: %v", err)
		}
		// Tenant durability journals through the store's auxiliary WAL; it
		// must be armed before Recover so the replay collects the pool
		// events the tenant journal reconciles against. Cluster nodes
		// don't run the tenant layer, so they never enable it.
		if *tenantDurable && *clusterID == "" && slots > 0 {
			store.EnableAux()
		}
	}

	srvOpts := server.Options{
		Timeout: *timeout,
		Logf:    logger.Printf,
		Obs:     obsSvc,
	}
	if store != nil {
		srvOpts.Checkpoint = func() (string, int64, error) {
			if err := store.Checkpoint(); err != nil {
				return "", 0, err
			}
			path, n := store.LastSnapshot()
			return path, n, nil
		}
	}
	srv := server.NewGated(srvOpts)

	// The health endpoint opens before recovery too: orchestrators can
	// probe liveness immediately, and /readyz reports recovery-pending
	// until the pool is published.
	var healthSrv *http.Server
	if *healthAddr != "" {
		hln, err := net.Listen("tcp", *healthAddr)
		if err != nil {
			logger.Fatalf("health listen: %v", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/", srv.HealthHandler())
		srv.ObsHandler(mux, *pprofOn)
		healthSrv = &http.Server{Handler: mux}
		go func() {
			if err := healthSrv.Serve(hln); err != nil && err != http.ErrServerClosed {
				logger.Printf("health server: %v", err)
			}
		}()
		extra := ""
		if *pprofOn {
			extra = ", /debug/pprof"
		}
		logger.Printf("health probes on http://%s/healthz and /readyz (/metrics, /tracez%s)", hln.Addr(), extra)
	}

	// Install the signal handler before the listener becomes visible, so a
	// supervisor that probes the port and then signals us always gets the
	// graceful drain-and-verify path.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	// The port opens before recovery: clients connect immediately and
	// their requests wait on the gate, so restart-to-first-byte is
	// recovery-bound, not retry-bound.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	var pool *shard.Pool
	if store != nil {
		logger.Printf("recovering from %s (fsync=%s)", *dataDir, *fsyncMode)
		var info persist.RecoveryInfo
		pool, info, err = store.Recover(cfg)
		if err != nil {
			logger.Fatalf("recovery failed closed: %v", err)
		}
		if !info.Fresh {
			logger.Printf("recovery: epoch %d, %d WAL records replayed, roots verified in %s",
				info.Epoch, info.WALRecords, info.Elapsed.Round(time.Millisecond))
		}
	} else {
		if pool, err = shard.New(cfg); err != nil {
			logger.Fatalf("pool: %v", err)
		}
	}
	if *clusterID != "" {
		replLn, err := net.Listen("tcp", clusterSelf.Repl)
		if err != nil {
			logger.Fatalf("repl listen: %v", err)
		}
		node, err := cluster.NewNode(cluster.Config{
			Self:          *clusterID,
			Members:       clusterMembers,
			Pool:          pool,
			Store:         store,
			ShardCfg:      cfg,
			Key:           key,
			DataDir:       *dataDir,
			Fsync:         fsyncPolicy,
			SnapshotEvery: *snapEvery,
			ReplListener:  replLn,
			Proxy:         *clusterProxy,
			RereplGrace:   *rereplGrace,
			InitialView:   clusterView,
			Obs:           obsSvc,
			Logf:          logger.Printf,
		})
		if err != nil {
			logger.Fatalf("cluster: %v", err)
		}
		// Shutdown closes the published backend, so the node (standbys and
		// promoted stores included) tears down inside srv.Shutdown.
		srv.Publish(node)
		logger.Printf("cluster: member %s of %d (wire=%s repl=%s proxy=%v)",
			*clusterID, len(clusterMembers), clusterSelf.Wire, clusterSelf.Repl, *clusterProxy)
	} else {
		// The multi-tenant layer runs over the local pool only: a cluster
		// partitions the keyspace across nodes, but one tenant's page table
		// and swap placement need a single manager's view.
		if slots > 0 {
			tcfg := tenant.Config{
				Pool:          pool,
				ResidentPages: *residentPages,
				Obs:           obsSvc,
			}
			var tsvc *tenant.Service
			if store != nil && store.AuxEnabled() {
				tcfg.Journal = store
				tsvc, err = tenant.Recover(tcfg, store.TakeAuxRecovery())
				if err != nil {
					logger.Fatalf("tenant recovery failed closed: %v", err)
				}
				store.SetAuxSource(tsvc.FreezeOps, tsvc.ThawOps, tsvc.SnapshotState)
				logger.Printf("tenants: durable (journaled through %s)", *dataDir)
			} else {
				tsvc = tenant.New(tcfg)
			}
			srv.SetTenants(tsvc)
			if *residentPages > 0 {
				logger.Printf("tenants: resident-set budget %d pages (%s of %s)",
					*residentPages, sizeString(uint64(*residentPages)*4096), *memSize)
			}
		} else if *residentPages > 0 {
			logger.Fatalf("-resident-pages requires a swap-capable scheme (aise-bmt with -swapslots > 0)")
		}
		srv.Publish(pool)
	}
	logger.Printf("serving %s on %s: %d shards × %s, scheme=%s mac=%db queue=%d batch=%d",
		*memSize, ln.Addr(), *shardsN, sizeString(bytes/uint64(*shardsN)), *scheme, *macBits, *queue, *batch)

	select {
	case sig := <-sigc:
		// SIGINT and SIGTERM share one drain path: stop accepting, finish
		// in-flight requests, drain and verify every shard, then flush the
		// WAL and cut a final snapshot so the next start replays nothing.
		logger.Printf("%v: draining connections and verifying %d shards before exit", sig, *shardsN)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Printf("shutdown: %v", err)
			os.Exit(1)
		}
		if healthSrv != nil {
			healthSrv.Close()
		}
		if store != nil {
			if err := store.Checkpoint(); err != nil {
				logger.Printf("final checkpoint: %v", err)
				os.Exit(1)
			}
			if err := store.Close(); err != nil {
				logger.Printf("store close: %v", err)
				os.Exit(1)
			}
		}
		st := pool.Stats()
		logger.Printf("clean shutdown: all shards verified (%d requests served, %d batches, %d writes coalesced)",
			st.Enqueued, st.Batches, st.CoalescedWrites)
	case err := <-serveErr:
		logger.Fatalf("serve: %v", err)
	}
}

// parseSize accepts raw byte counts and KiB/MiB/GiB suffixes.
func parseSize(s string) (uint64, error) {
	mult := uint64(1)
	for _, suf := range []struct {
		name string
		mult uint64
	}{{"GiB", 1 << 30}, {"MiB", 1 << 20}, {"KiB", 1 << 10}} {
		if strings.HasSuffix(s, suf.name) {
			s, mult = strings.TrimSuffix(s, suf.name), suf.mult
			break
		}
	}
	n, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, err
	}
	return n * mult, nil
}

// sizeString renders a byte count with a binary suffix.
func sizeString(n uint64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// parseKey decodes 32 hex characters into the 16-byte processor key.
func parseKey(s string) ([]byte, error) {
	if len(s) != 32 {
		return nil, fmt.Errorf("want 32 hex chars, got %d", len(s))
	}
	key := make([]byte, 16)
	for i := 0; i < 16; i++ {
		b, err := strconv.ParseUint(s[2*i:2*i+2], 16, 8)
		if err != nil {
			return nil, err
		}
		key[i] = byte(b)
	}
	return key, nil
}
