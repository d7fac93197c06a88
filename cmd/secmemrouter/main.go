// Command secmemrouter fronts a secmemd cluster with the single-daemon
// wire protocol: it computes each page's owner on the consistent-hash
// ring, forwards the request over a pooled connection, follows NotOwner
// redirects, and falls back to the owner's successors when it is down —
// so clients that know nothing about the cluster (the plain server.Client)
// get location transparency.
//
// Usage:
//
//	secmemrouter -listen 127.0.0.1:7400 -health 127.0.0.1:9400 \
//	  -cluster n1=127.0.0.1:7401/127.0.0.1:9401/127.0.0.1:8401,n2=...
//
// The router is stateless: run any number of them in front of the same
// member list. /readyz on the -health address reports ready while at
// least one member answers its wire port.
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
	"syscall"
	"time"

	"aisebmt/internal/cluster"
	"aisebmt/internal/obs"
	"aisebmt/internal/server"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7400", "TCP listen address for the wire protocol")
	clusterList := flag.String("cluster", "", "static membership: comma-separated id=wire/health/repl entries (required)")
	healthAddr := flag.String("health", "", "HTTP address for /healthz, /readyz and /metrics (empty disables)")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request budget, forwarding hops included")
	probeEvery := flag.Duration("probe-every", time.Second, "member health poll period")
	drain := flag.Duration("drain", 10*time.Second, "connection drain budget at shutdown")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the -health address")
	adminOp := flag.String("admin", "", "one-shot membership admin op instead of routing: view, join, leave or remove")
	adminTarget := flag.String("target", "", "wire address of the member to run the -admin op on")
	adminArg := flag.String("arg", "", "argument for -admin: join takes the new member's id=wire/health/repl spec, leave/remove the member ID")
	showVersion := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *showVersion {
		bi := obs.ReadBuildInfo()
		fmt.Printf("secmemrouter %s (%s, rev %s)\n", bi.Version, bi.GoVersion, bi.Revision)
		return
	}

	logger := log.New(os.Stderr, "secmemrouter: ", log.LstdFlags)
	if *adminOp != "" {
		runAdmin(logger, *adminOp, *adminTarget, *adminArg, *timeout)
		return
	}
	if *clusterList == "" {
		logger.Fatalf("-cluster is required")
	}
	members, err := cluster.ParseMembers(*clusterList)
	if err != nil {
		logger.Fatalf("-cluster: %v", err)
	}

	obsSvc := obs.NewService(len(members), obs.DefaultRingSize)
	obs.RegisterBuildInfo(obsSvc.Reg, obs.ReadBuildInfo())

	router, err := cluster.NewRouter(members, cluster.RouterOptions{
		Timeout:    *timeout,
		ProbeEvery: *probeEvery,
		Obs:        obsSvc,
		Logf:       logger.Printf,
	})
	if err != nil {
		logger.Fatalf("router: %v", err)
	}

	srv := server.NewGated(server.Options{
		Timeout: *timeout,
		Logf:    logger.Printf,
		Obs:     obsSvc,
	})

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
		logger.Printf("health probes on http://%s/healthz and /readyz", hln.Addr())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	srv.Publish(router)
	logger.Printf("routing %d members on %s (timeout=%s)", len(members), ln.Addr(), *timeout)

	select {
	case sig := <-sigc:
		logger.Printf("%v: draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Printf("shutdown: %v", err)
			os.Exit(1)
		}
		if healthSrv != nil {
			healthSrv.Close()
		}
	case err := <-serveErr:
		logger.Fatalf("serve: %v", err)
	}
}

// runAdmin executes one membership operation against a member's wire
// port and prints the resulting view as JSON. Leave hands every range
// off before it returns, so the request deadline gets a generous floor.
func runAdmin(logger *log.Logger, op, target, arg string, timeout time.Duration) {
	if target == "" {
		logger.Fatalf("-admin requires -target (a member's wire address)")
	}
	c, err := server.Dial(target, timeout)
	if err != nil {
		logger.Fatalf("dial %s: %v", target, err)
	}
	defer c.Close()
	if timeout < 2*time.Minute {
		timeout = 2 * time.Minute
	}
	c.SetRequestDeadline(timeout)
	var view []byte
	switch op {
	case "view":
		view, err = c.ClusterView()
	case "join":
		if arg == "" {
			logger.Fatalf("-admin join requires -arg id=wire/health/repl")
		}
		view, err = c.ClusterJoin(arg)
	case "leave":
		if arg == "" {
			logger.Fatalf("-admin leave requires -arg <member-id> (the id of the -target member)")
		}
		view, err = c.ClusterLeave(arg)
	case "remove":
		if arg == "" {
			logger.Fatalf("-admin remove requires -arg <member-id>")
		}
		view, err = c.ClusterRemove(arg)
	default:
		logger.Fatalf("-admin %q: want view, join, leave or remove", op)
	}
	if err != nil {
		logger.Fatalf("cluster-%s: %v", op, err)
	}
	fmt.Printf("%s\n", view)
}
