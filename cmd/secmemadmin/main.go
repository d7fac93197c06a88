// Command secmemadmin runs one cluster membership operation against a
// secmemd member's wire port and prints the resulting view as JSON.
//
// Usage:
//
//	secmemadmin view   -target 127.0.0.1:7401
//	secmemadmin join   -target 127.0.0.1:7401 -arg n4=127.0.0.1:7404/127.0.0.1:9404/127.0.0.1:8404
//	secmemadmin leave  -target 127.0.0.1:7403 -arg n3
//	secmemadmin remove -target 127.0.0.1:7401 -arg n3
//
// The op may also follow the flags (secmemadmin -target ... view).
// Plain wire clients need no front end of their own: any member run with
// secmemd -cluster-proxy serves every page of the cluster.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"aisebmt/internal/obs"
	"aisebmt/internal/server"
)

func main() {
	fs := flag.NewFlagSet("secmemadmin", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: secmemadmin view|join|leave|remove -target <member wire addr> [-arg ...]")
		fs.PrintDefaults()
	}
	target := fs.String("target", "", "wire address of the member to run the op on")
	arg := fs.String("arg", "", "argument for the op: join takes the new member's id=wire/health/repl spec, leave/remove the member ID")
	timeout := fs.Duration("timeout", 5*time.Second, "dial budget (requests get at least 2m: leave waits for every handoff)")
	showVersion := fs.Bool("version", false, "print build information and exit")

	args := os.Args[1:]
	op := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		op, args = args[0], args[1:]
	}
	fs.Parse(args)
	if op == "" && fs.NArg() > 0 {
		op = fs.Arg(0)
	}

	if *showVersion {
		bi := obs.ReadBuildInfo()
		fmt.Printf("secmemadmin %s (%s, rev %s)\n", bi.Version, bi.GoVersion, bi.Revision)
		return
	}
	logger := log.New(os.Stderr, "secmemadmin: ", 0)
	if op == "" {
		fs.Usage()
		os.Exit(2)
	}
	runAdmin(logger, op, *target, *arg, *timeout)
}

// runAdmin executes one membership operation against a member's wire
// port and prints the resulting view as JSON. Leave hands every range
// off before it returns, so the request deadline gets a generous floor.
func runAdmin(logger *log.Logger, op, target, arg string, timeout time.Duration) {
	if target == "" {
		logger.Fatalf("%s requires -target (a member's wire address)", op)
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
			logger.Fatalf("join requires -arg id=wire/health/repl")
		}
		view, err = c.ClusterJoin(arg)
	case "leave":
		if arg == "" {
			logger.Fatalf("leave requires -arg <member-id> (the id of the -target member)")
		}
		view, err = c.ClusterLeave(arg)
	case "remove":
		if arg == "" {
			logger.Fatalf("remove requires -arg <member-id>")
		}
		view, err = c.ClusterRemove(arg)
	default:
		logger.Fatalf("%q: want view, join, leave or remove", op)
	}
	if err != nil {
		logger.Fatalf("cluster-%s: %v", op, err)
	}
	fmt.Printf("%s\n", view)
}
