package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"aisebmt/internal/server"
)

const (
	buildDir = ".bench_build" // binary and per-run scratch; the driver ignores it
	outDir   = "bench/out"    // JSON results and span files
	// daemonProcs pins the daemon's scheduler width so a wider box does not
	// change what is measured; the harness pins itself to the same.
	daemonProcs = 2
)

// harness owns everything a run leaves behind — daemon processes and the
// scratch directory — so that one reap() on any exit path (normal return,
// fatal error, panic, SIGINT/SIGTERM) removes all of it.
type harness struct {
	bin     string
	scratch string

	mu      sync.Mutex
	daemons map[*daemon]struct{}
	nextDir int
}

// newHarness builds cmd/secmemd once and creates the run's scratch dir.
func newHarness() (*harness, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "secmemd"))
	if err != nil {
		return nil, err
	}
	build := exec.Command("go", "build", "-o", bin, "./cmd/secmemd")
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building cmd/secmemd: %v\n%s", err, out)
	}
	scratch, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	if scratch, err = filepath.Abs(scratch); err != nil {
		return nil, err
	}
	return &harness{bin: bin, scratch: scratch, daemons: make(map[*daemon]struct{})}, nil
}

// reap kills every live daemon, waits for it, and removes the scratch dir.
func (h *harness) reap() {
	h.mu.Lock()
	live := make([]*daemon, 0, len(h.daemons))
	for d := range h.daemons {
		live = append(live, d)
	}
	h.mu.Unlock()
	for _, d := range live {
		d.kill()
	}
	os.RemoveAll(h.scratch)
}

// guard is deferred first in every goroutine the harness starts: a panic
// there would bypass main's deferred reap, so reap here and re-raise.
func (h *harness) guard() {
	if r := recover(); r != nil {
		h.reap()
		panic(r)
	}
}

// newDataDir returns a fresh directory under the scratch root.
func (h *harness) newDataDir() (string, error) {
	h.mu.Lock()
	h.nextDir++
	n := h.nextDir
	h.mu.Unlock()
	dir := filepath.Join(h.scratch, "data-"+strconv.Itoa(n))
	return dir, os.MkdirAll(dir, 0o700)
}

// daemon is one running secmemd.
type daemon struct {
	h      *harness
	cmd    *exec.Cmd
	addr   string
	execAt time.Time
	logF   *os.File      // the daemon's stdout+stderr, kept for failure reports
	done   chan struct{} // closed once Wait returned
	err    error         // Wait's result
}

// spawn starts the real daemon for w on a free loopback port.
func (h *harness) spawn(w *workload, dataDir string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	logF, err := os.CreateTemp(h.scratch, "daemon-*.log")
	if err != nil {
		return nil, err
	}
	d := &daemon{h: h, addr: addr, logF: logF, done: make(chan struct{})}
	d.cmd = exec.Command(h.bin, w.daemonArgs(addr, dataDir)...)
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(daemonProcs))
	d.cmd.Stderr = logF
	d.cmd.Stdout = logF
	// The in-memory workloads run without -data-dir, where the hibernate op
	// would write into the working directory; keep that inside the scratch.
	d.cmd.Dir = h.scratch
	// If the harness dies without running reap (SIGKILL), the kernel takes
	// the daemon down with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.execAt = time.Now()
	if err := d.cmd.Start(); err != nil {
		logF.Close()
		return nil, err
	}
	h.mu.Lock()
	h.daemons[d] = struct{}{}
	h.mu.Unlock()
	go func() {
		d.err = d.cmd.Wait()
		logF.Close()
		close(d.done)
		h.mu.Lock()
		delete(h.daemons, d)
		h.mu.Unlock()
	}()
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// logTail returns the last lines the daemon logged.
func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.logF.Name()) // best effort: only decorates an error
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > 10 {
		lines = lines[len(lines)-10:]
	}
	return strings.Join(lines, "\n")
}

// dial connects a client, retrying while the listener is not up yet.
func (d *daemon) dial() (*server.Client, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		c, err := server.Dial(d.addr, time.Second)
		if err == nil {
			return c, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("daemon exited before serving: %v\n%s", d.err, d.logTail())
		default:
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("daemon never listened on %s: %v\n%s", d.addr, err, d.logTail())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// firstByte connects and waits for the first OK reply: the listener opens
// before recovery, so this returns when the recovered pool is published.
// The returned duration is measured from exec.
func (d *daemon) firstByte() (*server.Client, time.Duration, error) {
	c, err := d.dial()
	if err != nil {
		return nil, 0, err
	}
	for {
		_, err = c.Stats()
		if err == nil {
			return c, time.Since(d.execAt), nil
		}
		if !server.Retryable(err) { // "still recovering" past the request timeout is retryable
			c.Close()
			return nil, 0, fmt.Errorf("first request: %w\n%s", err, d.logTail())
		}
	}
}

// kill is the crash: SIGKILL, then wait until the process is gone.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// term is the graceful stop: SIGTERM makes the daemon drain, verify every
// shard and (when durable) cut a final checkpoint; anything but exit 0 is
// a failed integrity verdict.
func (d *daemon) term() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		d.kill()
		return errors.New("daemon did not exit within 60s of SIGTERM")
	}
	if d.err != nil {
		return fmt.Errorf("daemon exit after SIGTERM: %v\n%s", d.err, d.logTail())
	}
	return nil
}

// clockTick is USER_HZ, the unit of the utime/stime fields of
// /proc/<pid>/stat; Linux fixes it at 100 for userspace on every arch.
const clockTick = 100

// parseProcStat extracts utime and stime (in ticks) from the content of
// /proc/<pid>/stat. The command name is parenthesised and may contain
// spaces, so fields are counted from the last ')'.
func parseProcStat(stat string) (utime, stime uint64, err error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after command, want at least 13", len(f))
	}
	if utime, err = strconv.ParseUint(f[11], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	if stime, err = strconv.ParseUint(f[12], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return utime, stime, nil
}

// parseStatusKiB extracts one "Vm*" line (in KiB) from the content of
// /proc/<pid>/status.
func parseStatusKiB(status, key string) (uint64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			return strconv.ParseUint(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// cpuTicks reads the daemon's cumulative user and system CPU time.
func (d *daemon) cpuTicks() (utime, stime uint64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid()))
	if err != nil {
		return 0, 0, err
	}
	return parseProcStat(string(b))
}

// rssMiB reads the daemon's peak resident set size. The peak, not the
// current size: VmRSS is read at a random point of the garbage collector's
// cycle and moved 16% between runs of the same code, VmHWM 4%.
func (d *daemon) rssMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid()))
	if err != nil {
		return 0, err
	}
	kib, err := parseStatusKiB(string(b), "VmHWM")
	return float64(kib) / 1024, err
}
