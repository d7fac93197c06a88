//go:build smoke

package main

// The end-to-end smoke: every test here builds the real secmemd once,
// execs it on free loopback ports and drives it over the wire with
// server.Client and cluster.SmartClient, as an operator would. It covers
// what the in-process package tests cannot: flag wiring, the /metrics
// exposition of a whole daemon, SIGKILL and SIGTERM of real processes,
// and cluster membership changes between separate daemons.
//
//	make smoke        # go test -tags smoke -count=1 ./cmd/secmemd/
//
// The build tag keeps it out of go test ./...: the suite spawns a dozen
// daemons and takes tens of seconds.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"aisebmt/internal/cluster"
	"aisebmt/internal/core"
	"aisebmt/internal/history"
	"aisebmt/internal/layout"
	"aisebmt/internal/obs"
	"aisebmt/internal/server"
)

// secmemdBin is the daemon binary under test and adminBin the membership
// admin command, both built once by TestMain.
var secmemdBin, adminBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "secmemd-smoke-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	secmemdBin = filepath.Join(dir, "secmemd")
	adminBin = filepath.Join(dir, "secmemadmin")
	for bin, pkg := range map[string]string{secmemdBin: "aisebmt/cmd/secmemd", adminBin: "aisebmt/cmd/secmemadmin"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "go build %s: %v\n%s", pkg, err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// logBuf is a daemon's stderr, written by exec's copier goroutine and
// read by the test when something fails.
type logBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// daemon is one running secmemd process.
type daemon struct {
	name   string
	wire   string
	health string
	cmd    *exec.Cmd
	log    *logBuf
	done   chan struct{} // closed once the process has exited
	err    error         // its exit status, valid after done
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// spawn execs secmemd with args; wire and health are where those args
// make it listen. The process is SIGKILLed at cleanup if still running.
func spawn(t *testing.T, name, wire, health string, args ...string) *daemon {
	t.Helper()
	d := &daemon{name: name, wire: wire, health: health, log: &logBuf{}, done: make(chan struct{})}
	d.cmd = exec.Command(secmemdBin, args...)
	d.cmd.Stderr = d.log
	if err := d.cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	go func() { d.err = d.cmd.Wait(); close(d.done) }()
	t.Cleanup(func() {
		d.cmd.Process.Kill()
		<-d.done
		if t.Failed() {
			t.Logf("%s log:\n%s", d.name, d.log.String())
		}
	})
	return d
}

// startSingle runs a standalone daemon on fresh ports with its health
// endpoint on, and waits until it reports ready.
func startSingle(t *testing.T, args ...string) *daemon {
	t.Helper()
	wire, health := freeAddr(t), freeAddr(t)
	d := spawn(t, "secmemd", wire, health, append([]string{"-listen", wire, "-health", health}, args...)...)
	d.waitReady(t)
	return d
}

func (d *daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// waitReady polls /readyz until it answers 200. The daemon answers 503
// while it recovers or while a cluster member's follower handshake is
// unresolved.
func (d *daemon) waitReady(t *testing.T) {
	t.Helper()
	waitFor(t, 30*time.Second, d.name+" ready", func() bool {
		if d.exited() {
			t.Fatalf("%s exited before it was ready: %v\n%s", d.name, d.err, d.log.String())
		}
		resp, err := http.Get("http://" + d.health + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
}

// stop sends SIGTERM and fails the test unless the daemon drains,
// verifies every shard and exits 0.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	d.term()
	d.waitClean(t)
}

// term starts the graceful shutdown: drain, verify, final snapshot.
func (d *daemon) term() { d.cmd.Process.Signal(syscall.SIGTERM) }

// waitClean waits for a daemon sent SIGTERM to exit and fails the test
// unless it exited 0.
func (d *daemon) waitClean(t *testing.T) {
	t.Helper()
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		t.Fatalf("%s did not exit within 60s of SIGTERM", d.name)
	}
	if d.err != nil {
		t.Fatalf("%s exited dirty: %v\n%s", d.name, d.err, d.log.String())
	}
}

// kill is a power cut: SIGKILL, then reap.
func (d *daemon) kill(t *testing.T) {
	t.Helper()
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.done
	if d.err == nil {
		t.Fatalf("SIGKILLed %s reported a clean exit", d.name)
	}
}

func (d *daemon) get(t *testing.T, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + d.health + path)
	if err != nil {
		t.Fatalf("%s %s: %v", d.name, path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: %s %v", d.name, path, resp.Status, err)
	}
	return string(body)
}

// samples scrapes /metrics into series → value.
func (d *daemon) samples(t *testing.T) map[string]float64 {
	t.Helper()
	return obs.ParseSamples(d.get(t, "/metrics"))
}

// metric reads one series, 0 when the daemon is unreachable or the
// series absent (for polling).
func (d *daemon) metric(name string) float64 {
	resp, err := http.Get("http://" + d.health + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return obs.ParseSamples(string(body))[name]
}

// lint checks the exposition against the metric conventions: secmemd_
// prefix, HELP and TYPE per family, no duplicates, parseable values.
func (d *daemon) lint(t *testing.T) {
	t.Helper()
	if problems := obs.Lint(d.get(t, "/metrics"), "secmemd_"); len(problems) > 0 {
		t.Fatalf("%s /metrics fails lint:\n%s", d.name, strings.Join(problems, "\n"))
	}
}

func (d *daemon) dial(t *testing.T) *server.Client {
	t.Helper()
	c, err := server.Dial(d.wire, 5*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", d.name, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func waitFor(t *testing.T, budget time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(budget)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout after %s waiting for %s", budget, what)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func wantSample(t *testing.T, s map[string]float64, series string, ok func(float64) bool, what string) {
	t.Helper()
	if v := s[series]; !ok(v) {
		t.Fatalf("%s: %s = %v", what, series, v)
	}
}

func positive(v float64) bool { return v > 0 }

// rw is the data path both server.Client and cluster.SmartClient offer.
type rw interface {
	Read(a layout.Addr, n int, meta core.Meta) ([]byte, error)
	Write(a layout.Addr, data []byte, meta core.Meta) error
	Close() error
}

// load is a closed-loop read/write mix of one-block ops: conns clients,
// each owning the blocks b ≡ its index (mod conns) so it can check every
// read of a block it wrote against the last value it was acknowledged.
type load struct {
	conns    int
	ops      int           // per client; 0 runs for dur
	dur      time.Duration // used when ops is 0
	readFrac float64
	pages    uint64                 // address space, in pages
	skip     func(page uint64) bool // pages to keep traffic off (nil: none)
	retry    time.Duration          // budget for retryable errors (0: fail fast)
	retryIf  func(error) bool       // which errors are retryable
	trace    bool                   // stamp a TraceID on every request
}

// run drives the mix through clients from dial and returns the number of
// acknowledged operations. Any error that outlives the retry budget, and
// any read that disagrees with the client's own last acked write, fails
// the test.
func (l load) run(t *testing.T, dial func(w int) (rw, error)) int {
	t.Helper()
	var wg sync.WaitGroup
	acked := make([]int, l.conns)
	errs := make(chan error, l.conns)
	deadline := time.Now().Add(l.dur)
	for w := 0; w < l.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := dial(w)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if sc, ok := c.(*server.Client); ok && l.trace {
				sc.EnableTrace(uint64(w+1) << 32)
			}
			rng := rand.New(rand.NewSource(int64(w) + 1))
			shadow := history.New[layout.Addr]()
			for i := 0; l.ops > 0 && i < l.ops || l.ops == 0 && time.Now().Before(deadline); i++ {
				var a layout.Addr
				for {
					blocks := l.pages * layout.BlocksPerPage / uint64(l.conns)
					a = layout.Addr((uint64(w) + uint64(l.conns)*(rng.Uint64()%blocks)) * layout.BlockSize)
					if l.skip == nil || !l.skip(uint64(a)/layout.PageSize) {
						break
					}
				}
				if rng.Float64() < l.readFrac {
					var got []byte
					err = l.retried(func() (e error) { got, e = c.Read(a, layout.BlockSize, core.Meta{}); return e })
					if err == nil {
						err = shadow.Check(a, got)
					}
				} else {
					v := make([]byte, layout.BlockSize)
					rng.Read(v)
					if err = l.retried(func() error { return c.Write(a, v, core.Meta{}) }); err == nil {
						shadow.Ack(a, v)
					}
				}
				if err != nil {
					errs <- fmt.Errorf("client %d op %d: %w", w, i, err)
					return
				}
				acked[w]++
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	n := 0
	for _, a := range acked {
		n += a
	}
	if n == 0 {
		t.Fatal("load acknowledged no operations")
	}
	return n
}

// retried runs op, retrying errors l.retryIf accepts with a doubling
// backoff until l.retry runs out.
func (l load) retried(op func() error) error {
	deadline := time.Now().Add(l.retry)
	backoff := time.Millisecond
	for {
		err := op()
		if err == nil || l.retry == 0 || !l.retryIf(err) || time.Now().After(deadline) {
			return err
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 100*time.Millisecond {
			backoff = 100 * time.Millisecond
		}
	}
}

func wireClients(d *daemon) func(int) (rw, error) {
	return func(int) (rw, error) { return server.Dial(d.wire, 5*time.Second) }
}

func smartClients(members []cluster.Member) func(int) (rw, error) {
	return func(int) (rw, error) { return cluster.NewSmartClient(members, 5*time.Second) }
}

// TestSmokeMetrics: traced traffic against a 4-shard daemon moves every
// request series, the exposition lints clean, the spot-checked series
// are present, /tracez holds the traced requests, and SIGTERM drains
// and verifies.
func TestSmokeMetrics(t *testing.T) {
	d := startSingle(t, "-shards", "4", "-mem", "16MiB")
	load{conns: 4, ops: 500, readFrac: 0.5, pages: 16 << 20 / layout.PageSize, trace: true}.run(t, wireClients(d))

	d.lint(t)
	s := d.samples(t)
	wantSample(t, s, `secmemd_requests_total{op="read",status="ok"}`, positive, "request counter did not move")
	wantSample(t, s, `secmemd_shard_state{shard="0",state="serving"}`, func(v float64) bool { return v == 1 }, "pool scrape section missing")
	wantSample(t, s, "secmemd_pool_untrusted_bytes", positive, "untrusted memory gauge missing")
	found := false
	for k := range s {
		found = found || strings.HasPrefix(k, "secmemd_build_info{")
	}
	if !found {
		t.Fatal("build info gauge missing")
	}

	var dump struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal([]byte(d.get(t, "/tracez?n=10")), &dump); err != nil || dump.Count == 0 {
		t.Fatalf("/tracez holds no traced requests (count %d, %v)", dump.Count, err)
	}
	d.stop(t)
}

// TestSmokeDegradedShard: with one shard cordoned over the wire, the
// healthy shards keep serving at no less than a quarter of the
// all-shards throughput, the cordoned one refuses retryably, and
// uncordon re-verifies it back into service with its data intact.
func TestSmokeDegradedShard(t *testing.T) {
	const shards, victim = 4, 1
	d := startSingle(t, "-shards", fmt.Sprint(shards), "-mem", "4MiB")
	l := load{conns: 4, dur: 500 * time.Millisecond, readFrac: 0.5, pages: 4 << 20 / layout.PageSize}
	baseline := l.run(t, wireClients(d))

	ctl := d.dial(t)
	victimAddr := layout.Addr(victim * layout.PageSize) // global page k lives on shard k mod shards
	if err := ctl.Write(victimAddr, []byte("victim"), core.Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Cordon(victim); err != nil {
		t.Fatalf("cordon shard %d: %v", victim, err)
	}
	if _, err := ctl.Read(victimAddr, 6, core.Meta{}); !server.Retryable(err) {
		t.Fatalf("read on the cordoned shard: %v, want a retryable refusal", err)
	}
	l.skip = func(page uint64) bool { return page%shards == victim }
	degraded := l.run(t, wireClients(d))
	t.Logf("healthy-shard throughput: %d ops degraded vs %d baseline", degraded, baseline)
	if 4*degraded < baseline {
		t.Fatalf("healthy-shard throughput collapsed: %d ops vs %d with every shard serving", degraded, baseline)
	}

	if err := ctl.Uncordon(victim); err != nil {
		t.Fatalf("uncordon shard %d: %v", victim, err)
	}
	waitFor(t, 30*time.Second, "the cordoned shard to heal", func() bool {
		got, err := ctl.Read(victimAddr, 6, core.Meta{})
		if err != nil && !server.Retryable(err) {
			t.Fatalf("read after uncordon: %v", err)
		}
		return err == nil && string(got) == "victim"
	})
	d.stop(t)
}

// pagePattern is the self-checking payload for (page, generation).
func pagePattern(page, gen int) []byte {
	b := make([]byte, layout.PageSize)
	for i := range b {
		b[i] = byte(page*31 + gen*7 + i)
	}
	return b
}

// churnCycle runs one tenant lifecycle — create, write, fork, check the
// child inherits, diverge the child, check the parent does not see it,
// destroy both.
func churnCycle(c *server.Client, w, gen int) error {
	const pages = 8
	id, err := c.TenantCreate(pages)
	if err != nil {
		return fmt.Errorf("create: %w", err)
	}
	want := pagePattern(w, gen)[:layout.BlockSize]
	for p := 0; p < pages; p++ {
		if err := c.TenantWrite(id, uint64(p)*layout.PageSize, want); err != nil {
			return fmt.Errorf("write page %d: %w", p, err)
		}
	}
	child, err := c.TenantFork(id)
	if err != nil {
		return fmt.Errorf("fork: %w", err)
	}
	if got, err := c.TenantRead(child, 0, layout.BlockSize); err != nil || !bytes.Equal(got, want) {
		return fmt.Errorf("child did not inherit the parent's page: %v", err)
	}
	if err := c.TenantWrite(child, 0, pagePattern(w+1, gen+1)[:layout.BlockSize]); err != nil {
		return fmt.Errorf("child write: %w", err)
	}
	if got, err := c.TenantRead(id, 0, layout.BlockSize); err != nil || !bytes.Equal(got, want) {
		return fmt.Errorf("parent saw the child's write: %v", err)
	}
	if err := c.TenantDestroy(child); err != nil {
		return fmt.Errorf("destroy child: %w", err)
	}
	if err := c.TenantDestroy(id); err != nil {
		return fmt.Errorf("destroy parent: %w", err)
	}
	return nil
}

// TestSmokeTenants: a tenant-enabled daemon (swap-capable scheme and a
// resident budget) under create/fork/destroy churn, a working set above
// its resident budget and a counter-overflow storm. Every acked tenant
// byte reads back, the budget holds, the tenant and vm series move, no
// tenant leaks, and the exposition lints clean.
func TestSmokeTenants(t *testing.T) {
	const budget = 256
	d := startSingle(t, "-shards", "4", "-mem", "16MiB",
		"-scheme", "aise-bmt", "-swapslots", "64", "-resident-pages", fmt.Sprint(budget))

	// Churn: four clients for one second.
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	cycles := make([]int, 4)
	deadline := time.Now().Add(time.Second)
	for w := range cycles {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := server.Dial(d.wire, 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for gen := 0; time.Now().Before(deadline); gen++ {
				if err := churnCycle(c, w, gen); err != nil {
					errs <- fmt.Errorf("churn client %d cycle %d: %w", w, gen, err)
					return
				}
				cycles[w]++
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	t.Logf("tenant churn: %v cycles per client", cycles)

	// Pressure: 320 pages against a 256-page budget, two generations per
	// page, then every page read back against its last acked generation.
	c := d.dial(t)
	const workingSet = 320
	id, err := c.TenantCreate(workingSet)
	if err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 2; gen++ {
		for p := 0; p < workingSet; p++ {
			if err := c.TenantWrite(id, uint64(p)*layout.PageSize, pagePattern(p, gen)); err != nil {
				t.Fatalf("pressure write page %d gen %d: %v", p, gen, err)
			}
		}
	}
	raw, err := c.TenantStats()
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ResidentPages int `json:"resident_pages"`
		SwappedPages  int `json:"swapped_pages"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.ResidentPages > budget || st.SwappedPages == 0 {
		t.Fatalf("pressure: %d resident (budget %d), %d swapped; want the budget held and pages swapped", st.ResidentPages, budget, st.SwappedPages)
	}
	for p := 0; p < workingSet; p++ {
		got, err := c.TenantRead(id, uint64(p)*layout.PageSize, layout.PageSize)
		if err != nil || !bytes.Equal(got, pagePattern(p, 1)) {
			t.Fatalf("pressure: acked tenant page %d lost across swap: %v", p, err)
		}
	}
	if err := c.TenantDestroy(id); err != nil {
		t.Fatal(err)
	}

	// Storm: 300 rewrites of one block per page overflow the 7-bit minor
	// counters, forcing page re-encryptions under fresh LPIDs.
	before := d.samples(t)["secmemd_tenant_reencrypts_total"]
	if id, err = c.TenantCreate(4); err != nil {
		t.Fatal(err)
	}
	const rewrites = 300
	blk := make([]byte, layout.BlockSize)
	for i := 0; i < rewrites; i++ {
		for p := 0; p < 4; p++ {
			blk[0] = byte(i)
			if err := c.TenantWrite(id, uint64(p)*layout.PageSize, blk); err != nil {
				t.Fatalf("storm write %d page %d: %v", i, p, err)
			}
		}
	}
	for p := 0; p < 4; p++ {
		if got, err := c.TenantRead(id, uint64(p)*layout.PageSize, 1); err != nil || got[0] != (rewrites-1)%256 {
			t.Fatalf("storm: page %d lost its last write across re-encryption: %v", p, err)
		}
	}
	if err := c.TenantDestroy(id); err != nil {
		t.Fatal(err)
	}

	d.lint(t)
	s := d.samples(t)
	wantSample(t, s, "secmemd_tenant_created_total", positive, "tenant creation counter did not move")
	wantSample(t, s, "secmemd_tenant_cow_breaks_total", positive, "tenant COW-break counter did not move")
	wantSample(t, s, "secmemd_tenant_live", func(v float64) bool { return v == 0 }, "tenants leaked")
	wantSample(t, s, "secmemd_vm_cow_breaks_total", positive, "vm scrape section missing or idle")
	wantSample(t, s, "secmemd_tenant_swap_outs_total", positive, "pressure never swapped")
	if s["secmemd_tenant_reencrypts_total"] <= before {
		t.Fatal("the overflow storm forced no re-encryptions")
	}
	d.stop(t)
}

// TestSmokeTenantRecover: a tenant-durable daemon holding eight tenants
// and a diverged COW fork is SIGKILLed and restarted on its data
// directory; every acknowledged tenant byte comes back bit-exact.
func TestSmokeTenantRecover(t *testing.T) {
	const tenants, pages = 8, 4
	dir := t.TempDir()
	args := []string{"-mem", "16MiB", "-scheme", "aise-bmt", "-swapslots", "64", "-data-dir", dir}
	d := startSingle(t, args...)
	c, err := server.Dial(d.wire, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint32, tenants)
	for i := range ids {
		if ids[i], err = c.TenantCreate(pages); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < pages; p++ {
			if err := c.TenantWrite(ids[i], uint64(p)*layout.PageSize, pagePattern(i*pages+p, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	child, err := c.TenantFork(ids[0])
	if err == nil {
		err = c.TenantWrite(child, 0, pagePattern(0, 2))
	}
	if err != nil {
		t.Fatalf("fork family: %v", err)
	}
	c.Close()
	d.kill(t)

	t0 := time.Now()
	d = startSingle(t, args...)
	t.Logf("restart to ready: %s", time.Since(t0).Round(time.Millisecond))
	c = d.dial(t)
	check := func(id uint32, vaddr uint64, want []byte) {
		t.Helper()
		got, err := c.TenantRead(id, vaddr, len(want))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("acked tenant write lost: tenant %d vaddr %#x after restart: %v", id, vaddr, err)
		}
	}
	for i, id := range ids {
		for p := 0; p < pages; p++ {
			check(id, uint64(p)*layout.PageSize, pagePattern(i*pages+p, 1))
		}
	}
	check(child, 0, pagePattern(0, 2)) // the fork's divergence
	check(child, layout.PageSize, pagePattern(1, 1))
	// The recovery's phases are exported through a clean exposition.
	d.lint(t)
	s := d.samples(t)
	for _, phase := range []string{"snapshot_read", "rebuild", "slowest_sweep"} {
		wantSample(t, s, `secmemd_persist_recovery_phase_us{phase="`+phase+`"}`, positive, "recovery phase gauge missing or zero")
	}
	d.stop(t)
}

// newMembers allocates loopback addresses for n members and renders the
// -cluster flag value they share.
func newMembers(t *testing.T, n int) ([]cluster.Member, string) {
	members := make([]cluster.Member, n)
	specs := make([]string, n)
	for i := range members {
		members[i] = cluster.Member{ID: fmt.Sprintf("n%d", i+1), Wire: freeAddr(t), Health: freeAddr(t), Repl: freeAddr(t)}
		specs[i] = memberSpec(members[i])
	}
	return members, strings.Join(specs, ",")
}

func memberSpec(m cluster.Member) string {
	return fmt.Sprintf("%s=%s/%s/%s", m.ID, m.Wire, m.Health, m.Repl)
}

// startMember runs one durable cluster member on its own data directory
// under root; membership comes from args (-cluster or -cluster-join).
func startMember(t *testing.T, m cluster.Member, root string, args ...string) *daemon {
	t.Helper()
	return spawn(t, m.ID, m.Wire, m.Health, append([]string{
		"-cluster-id", m.ID, "-mem", "4MiB", "-data-dir", filepath.Join(root, m.ID), "-fsync", "always",
	}, args...)...)
}

const clusterPages = 4 << 20 / layout.PageSize

// clusterLoad is ring-aware traffic that rides out failovers and
// handoffs by retrying the cluster's transient errors.
func clusterLoad(dur time.Duration, readFrac float64) load {
	return load{conns: 4, dur: dur, readFrac: readFrac, pages: clusterPages, retry: 10 * time.Second, retryIf: cluster.Retryable}
}

// TestSmokeCluster: a 3-node cluster serves ring-aware traffic, exports
// the cluster family (membership, attached follower, shipped segments,
// one imported baseline per range) through a clean exposition, then
// loses the owner of page 0 to SIGKILL mid-load: exactly one survivor
// promotes, the range serves again, re-replicates, and not one
// acknowledged write is lost. The survivors shut down clean.
func TestSmokeCluster(t *testing.T) {
	members, list := newMembers(t, 3)
	root := t.TempDir()
	nodes := map[string]*daemon{}
	for _, m := range members {
		nodes[m.ID] = startMember(t, m, root, "-cluster", list)
	}
	for _, m := range members {
		nodes[m.ID].waitReady(t)
	}
	clusterLoad(time.Second, 0.95).run(t, smartClients(members))
	clusterLoad(time.Second, 0.50).run(t, smartClients(members))

	n1 := nodes["n1"]
	n1.lint(t)
	s := n1.samples(t)
	wantSample(t, s, "secmemd_cluster_members", func(v float64) bool { return v == 3 }, "cluster membership gauge")
	wantSample(t, s, "secmemd_cluster_follower_attached", func(v float64) bool { return v == 1 }, "member n1 has no attached follower")
	wantSample(t, s, "secmemd_cluster_segments_shipped_total", positive, "no sealed WAL segments were shipped")
	// Standby placement prefers the first successor but settles on any
	// live one when boot order races, so baselines are summed cluster-wide.
	baselines := 0.0
	for _, d := range nodes {
		baselines += d.samples(t)["secmemd_cluster_baselines_applied_total"]
	}
	if baselines < 3 {
		t.Fatalf("only %v baselines imported cluster-wide, want >= 3", baselines)
	}

	// Failover under load. Writers own disjoint pages and shadow the last
	// value each address acknowledged; a writer finishes its in-flight op
	// before it stops, so the shadow is exactly what the cluster promised
	// to keep.
	probe, err := cluster.NewSmartClient(members, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	victim := probe.Owner(0)
	const writers = 4
	stop := make(chan struct{})
	shadows := make([]*history.Model[layout.Addr], writers)
	werrs := make([]error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc, err := cluster.NewSmartClient(members, 5*time.Second)
			if err != nil {
				werrs[w] = err
				return
			}
			defer sc.Close()
			l := load{retry: 20 * time.Second, retryIf: cluster.Retryable}
			shadows[w] = history.New[layout.Addr]()
			payload := make([]byte, layout.BlockSize)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a := layout.Addr((uint64(w) + writers*(uint64(i)%(clusterPages/writers))) * layout.PageSize)
				v := byte(i*7 + w + 1)
				for j := range payload {
					payload[j] = v
				}
				if err := l.retried(func() error { return sc.Write(a, payload, core.Meta{}) }); err != nil {
					werrs[w] = fmt.Errorf("writer %d addr %#x: %w", w, uint64(a), err)
					return
				}
				shadows[w].Ack(a, payload)
			}
		}(w)
	}
	time.Sleep(500 * time.Millisecond)
	nodes[victim].kill(t)
	killed := time.Now()
	waitFor(t, 30*time.Second, "the victim's range to serve again", func() bool {
		_, err := probe.Read(0, layout.BlockSize, core.Meta{})
		if err != nil && !cluster.Retryable(err) {
			t.Fatalf("victim range read failed definitively: %v", err)
		}
		return err == nil
	})
	t.Logf("killed %s; its range served again after %s", victim, time.Since(killed).Round(time.Millisecond))
	waitFor(t, 30*time.Second, "the promoted range to re-replicate", func() bool {
		for id, d := range nodes {
			if id != victim && d.metric("secmemd_cluster_rerepl_attached") >= 1 {
				return true
			}
		}
		return false
	})
	time.Sleep(time.Second)
	close(stop)
	wg.Wait()

	acked := 0
	for w, shadow := range shadows {
		if werrs[w] != nil {
			t.Fatal(werrs[w])
		}
		n, err := shadow.Verify(func(a layout.Addr) ([]byte, error) { return probe.Read(a, layout.BlockSize, core.Meta{}) })
		if err != nil {
			t.Fatalf("acked write lost in failover: %v", err)
		}
		acked += n
	}
	if acked == 0 {
		t.Fatal("the failover phase acknowledged no writes")
	}
	promotions := 0.0
	for id, d := range nodes {
		if id != victim {
			promotions += d.samples(t)["secmemd_cluster_failovers_total"]
		}
	}
	if promotions != 1 {
		t.Fatalf("want exactly 1 promotion, got %v", promotions)
	}
	t.Logf("failover: %d acked addresses verified, %v promotion", acked, promotions)
	for id, d := range nodes {
		if id != victim {
			d.stop(t)
		}
	}
}

// admin runs one membership op on a member's wire port. Leave hands
// every range off before it answers, so the deadline is generous.
func admin(t *testing.T, d *daemon, op func(*server.Client) ([]byte, error)) {
	t.Helper()
	c := d.dial(t)
	c.SetRequestDeadline(2 * time.Minute)
	if _, err := op(c); err != nil {
		t.Fatalf("admin op on %s: %v", d.name, err)
	}
}

func waitMetric(t *testing.T, d *daemon, name string, want float64, what string) {
	t.Helper()
	waitFor(t, 30*time.Second, fmt.Sprintf("%s (%s >= %v on %s)", what, name, want, d.name), func() bool {
		return d.metric(name) >= want
	})
}

// TestSmokeLifecycle walks a cluster through its whole membership
// lifecycle over real daemons and the admin wire ops: a join through
// Client.ClusterJoin and a joiner booted from the seed's sealed view, read
// back with the secmemadmin command; a
// SIGKILLed founder whose range promotes and re-replicates on its own;
// the victim restarted on its stale directory rejoining deposed behind
// the fence; a leave through Client.ClusterLeave with verified handoff.
// Traffic flows after every step, the exposition lints clean and every
// member exits clean.
func TestSmokeLifecycle(t *testing.T) {
	members, list := newMembers(t, 3)
	n4 := cluster.Member{ID: "n4", Wire: freeAddr(t), Health: freeAddr(t), Repl: freeAddr(t)}
	root := t.TempDir()
	nodes := map[string]*daemon{}
	for _, m := range members {
		nodes[m.ID] = startMember(t, m, root, "-cluster", list)
	}
	for _, m := range members {
		nodes[m.ID].waitReady(t)
	}
	clusterLoad(time.Second, 0.9).run(t, smartClients(members))

	// Join: admit n4 through the wire op, then boot it from the seed view.
	admin(t, nodes["n1"], func(c *server.Client) ([]byte, error) { return c.ClusterJoin(memberSpec(n4)) })
	waitMetric(t, nodes["n1"], "secmemd_cluster_view_epoch", 1, "the join epoch applied on n1")
	waitMetric(t, nodes["n3"], "secmemd_cluster_view_epoch", 1, "the join epoch reached n3")
	nodes["n4"] = startMember(t, n4, root, "-cluster-join", members[0].Repl)
	nodes["n4"].waitReady(t)
	waitMetric(t, nodes["n4"], "secmemd_cluster_view_epoch", 1, "the joiner fetched the view")
	// The admin command reads the same view back from a member.
	out, err := exec.Command(adminBin, "view", "-target", nodes["n1"].wire).CombinedOutput()
	if err != nil {
		t.Fatalf("secmemadmin view: %v\n%s", err, out)
	}
	var view struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(out, &view); err != nil {
		t.Fatalf("secmemadmin view output %q: %v", out, err)
	}
	if view.Epoch < 1 {
		t.Fatalf("secmemadmin view: epoch %d after the join, want >= 1", view.Epoch)
	}

	// Failover with automatic re-replication.
	nodes["n2"].kill(t)
	survivors := []string{"n1", "n3", "n4"}
	sum := func(name string) float64 {
		total := 0.0
		for _, id := range survivors {
			total += nodes[id].metric(name)
		}
		return total
	}
	waitFor(t, 30*time.Second, "a survivor to promote n2's range", func() bool { return sum("secmemd_cluster_failovers_total") >= 1 })
	waitFor(t, 30*time.Second, "the promoted range to re-replicate", func() bool { return sum("secmemd_cluster_rerepl_attached") >= 1 })
	clusterLoad(time.Second, 0.9).run(t, smartClients(members))

	// Fenced rejoin: the victim restarts on its stale directory still
	// believing it owns its range; the fence must depose it.
	nodes["n2"] = startMember(t, members[1], root, "-cluster", list)
	waitMetric(t, nodes["n2"], "secmemd_cluster_deposed", 1, "the restarted n2 rejoined fenced")

	// Leave: n3 retires through verified handoffs and the epoch ratchets.
	admin(t, nodes["n3"], func(c *server.Client) ([]byte, error) { return c.ClusterLeave("n3") })
	waitMetric(t, nodes["n3"], "secmemd_cluster_handoffs_total", 1, "n3 completed a handoff")
	waitMetric(t, nodes["n1"], "secmemd_cluster_view_epoch", 2, "the leave epochs reached n1")
	clusterLoad(time.Second, 0.9).run(t, smartClients(members))

	nodes["n1"].lint(t)
	for _, d := range nodes {
		d.term()
	}
	for _, d := range nodes {
		d.waitClean(t)
	}
}
