package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/history"
	"aisebmt/internal/layout"
	"aisebmt/internal/persist"
	"aisebmt/internal/server"
	"aisebmt/internal/shard"
)

var testKey = []byte("cluster-test-key")

// testShardCfg builds the identical pool geometry every member runs:
// 2 shards × 8 pages, full AISE + Bonsai protection.
func testShardCfg() shard.Config {
	return shard.Config{
		Shards:     2,
		QueueDepth: 16,
		BatchMax:   8,
		Core: core.Config{
			DataBytes:  2 * 8 * layout.PageSize,
			MACBits:    64,
			Key:        testKey,
			Encryption: core.AISE,
			Integrity:  core.BonsaiMT,
			SwapSlots:  8,
		},
	}
}

// world simulates the network's failure modes for a test cluster: nodes
// marked down refuse probes and dials, and cut pairs model a partition.
// The data plane is real loopback TCP; probe and dial decisions,
// connections dialed through the world and listener lifecycle are
// intercepted.
type world struct {
	mu     sync.Mutex
	down   map[string]bool
	cut    map[[2]string]bool
	byAddr map[string]string // any listen addr -> member ID
}

func newWorld() *world {
	return &world{down: map[string]bool{}, cut: map[[2]string]bool{}, byAddr: map[string]string{}}
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

func (w *world) setDown(id string, v bool) {
	w.mu.Lock()
	w.down[id] = v
	w.mu.Unlock()
}

func (w *world) partition(a, b string, v bool) {
	w.mu.Lock()
	w.cut[pairKey(a, b)] = v
	w.mu.Unlock()
}

func (w *world) blocked(from, toID string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.down[toID] || w.cut[pairKey(from, toID)]
}

func (w *world) probe(from string, m Member) error {
	if w.blocked(from, m.ID) {
		return fmt.Errorf("probe: %s unreachable from %s", m.ID, from)
	}
	return nil
}

func (w *world) dial(from, addr string) (net.Conn, error) {
	w.mu.Lock()
	toID := w.byAddr[addr]
	w.mu.Unlock()
	if toID != "" && w.blocked(from, toID) {
		return nil, fmt.Errorf("dial: %s unreachable from %s", toID, from)
	}
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil || toID == "" {
		return c, err
	}
	return &cutConn{Conn: c, w: w, from: from, to: toID}, nil
}

// cutConn makes an established connection honor partitions: once the
// pair is cut, its I/O fails — a replication stream riding a
// pre-partition connection must stall as the real network would stall
// it, not keep acknowledging through the cut.
type cutConn struct {
	net.Conn
	w        *world
	from, to string
}

func (c *cutConn) Read(p []byte) (int, error) {
	if c.w.blocked(c.from, c.to) {
		c.Conn.Close()
		return 0, fmt.Errorf("%s->%s cut", c.from, c.to)
	}
	return c.Conn.Read(p)
}

func (c *cutConn) Write(p []byte) (int, error) {
	if c.w.blocked(c.from, c.to) {
		c.Conn.Close()
		return 0, fmt.Errorf("%s->%s cut", c.from, c.to)
	}
	return c.Conn.Write(p)
}

// trackListener lets the harness sever every accepted connection at
// once, simulating a node crash without cooperating shutdown.
type trackListener struct {
	net.Listener
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func track(ln net.Listener) *trackListener {
	return &trackListener{Listener: ln, conns: map[net.Conn]struct{}{}}
}

func (t *trackListener) Accept() (net.Conn, error) {
	c, err := t.Listener.Accept()
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.conns[c] = struct{}{}
	t.mu.Unlock()
	return c, nil
}

func (t *trackListener) kill() {
	t.Listener.Close()
	t.mu.Lock()
	for c := range t.conns {
		c.Close()
	}
	t.conns = map[net.Conn]struct{}{}
	t.mu.Unlock()
}

// testNode is one member's full stack: store, pool, Node, wire server.
type testNode struct {
	id     string
	dir    string
	store  *persist.Store
	node   *Node
	srv    *server.Server
	wireLn *trackListener
	dead   bool
}

type testCluster struct {
	t       *testing.T
	w       *world
	members []Member
	nodes   map[string]*testNode
	dir     string
}

// startCluster boots n members on loopback listeners with fast failover
// tuning (probe 25ms, promote after 3 misses).
func startCluster(t *testing.T, n int, proxy bool) *testCluster {
	t.Helper()
	tc := &testCluster{t: t, w: newWorld(), nodes: map[string]*testNode{}, dir: t.TempDir()}
	type pre struct {
		wire, repl net.Listener
	}
	pres := make([]pre, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i+1)
		wire, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		repl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		pres[i] = pre{wire, repl}
		m := Member{
			ID:     id,
			Wire:   wire.Addr().String(),
			Health: "127.0.0.1:1", // never probed: tests inject w.probe
			Repl:   repl.Addr().String(),
		}
		tc.members = append(tc.members, m)
		tc.w.byAddr[m.Wire] = id
		tc.w.byAddr[m.Repl] = id
	}
	for i, m := range tc.members {
		tc.nodes[m.ID] = tc.boot(m, pres[i].wire, pres[i].repl, proxy, nil)
	}
	t.Cleanup(tc.shutdown)
	return tc
}

// boot builds one member's stack on the given listeners. A non-nil iv
// boots the member from a fetched view (the join bootstrap) instead of
// the static member list.
func (tc *testCluster) boot(m Member, wireLn, replLn net.Listener, proxy bool, iv *View) *testNode {
	tc.t.Helper()
	dir := filepath.Join(tc.dir, m.ID, "data")
	st, err := persist.Open(persist.Options{Dir: dir, Key: testKey, Fsync: persist.FsyncAlways})
	if err != nil {
		tc.t.Fatal(err)
	}
	pool, _, err := st.Recover(testShardCfg())
	if err != nil {
		tc.t.Fatal(err)
	}
	node, err := NewNode(Config{
		Self:          m.ID,
		Members:       tc.members,
		InitialView:   iv,
		Pool:          pool,
		Store:         st,
		ShardCfg:      testShardCfg(),
		Key:           testKey,
		DataDir:       filepath.Join(tc.dir, m.ID),
		Fsync:         persist.FsyncAlways,
		ReplListener:  replLn,
		Proxy:         proxy,
		Dialer:        tc.w.dial,
		Probe:         tc.w.probe,
		ProbeEvery:    25 * time.Millisecond,
		FailAfter:     3,
		IOTimeout:     2 * time.Second,
		AttachBackoff: 10 * time.Millisecond,
		Logf:          tc.t.Logf,
	})
	if err != nil {
		tc.t.Fatal(err)
	}
	srv := server.New(node, server.Options{Timeout: time.Second})
	tln := track(wireLn)
	go srv.Serve(tln)
	return &testNode{id: m.ID, dir: dir, store: st, node: node, srv: srv, wireLn: tln}
}

// kill crashes a member: listeners and live connections sever, probes
// and dials to it fail, and then its pools and stores stop, with no
// checkpoint and no graceful handoff. Stopping them is still a crash:
// every member runs FsyncAlways, so a store's Close makes durable nothing
// that a crash just after its last sync would not have kept.
func (tc *testCluster) kill(id string) {
	n := tc.nodes[id]
	n.dead = true
	tc.w.setDown(id, true)
	n.node.Halt()
	n.wireLn.kill()
	nd := n.node
	nd.mu.Lock()
	sbs, prs := nd.standbys, nd.promoted
	nd.mu.Unlock()
	for _, sb := range sbs {
		sb.pool.Close()
	}
	for _, pr := range prs {
		pr.pool.Close()
		pr.store.Close()
	}
	for len(nd.reap) > 0 {
		it := <-nd.reap
		it.pr.pool.Close()
		it.pr.store.Close()
	}
	nd.cfg.Pool.Close()
	n.store.Close()
}

func (tc *testCluster) shutdown() {
	for _, n := range tc.nodes {
		if n.dead {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		n.srv.Shutdown(ctx)
		cancel()
		n.store.Close()
	}
	tc.checkNoMembersLeft()
}

// checkNoMembersLeft fails the test if a pool worker or a store's repair
// loop outlives the cluster: a member the world killed or shut down must
// stop every goroutine it ran.
func (tc *testCluster) checkNoMembersLeft() {
	deadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		for {
			if n := runtime.Stack(buf, true); n < len(buf) {
				buf = buf[:n]
				break
			}
			buf = make([]byte, 2*len(buf))
		}
		workers := bytes.Count(buf, []byte("shard.(*Pool).worker("))
		repairs := bytes.Count(buf, []byte("persist.(*Store).repairLoop("))
		if workers+repairs == 0 {
			return
		}
		if time.Now().After(deadline) {
			tc.t.Errorf("%d pool worker and %d store repair goroutines outlived the cluster", workers, repairs)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (tc *testCluster) client() *SmartClient {
	c, err := NewSmartClient(tc.members, 2*time.Second)
	if err != nil {
		tc.t.Fatal(err)
	}
	tc.t.Cleanup(func() { c.Close() })
	return c
}

// retry runs op with backoff until success or the deadline; returns the
// last error on timeout. Only cluster-retryable errors are retried.
func retry(deadline time.Duration, op func() error) error {
	var err error
	end := time.Now().Add(deadline)
	wait := 5 * time.Millisecond
	for time.Now().Before(end) {
		if err = op(); err == nil || !Retryable(err) {
			return err
		}
		time.Sleep(wait)
		if wait *= 2; wait > 100*time.Millisecond {
			wait = 100 * time.Millisecond
		}
	}
	return err
}

func blockAddr(page uint64, block int) layout.Addr {
	return layout.Addr(page*layout.PageSize + uint64(block)*layout.BlockSize)
}

func fillByte(addr layout.Addr, v byte) []byte {
	b := make([]byte, layout.BlockSize)
	for i := range b {
		b[i] = v ^ byte(addr>>6)
	}
	return b
}

// firstPages lists pages 0 through n-1.
func firstPages(n uint64) []uint64 {
	out := make([]uint64, n)
	for p := range out {
		out[p] = uint64(p)
	}
	return out
}

// regClient is the read/write surface SmartClient and a plain
// server.Client share.
type regClient interface {
	Write(a layout.Addr, data []byte, meta core.Meta) error
	Read(a layout.Addr, n int, meta core.Meta) ([]byte, error)
}

// writePages writes fillByte(a, tag^p) to block p%4 of each page through
// c, retrying unavailability for up to budget, and records every ack in
// acked.
func writePages(t *testing.T, c regClient, acked *history.Model[layout.Addr], pages []uint64, tag byte, budget time.Duration) {
	t.Helper()
	for _, p := range pages {
		a := blockAddr(p, int(p)%4)
		v := fillByte(a, tag^byte(p))
		if err := retry(budget, func() error { return c.Write(a, v, core.Meta{}) }); err != nil {
			t.Fatalf("write page %d: %v", p, err)
		}
		acked.Ack(a, v)
	}
}

// checkAcked reads every written address back through c and fails the
// test on a read error or an acknowledged write lost. A non-zero wait
// retries unavailability for that long before a read counts as failed.
func checkAcked(t *testing.T, c regClient, acked *history.Model[layout.Addr], wait time.Duration, when string) {
	t.Helper()
	_, err := acked.Verify(func(a layout.Addr) (got []byte, err error) {
		read := func() error { got, err = c.Read(a, layout.BlockSize, core.Meta{}); return err }
		if wait == 0 {
			return got, read()
		}
		return got, retry(wait, read)
	})
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// TestClusterReplicatedWrites: a 3-node cluster serves the full address
// space through smart routing, and every write lands on the owner with
// a synchronous standby ack behind it.
func TestClusterReplicatedWrites(t *testing.T) {
	tc := startCluster(t, 3, false)
	c := tc.client()
	const pages = 16
	for p := uint64(0); p < pages; p++ {
		a := blockAddr(p, int(p)%4)
		if err := retry(5*time.Second, func() error { return c.Write(a, fillByte(a, 0x41), core.Meta{}) }); err != nil {
			t.Fatalf("write page %d: %v", p, err)
		}
	}
	for p := uint64(0); p < pages; p++ {
		a := blockAddr(p, int(p)%4)
		got, err := c.Read(a, layout.BlockSize, core.Meta{})
		if err != nil {
			t.Fatalf("read page %d: %v", p, err)
		}
		want := fillByte(a, 0x41)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("page %d byte %d: got %#x want %#x", p, i, got[i], want[i])
			}
		}
	}
	// Replication really ran: every node with at least one owned page
	// that was written shipped segments.
	for _, n := range tc.nodes {
		if got := n.node.met.segShipped.Load(); got == 0 {
			t.Errorf("node %s shipped no segments", n.id)
		}
	}
}

// TestClusterDumbClientRedirect: a plain wire client pointed at the
// wrong node gets StatusNotOwner carrying the owner's address.
func TestClusterDumbClientRedirect(t *testing.T) {
	tc := startCluster(t, 3, false)
	ring := NewRing([]string{"n1", "n2", "n3"})
	// Find a page n1 does not own.
	var page uint64
	for p := uint64(0); p < 64; p++ {
		if ring.OwnerPage(p) != "n1" {
			page = p
			break
		}
	}
	owner := ring.OwnerPage(page)
	cl, err := server.Dial(tc.members[0].Wire, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	a := blockAddr(page, 0)
	werr := cl.Write(a, fillByte(a, 1), core.Meta{})
	addr, ok := server.NotOwnerAddr(werr)
	if !ok {
		t.Fatalf("write to non-owner: got %v, want NotOwner", werr)
	}
	var want string
	for _, m := range tc.members {
		if m.ID == owner {
			want = m.Wire
		}
	}
	if addr != want {
		t.Fatalf("redirect to %q, want owner %s at %q", addr, owner, want)
	}
}

// TestClusterProxyMode: with proxying on, any node serves any page for
// a dumb client by forwarding to the owner.
func TestClusterProxyMode(t *testing.T) {
	tc := startCluster(t, 3, true)
	cl, err := server.Dial(tc.members[0].Wire, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for p := uint64(0); p < 8; p++ {
		a := blockAddr(p, 1)
		if err := retry(5*time.Second, func() error { return cl.Write(a, fillByte(a, 0x5a), core.Meta{}) }); err != nil {
			t.Fatalf("proxied write page %d: %v", p, err)
		}
		got, err := cl.Read(a, layout.BlockSize, core.Meta{})
		if err != nil {
			t.Fatalf("proxied read page %d: %v", p, err)
		}
		if got[0] != fillByte(a, 0x5a)[0] {
			t.Fatalf("proxied read page %d returned wrong data", p)
		}
	}
}

// TestClusterFailover is the tentpole invariant: kill an owner under
// load and every acknowledged write must survive into the promoted
// standby, served by the dead node's follower.
func TestClusterFailover(t *testing.T) {
	tc := startCluster(t, 3, false)
	c := tc.client()
	ring := NewRing([]string{"n1", "n2", "n3"})

	acked := history.New[layout.Addr]()
	writePages(t, c, acked, firstPages(16), 0x10, 5*time.Second)

	victim := ring.OwnerPage(0)
	tc.kill(victim)
	t.Logf("killed %s", victim)

	// Recovery-to-first-byte on the victim's range: a write to page 0
	// must succeed once the follower promotes (probe 25ms × 3 misses).
	start := time.Now()
	a0 := blockAddr(0, 0)
	if err := retry(10*time.Second, func() error { return c.Write(a0, fillByte(a0, 0x77), core.Meta{}) }); err != nil {
		t.Fatalf("write to dead owner's range never recovered: %v", err)
	}
	acked.Ack(a0, fillByte(a0, 0x77))
	t.Logf("recovery to first byte: %s", time.Since(start))

	// Full sweep under the new topology, then check the history: zero
	// acknowledged writes lost.
	writePages(t, c, acked, firstPages(16), 0x20, 10*time.Second)
	checkAcked(t, c, acked, 0, "after failover")

	// Exactly one surviving node promoted the victim's range.
	promotions := 0
	for id, n := range tc.nodes {
		if n.dead {
			continue
		}
		if got := n.node.met.failovers.Load(); got > 0 {
			promotions += int(got)
			t.Logf("node %s promoted %d range(s)", id, got)
		}
	}
	if promotions != 1 {
		t.Fatalf("want exactly 1 promotion, got %d", promotions)
	}
}

// TestClusterPartitionFencing: an owner partitioned from the rest of
// the cluster stops acknowledging (stalled replication), its follower
// promotes, and after the partition heals the deposed owner answers
// NotOwner — the fencing epoch prevents split-brain on both sides.
func TestClusterPartitionFencing(t *testing.T) {
	tc := startCluster(t, 3, false)
	c := tc.client()
	ring := NewRing([]string{"n1", "n2", "n3"})
	victim := ring.OwnerPage(0)
	a := blockAddr(0, 0)

	if err := retry(5*time.Second, func() error { return c.Write(a, fillByte(a, 1), core.Meta{}) }); err != nil {
		t.Fatal(err)
	}

	// Cut the victim off from both peers (clients still reach it).
	for _, m := range tc.members {
		if m.ID != victim {
			tc.w.partition(victim, m.ID, true)
		}
	}
	// Sever its replication stream so the next write actually exercises
	// the stalled path rather than riding the established connection.
	vic := tc.nodes[victim]
	vic.node.ship.close()

	// A direct write to the partitioned owner must not be acknowledged:
	// its stream is down and it cannot re-attach across the partition.
	err := c.DirectWrite(victim, a, fillByte(a, 2), core.Meta{})
	if err == nil {
		t.Fatal("partitioned owner acknowledged a write with replication down")
	}
	if !Retryable(err) {
		t.Fatalf("stalled write should be retryable, got %v", err)
	}

	// The follower promotes (it cannot probe the victim) and serves.
	if err := retry(10*time.Second, func() error { return c.Write(a, fillByte(a, 3), core.Meta{}) }); err != nil {
		t.Fatalf("follower never took over the partitioned range: %v", err)
	}

	// Heal. The victim's shipper re-attaches, is told it is fenced, and
	// must answer NotOwner from then on.
	for _, m := range tc.members {
		if m.ID != victim {
			tc.w.partition(victim, m.ID, false)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := c.DirectWrite(victim, a, fillByte(a, 4), core.Meta{})
		if _, ok := server.NotOwnerAddr(err); ok {
			break
		}
		var se *server.StatusError
		if errors.As(err, &se) && se.Status == server.StatusNotOwner {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("deposed owner still answers %v, want NotOwner", err)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// The promoted value (3) survived; the fenced write (2, 4) did not.
	got, err := c.Read(a, layout.BlockSize, core.Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if want := fillByte(a, 3); got[0] != want[0] {
		t.Fatalf("read %#x, want the promoted value %#x", got[0], want[0])
	}
}
