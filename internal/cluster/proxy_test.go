package cluster

import (
	"context"
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/history"
	"aisebmt/internal/layout"
	"aisebmt/internal/server"
)

// plainClient dials a member's wire port with the single-daemon client:
// it knows nothing of the ring and relies on the member's proxy.
func (tc *testCluster) plainClient(id string) *server.Client {
	tc.t.Helper()
	c, err := server.Dial(tc.members0(id).Wire, 2*time.Second)
	if err != nil {
		tc.t.Fatal(err)
	}
	tc.t.Cleanup(func() { c.Close() })
	return c
}

// TestProxyFailover: a plain client on a proxying member that neither
// owned nor promoted a range reads back every acked write of it after
// its owner dies. Its node's walk starts at the dead owner and reaches
// the promoted standby through the owner's successors.
func TestProxyFailover(t *testing.T) {
	tc := startCluster(t, 3, true)
	lineages := []string{"n1", "n2", "n3"}
	victim := NewRing(lineages).OwnerPage(0)
	succ := tc.lineageSuccessors(victim)
	standby, bystander := succ[0], succ[1]
	c := tc.plainClient(bystander)

	acked := history.New[layout.Addr]()
	pages := pagesOwnedBy(lineages, victim, 16)
	writePages(t, c, acked, pages, 0x30, 5*time.Second)

	tc.kill(victim)
	t.Logf("killed %s; %s promotes, %s proxies", victim, standby, bystander)
	checkAcked(t, c, acked, 10*time.Second, "after the owner died")

	// The range is writable again through the same proxy, and the
	// promotion happened exactly once, on the owner's follower.
	a := blockAddr(pages[0], 0)
	if err := retry(10*time.Second, func() error { return c.Write(a, fillByte(a, 0x77), core.Meta{}) }); err != nil {
		t.Fatalf("proxied write after failover: %v", err)
	}
	acked.Ack(a, fillByte(a, 0x77))
	checkAcked(t, c, acked, 10*time.Second, "after the post-failover write")

	// Concurrent plain clients share the bystander's peer pool and
	// learned redirects.
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		cl := tc.plainClient(bystander)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := acked.Verify(func(a layout.Addr) ([]byte, error) { return cl.Read(a, layout.BlockSize, core.Meta{}) }); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent proxied read: %v", err)
	}
	if got := tc.nodes[standby].node.met.failovers.Load(); got != 1 {
		t.Fatalf("standby %s promoted %d ranges, want 1", standby, got)
	}
	if got := tc.nodes[bystander].node.met.failovers.Load(); got != 0 {
		t.Fatalf("bystander %s promoted %d ranges, want 0", bystander, got)
	}
}

// TestProxyAfterLeave: once a member leaves, proxied requests for the
// range it handed off are served by the new holder, from either
// surviving member.
func TestProxyAfterLeave(t *testing.T) {
	tc := startCluster(t, 3, true)
	lineages := []string{"n1", "n2", "n3"}
	survivors := []string{"n2", "n3"}
	writer := tc.plainClient("n2")

	acked := history.New[layout.Addr]()
	pages := pagesOwnedBy(lineages, "n1", 16)
	writePages(t, writer, acked, pages, 0x40, 10*time.Second)

	if _, err := tc.nodes["n1"].node.ClusterLeave("n1"); err != nil {
		t.Fatalf("ClusterLeave: %v", err)
	}
	holder := tc.nodes["n1"].node.curView().servingMember("n1")
	if holder != "n2" && holder != "n3" {
		t.Fatalf("lineage n1 handed to %q, want a survivor", holder)
	}
	t.Logf("lineage n1 handed to %s", holder)

	for _, id := range survivors {
		checkAcked(t, tc.plainClient(id), acked, 10*time.Second, "after the leave via "+id)
	}
	writePages(t, writer, acked, pages, 0x50, 10*time.Second)
	for _, id := range survivors {
		checkAcked(t, tc.plainClient(id), acked, 10*time.Second, "after a post-leave write via "+id)
	}
}

// TestProxyNeverReforwards: a request a peer's proxy already forwarded
// is served or redirected, never forwarded again, so two proxies that
// both lack a range cannot bounce it between themselves.
func TestProxyNeverReforwards(t *testing.T) {
	tc := startCluster(t, 3, true)
	ring := NewRing([]string{"n1", "n2", "n3"})
	var page uint64
	for ring.OwnerPage(page) == "n1" {
		page++
	}
	owner := tc.members0(ring.OwnerPage(page))
	c := tc.plainClient("n1")
	c.MarkForwarded()
	a := blockAddr(page, 0)
	var addr string
	err := retry(5*time.Second, func() error {
		werr := c.Write(a, fillByte(a, 1), core.Meta{})
		if na, ok := server.NotOwnerAddr(werr); ok {
			addr = na
			return nil
		}
		return werr
	})
	if err != nil || addr != owner.Wire {
		t.Fatalf("forwarded write to a non-owner: err=%v redirect=%q, want NotOwner to %s at %q", err, addr, owner.ID, owner.Wire)
	}
	if got := tc.nodes["n1"].node.met.notOwner.Load(); got == 0 {
		t.Fatal("n1 forwarded instead of redirecting")
	}
}

// scriptNode is a fake cluster member for the walk: its wire server
// answers each write as the shared script says and logs the visit. Only
// Write and Close are ever called.
type scriptNode struct {
	server.Backend
	name   string
	script *walkScript
}

func (s *scriptNode) Write(context.Context, layout.Addr, []byte, core.Meta) error {
	return s.script.visit(s.name)
}

func (s *scriptNode) Close() error { return nil }

// walkScript holds every scripted node's answers and records the order
// the walk asked nodes in. A node without an answer serves.
type walkScript struct {
	mu      sync.Mutex
	answers map[string]func(call int) error
	counts  map[string]int
	order   []string
}

func (w *walkScript) visit(name string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.order = append(w.order, name)
	call := w.counts[name]
	w.counts[name]++
	if f := w.answers[name]; f != nil {
		return f(call)
	}
	return nil
}

// set installs a fresh script.
func (w *walkScript) set(answers map[string]func(int) error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.answers, w.counts = answers, map[string]int{}
}

// take returns and clears the visit order.
func (w *walkScript) take() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.order
	w.order = nil
	return out
}

// TestWalkOrder drives the routing walk through SmartClient's dial seam
// against scripted nodes named by their wire address: the candidate
// order, a NotOwner splice, the learned redirect, the same-node stall
// retry, loop breaking, a definitive verdict and the ring-size bound.
func TestWalkOrder(t *testing.T) {
	members := []Member{
		{ID: "a", Wire: "a", Health: "-", Repl: "-"},
		{ID: "b", Wire: "b", Health: "-", Repl: "-"},
		{ID: "c", Wire: "c", Health: "-", Repl: "-"},
	}
	ms, err := NewMembership(members)
	if err != nil {
		t.Fatal(err)
	}
	owner := ms.ring.OwnerPage(0)
	succ := ms.Successors(owner)
	s1, s2 := succ[0].Wire, succ[1].Wire

	notOwner := func(to string) func(int) error {
		return func(int) error { return &server.NotOwnerError{Addr: to} }
	}
	stalled := func(n int) func(int) error {
		return func(call int) error {
			if call < n {
				return server.ErrUnavailable // answered Overloaded
			}
			return nil
		}
	}

	ws := &walkScript{}
	listen := map[string]string{}
	for _, name := range []string{"a", "b", "c", "x1", "x2", "x3", "x4"} {
		n := &scriptNode{name: name, script: ws}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(n, server.Options{Timeout: time.Second})
		go srv.Serve(ln)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		listen[name] = ln.Addr().String()
	}
	client := func(down ...string) *SmartClient {
		c, err := NewSmartClient(members, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		c.dial = func(addr string) (*server.Client, error) {
			for _, d := range down {
				if d == addr {
					return nil, errors.New("down")
				}
			}
			return server.Dial(listen[addr], time.Second)
		}
		return c
	}
	write := func(c *SmartClient) error { return c.Write(blockAddr(0, 0), fillByte(0, 1), core.Meta{}) }
	expect := func(step string, want ...string) {
		t.Helper()
		if got := ws.take(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: walk asked %v, want %v", step, got, want)
		}
	}

	// A NotOwner answer is spliced in ahead of the remaining successors,
	// and the next walk starts at the node that served.
	c := client()
	ws.set(map[string]func(int) error{owner: notOwner(s2)})
	if err := write(c); err != nil {
		t.Fatalf("splice: %v", err)
	}
	expect("splice", owner, s2)
	if err := write(c); err != nil {
		t.Fatalf("learned: %v", err)
	}
	expect("learned redirect", s2)

	// An Overloaded node is re-asked stallRetries times before the walk
	// moves on; a stall that clears in time is served in place.
	ws.set(map[string]func(int) error{s2: stalled(stallRetries)})
	if err := write(c); err != nil {
		t.Fatalf("stall retry: %v", err)
	}
	expect("stall retry", s2, s2, s2)
	// A stall that outlasts the retries walks on: the owner serves again,
	// and its success clears the learned redirect.
	ws.set(map[string]func(int) error{s2: stalled(stallRetries + 1)})
	if err := write(c); err != nil {
		t.Fatalf("stall walk-on: %v", err)
	}
	expect("stall walk-on", s2, s2, s2, owner)
	if err := write(c); err != nil {
		t.Fatal(err)
	}
	expect("redirect cleared", owner)

	// An unreachable owner falls through to its successors in order.
	ws.set(nil)
	if err := write(client(owner)); err != nil {
		t.Fatalf("dead owner: %v", err)
	}
	expect("dead owner", s1)

	// A redirect loop visits each node once and exhausts to ErrUnavailable.
	ws.set(map[string]func(int) error{owner: notOwner(s1), s1: notOwner(owner), s2: notOwner(s1)})
	err = write(client())
	if !errors.Is(err, server.ErrUnavailable) {
		t.Fatalf("redirect loop: err = %v, want ErrUnavailable", err)
	}
	expect("redirect loop", owner, s1, s2)

	// A definitive verdict ends the walk at once, unwrapped.
	ws.set(map[string]func(int) error{owner: func(int) error { return core.ErrTampered }})
	err = write(client())
	var se *server.StatusError
	if !errors.As(err, &se) || se.Status != server.StatusTampered || errors.Is(err, server.ErrUnavailable) {
		t.Fatalf("tampered: err = %v, want a bare StatusTampered", err)
	}
	expect("definitive verdict", owner)

	// A chain of fresh redirects stops at ring size + 1 nodes.
	ws.set(map[string]func(int) error{
		owner: notOwner("x1"), "x1": notOwner("x2"), "x2": notOwner("x3"), "x3": notOwner("x4"),
	})
	if err := write(client()); !errors.Is(err, server.ErrUnavailable) {
		t.Fatalf("redirect chain: err = %v, want ErrUnavailable", err)
	}
	expect("ring-size bound", owner, "x1", "x2", "x3")

	// A done context stops the walk before its next hop or stall wait: a
	// pre-cancelled walk asks nobody, and one cancelled during the first
	// answer asks nobody else, whether that answer redirects or stalls.
	walkCtx := func(ctx context.Context) error {
		c := client()
		return walk(ctx, c.ms, c, &c.learned, owner, 0, func(cl *server.Client) error {
			return cl.Write(blockAddr(0, 0), fillByte(0, 1), core.Meta{})
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ws.set(nil)
	if err := walkCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled walk: err = %v, want context.Canceled", err)
	}
	expect("pre-cancelled")
	for name, answer := range map[string]func(int) error{"redirect": notOwner(s1), "stall": stalled(stallRetries + 1)} {
		ctx, cancel := context.WithCancel(context.Background())
		ws.set(map[string]func(int) error{owner: func(call int) error { cancel(); return answer(call) }})
		if err := walkCtx(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s cancelled mid-walk: err = %v, want context.Canceled", name, err)
		}
		expect(name+" cancelled mid-walk", owner)
	}
}

// TestProxyHopsHonourPartition: a proxy dials its peers through
// Config.Dialer, so a partition between the proxy and a range's owner
// keeps proxied requests away from the owner. The request fails
// retryably (the owner's successors still redirect to it); nothing lands
// on the owner.
func TestProxyHopsHonourPartition(t *testing.T) {
	tc := startCluster(t, 3, true)
	lineages := []string{"n1", "n2", "n3"}
	owner := "n1"
	proxy := tc.lineageSuccessors(owner)[1] // neither the owner nor its follower
	page := pagesOwnedBy(lineages, owner, 64)[0]
	a := blockAddr(page, 0)
	c := tc.plainClient(proxy)

	// Cut before the proxy ever dials the owner.
	tc.w.partition(proxy, owner, true)
	err := c.Write(a, fillByte(a, 0x22), core.Meta{})
	if !server.Retryable(err) {
		t.Fatalf("proxied write across the partition: err = %v, want a retryable failure", err)
	}
	got, err := tc.plainClient(owner).Read(a, layout.BlockSize, core.Meta{})
	if err != nil {
		t.Fatalf("direct read from the owner: %v", err)
	}
	if got[0] == fillByte(a, 0x22)[0] {
		t.Fatal("the proxied write reached the owner across the partition")
	}

	tc.w.partition(proxy, owner, false)
	if err := retry(5*time.Second, func() error { return c.Write(a, fillByte(a, 0x33), core.Meta{}) }); err != nil {
		t.Fatalf("proxied write after the partition healed: %v", err)
	}
}
