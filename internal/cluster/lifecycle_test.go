package cluster

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/history"
	"aisebmt/internal/layout"
	"aisebmt/internal/persist"
	"aisebmt/internal/server"
)

// Lifecycle tests: automatic re-replication after failover, ring
// membership changes (join/leave), fenced rejoin of deposed members, and
// the edge cases between them. They share the test world from
// cluster_test.go and check every scenario against the history of
// acknowledged writes (internal/history) — the invariant under test is
// always "zero acknowledged writes lost, exactly one owner".

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timeout: %s", msg)
}

// lineageSuccessors returns the ring-order successor IDs of id over the
// static member list — the deterministic attach / promotion order.
func (tc *testCluster) lineageSuccessors(id string) []string {
	ms, err := NewMembership(tc.members)
	if err != nil {
		tc.t.Fatal(err)
	}
	var out []string
	for _, m := range ms.Successors(id) {
		out = append(out, m.ID)
	}
	return out
}

// pagesOwnedBy lists pages (of the first `limit`) the lineage ring
// assigns to lineage l.
func pagesOwnedBy(lineages []string, l string, limit uint64) []uint64 {
	ring := NewRing(lineages)
	var out []uint64
	for p := uint64(0); p < limit; p++ {
		if ring.OwnerPage(p) == l {
			out = append(out, p)
		}
	}
	return out
}

// restart reboots a crashed founding member on its original addresses
// and data directory — the stale-data-dir rejoin path. The old in-process
// stack is abandoned exactly as a SIGKILL would leave it.
func (tc *testCluster) restart(id string) *testNode {
	tc.t.Helper()
	var m Member
	for _, x := range tc.members {
		if x.ID == id {
			m = x
		}
	}
	if m.ID == "" {
		tc.t.Fatalf("restart: unknown member %s", id)
	}
	wire, err := net.Listen("tcp", m.Wire)
	if err != nil {
		tc.t.Fatalf("restart %s: rebind wire: %v", id, err)
	}
	repl, err := net.Listen("tcp", m.Repl)
	if err != nil {
		tc.t.Fatalf("restart %s: rebind repl: %v", id, err)
	}
	tc.w.setDown(id, false)
	n := tc.boot(m, wire, repl, false, nil)
	tc.nodes[id] = n
	return n
}

// join admits a fresh member id through a live seed's admin op and boots
// its daemon from the fetched view, like secmemd -cluster-join does.
func (tc *testCluster) join(id, seed string) *testNode {
	tc.t.Helper()
	wire, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tc.t.Fatal(err)
	}
	repl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tc.t.Fatal(err)
	}
	m := Member{ID: id, Wire: wire.Addr().String(), Health: "127.0.0.1:1", Repl: repl.Addr().String()}
	tc.w.mu.Lock()
	tc.w.byAddr[m.Wire] = id
	tc.w.byAddr[m.Repl] = id
	tc.w.mu.Unlock()
	spec := fmt.Sprintf("%s=%s/%s/%s", m.ID, m.Wire, m.Health, m.Repl)
	if _, err := tc.nodes[seed].node.ClusterJoin(spec); err != nil {
		tc.t.Fatalf("ClusterJoin(%s): %v", spec, err)
	}
	v, err := FetchView(tc.members0(seed).Repl, testKey, 2*time.Second)
	if err != nil {
		tc.t.Fatalf("FetchView from %s: %v", seed, err)
	}
	if _, ok := v.member(id); !ok {
		tc.t.Fatalf("joined view %d does not list %s", v.Epoch, id)
	}
	n := tc.boot(m, wire, repl, false, v)
	tc.nodes[id] = n
	return n
}

func (tc *testCluster) members0(id string) Member {
	for _, m := range tc.members {
		if m.ID == id {
			return m
		}
	}
	tc.t.Fatalf("unknown member %s", id)
	return Member{}
}

// TestLifecycleRereplAfterFailover: after a promotion the new owner
// automatically re-establishes a standby for the adopted range on its
// own successor, closing the single-copy window without operator help.
func TestLifecycleRereplAfterFailover(t *testing.T) {
	tc := startCluster(t, 3, false)
	c := tc.client()
	lineages := []string{"n1", "n2", "n3"}
	ring := NewRing(lineages)
	acked := history.New[layout.Addr]()
	writePages(t, c, acked, firstPages(16), 0x30, 5*time.Second)

	victim := ring.OwnerPage(0)
	succ := tc.lineageSuccessors(victim)
	promoter, third := succ[0], succ[1]
	tc.kill(victim)

	a0 := blockAddr(0, 0)
	if err := retry(10*time.Second, func() error { return c.Write(a0, fillByte(a0, 0x71), core.Meta{}) }); err != nil {
		t.Fatalf("victim range never recovered: %v", err)
	}
	acked.Ack(a0, fillByte(a0, 0x71))

	// The promoted range re-replicates: the promoter's stream attaches a
	// standby for the victim's lineage on the remaining member.
	pn, tn := tc.nodes[promoter], tc.nodes[third]
	waitFor(t, 10*time.Second, func() bool { return tn.node.holdsStandby(victim) },
		fmt.Sprintf("%s never received a re-replication standby for %s", third, victim))
	waitFor(t, 5*time.Second, func() bool { return pn.node.met.rereplAttached.Load() == 1 },
		"re-replication attach gauge never rose")
	if got := pn.node.met.rereplTries.Load(); got == 0 {
		t.Error("rerepl attach attempts counter never incremented")
	}

	// Writes keep flowing synchronously and nothing acknowledged is lost.
	writePages(t, c, acked, firstPages(16), 0x40, 10*time.Second)
	checkAcked(t, c, acked, 0, "after re-replication")
}

// TestLifecycleRereplSurvivesStandbyDeath: kill the member that received
// the re-replication standby while the promoted range depends on it; the
// stream must walk on to the next successor and re-close the window.
func TestLifecycleRereplSurvivesStandbyDeath(t *testing.T) {
	tc := startCluster(t, 4, false)
	c := tc.client()
	lineages := []string{"n1", "n2", "n3", "n4"}
	ring := NewRing(lineages)
	acked := history.New[layout.Addr]()

	victimPages := pagesOwnedBy(lineages, ring.OwnerPage(0), 16)
	writePages(t, c, acked, victimPages, 0x50, 5*time.Second)

	victim := ring.OwnerPage(0)
	promoter := tc.lineageSuccessors(victim)[0]
	tc.kill(victim)

	a0 := blockAddr(victimPages[0], 0)
	if err := retry(10*time.Second, func() error { return c.Write(a0, fillByte(a0, 0x51), core.Meta{}) }); err != nil {
		t.Fatalf("victim range never recovered: %v", err)
	}
	acked.Ack(a0, fillByte(a0, 0x51))

	// The standby for the promoted range lands on the promoter's first
	// live successor. Kill it — mid-re-replication from the cluster's
	// point of view — and the stream must re-attach to the survivor.
	var standbyHolder string
	waitFor(t, 10*time.Second, func() bool {
		for id, n := range tc.nodes {
			if id != promoter && !n.dead && n.node.holdsStandby(victim) {
				standbyHolder = id
				return true
			}
		}
		return false
	}, "no member received the re-replication standby")
	tc.kill(standbyHolder)
	t.Logf("killed standby holder %s during re-replication of %s", standbyHolder, victim)

	var survivor string
	for id, n := range tc.nodes {
		if !n.dead && id != promoter {
			survivor = id
		}
	}
	// An attached stream only notices its peer died when it ships a
	// segment, so keep writing: the writes stall retryably over the break
	// and resume once the stream re-attaches on the survivor.
	writePages(t, c, acked, victimPages, 0x60, 20*time.Second)
	waitFor(t, 15*time.Second, func() bool { return tc.nodes[survivor].node.holdsStandby(victim) },
		fmt.Sprintf("re-replication stream never re-attached on %s", survivor))
	checkAcked(t, c, acked, 0, "after the standby holder died")
}

// TestLifecycleRereplPlacementRevert: a re-replication standby that
// landed on a fallback successor — the preferred one was unreachable
// while the stream swept after a promotion — migrates back to the
// preferred member at the next checkpoint rotation of the promoter's own
// store, and the fallback's stale copy is reaped. Before the rotate-hook
// re-evaluation, an attached stream never re-swept, so the standby sat
// on the fallback forever and failover arbitration kept looking for it
// in the wrong place.
func TestLifecycleRereplPlacementRevert(t *testing.T) {
	tc := startCluster(t, 4, false)
	c := tc.client()
	lineages := []string{"n1", "n2", "n3", "n4"}
	ring := NewRing(lineages)
	acked := history.New[layout.Addr]()
	writePages(t, c, acked, firstPages(16), 0x10, 5*time.Second)

	victim := ring.OwnerPage(0)
	promoter := tc.lineageSuccessors(victim)[0]
	// The promoter's preferred standby target is its first live ring
	// successor; the next live one is the fallback the race parks on.
	var preferred, fallback string
	for _, id := range tc.lineageSuccessors(promoter) {
		if id == victim || id == promoter {
			continue
		}
		if preferred == "" {
			preferred = id
		} else if fallback == "" {
			fallback = id
		}
	}
	t.Logf("victim %s, promoter %s, preferred %s, fallback %s", victim, promoter, preferred, fallback)

	// The race: the preferred successor is unreachable from the promoter
	// exactly while re-replication establishes the adopted range's standby.
	tc.w.partition(promoter, preferred, true)
	tc.kill(victim)
	a0 := blockAddr(0, 0)
	if err := retry(10*time.Second, func() error { return c.Write(a0, fillByte(a0, 0x71), core.Meta{}) }); err != nil {
		t.Fatalf("victim range never recovered: %v", err)
	}
	acked.Ack(a0, fillByte(a0, 0x71))
	waitFor(t, 10*time.Second, func() bool { return tc.nodes[fallback].node.holdsStandby(victim) },
		fmt.Sprintf("standby for %s never landed on fallback %s", victim, fallback))
	// The re-evaluation tick only moves an *attached* stream (a detached
	// one re-sweeps in preferred order by itself); wait out the window
	// between the fallback importing the baseline and the promoter
	// processing its ack.
	pn := tc.nodes[promoter]
	waitFor(t, 10*time.Second, func() bool { return pn.node.met.rereplAttached.Load() >= 1 },
		"re-replication stream never finished attaching to the fallback")

	// Heal. An attached stream has no reason to resweep on its own: the
	// standby stays parked until the next rotation tick re-evaluates it.
	tc.w.partition(promoter, preferred, false)
	if got := pn.node.met.rereplMoves.Load(); got != 0 {
		t.Fatalf("placement moved before the rotation tick (%d moves)", got)
	}
	if err := pn.store.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Writes keep flowing while the stream re-baselines on the preferred
	// member, and the fallback's stale copy is reaped by its monitor.
	writePages(t, c, acked, firstPages(16), 0x20, 20*time.Second)
	waitFor(t, 15*time.Second, func() bool { return tc.nodes[preferred].node.holdsStandby(victim) },
		fmt.Sprintf("standby for %s never moved to preferred successor %s", victim, preferred))
	if got := pn.node.met.rereplMoves.Load(); got == 0 {
		t.Error("placement move not counted")
	}
	waitFor(t, 15*time.Second, func() bool { return !tc.nodes[fallback].node.holdsStandby(victim) },
		fmt.Sprintf("stale standby on fallback %s never reaped", fallback))

	checkAcked(t, c, acked, 0, "after the placement move")
}

// TestLifecycleJoinLeave: a member joins through the admin op and a
// fetched view, immediately hosts redirects, and a leaving member hands
// every range off with zero acknowledged-write loss. The retired ID is
// burned: a restart under it is refused.
func TestLifecycleJoinLeave(t *testing.T) {
	tc := startCluster(t, 3, false)
	c := tc.client()
	lineages := []string{"n1", "n2", "n3"}
	acked := history.New[layout.Addr]()
	writePages(t, c, acked, firstPages(16), 0x10, 5*time.Second)

	j := tc.join("n9", "n2")
	if j.node.selfLineage != "" {
		t.Fatalf("joiner founded lineage %q, want none", j.node.selfLineage)
	}
	// The join ratcheted every live member to the new epoch.
	for _, id := range lineages {
		waitFor(t, 5*time.Second, func() bool { return tc.nodes[id].node.curView().Epoch == 1 },
			fmt.Sprintf("%s never applied the join epoch", id))
	}
	// A lineage-less member serves nothing from its local pool.
	cl, err := server.Dial(j.node.self.Wire, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	a := blockAddr(0, 0)
	if werr := cl.Write(a, fillByte(a, 1), core.Meta{}); werr == nil {
		t.Fatal("joiner acknowledged a write for a range it does not serve")
	}
	cl.Close()
	writePages(t, c, acked, firstPages(16), 0x20, 5*time.Second)

	// n1 retires: every range it serves moves through a verified handoff.
	leaver := tc.nodes["n1"]
	if _, err := leaver.node.ClusterLeave("n1"); err != nil {
		t.Fatalf("ClusterLeave: %v", err)
	}
	if got := leaver.node.met.handoffs.Load(); got != 1 {
		t.Errorf("leaver completed %d handoffs, want 1", got)
	}
	final := leaver.node.curView()
	if !final.isRemoved("n1") {
		t.Fatal("final view does not mark n1 removed")
	}
	newHolder := final.servingMember("n1")
	if newHolder == "n1" || newHolder == "" {
		t.Fatalf("lineage n1 still assigned to %q after leave", newHolder)
	}
	t.Logf("lineage n1 handed to %s; final epoch %d", newHolder, final.Epoch)

	// The retired shell redirects, the new holder serves, nothing is lost.
	writePages(t, c, acked, firstPages(16), 0x30, 10*time.Second)
	checkAcked(t, c, acked, 0, "after the leave")

	// The removed ID is burned: booting it again is refused.
	leaver.dead = true
	tc.shutdownNode(leaver)
	st, err := persist.Open(persist.Options{Dir: leaver.dir, Key: testKey, Fsync: persist.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pool, _, err := st.Recover(testShardCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	_, err = NewNode(Config{
		Self: "n1", Members: tc.members, Pool: pool, Store: st,
		ShardCfg: testShardCfg(), Key: testKey,
		DataDir: filepath.Join(tc.dir, "n1"), Fsync: persist.FsyncAlways,
	})
	if err == nil || !strings.Contains(err.Error(), "removed") {
		t.Fatalf("removed member rebooted: err=%v, want removed-member refusal", err)
	}
}

// shutdownNode gracefully stops one member outside the cleanup path.
func (tc *testCluster) shutdownNode(n *testNode) {
	tc.t.Helper()
	n.wireLn.kill()
	n.node.Close()
	n.store.Close()
}

// TestLifecycleJoinerDeathMidHandoff: the handoff target dies while the
// baseline is in flight. The handoff times out, ownership never moves,
// and the old holder resumes serving with its normal replication stream.
func TestLifecycleJoinerDeathMidHandoff(t *testing.T) {
	if testing.Short() {
		t.Skip("handoff abort rides out the full attach deadline")
	}
	tc := startCluster(t, 3, false)
	c := tc.client()
	acked := history.New[layout.Addr]()
	writePages(t, c, acked, firstPages(16), 0x10, 5*time.Second)

	tc.join("n9", "n1")
	// Cut the holder off from the joiner, then kill the joiner outright
	// shortly after the handoff pins its stream to it.
	tc.w.partition("n2", "n9", true)
	errc := make(chan error, 1)
	go func() { errc <- tc.nodes["n2"].node.handoff("n2", "n9") }()
	time.Sleep(50 * time.Millisecond)
	tc.kill("n9")

	epochBefore := tc.nodes["n2"].node.curView().Epoch
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("handoff to a dead joiner reported success")
		}
		t.Logf("handoff aborted as expected: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("handoff neither completed nor aborted")
	}
	if got := tc.nodes["n2"].node.curView(); got.servingMember("n2") != "n2" {
		t.Fatalf("ownership of n2 moved to %q despite aborted handoff", got.servingMember("n2"))
	}
	if got := tc.nodes["n2"].node.curView().Epoch; got != epochBefore {
		t.Fatalf("epoch ratcheted %d -> %d by an aborted handoff", epochBefore, got)
	}

	// The holder resumes: its stream re-attaches to a real successor and
	// every acknowledged write is still there.
	writePages(t, c, acked, firstPages(16), 0x20, 15*time.Second)
	checkAcked(t, c, acked, 0, "after the aborted handoff")
}

// TestLifecycleFencedRejoin: a deposed member restarts on its stale data
// dir, is fenced by the promoted holder, receives a fresh verified
// baseline as a follower (twice — restarts must be idempotent), and
// finally takes its range back when the holder dies.
func TestLifecycleFencedRejoin(t *testing.T) {
	tc := startCluster(t, 3, false)
	c := tc.client()
	lineages := []string{"n1", "n2", "n3"}
	ring := NewRing(lineages)
	acked := history.New[layout.Addr]()

	victim := ring.OwnerPage(0)
	succ := tc.lineageSuccessors(victim)
	promoter, third := succ[0], succ[1]
	victimPages := pagesOwnedBy(lineages, victim, 16)
	promoterPages := pagesOwnedBy(lineages, promoter, 16)
	writePages(t, c, acked, victimPages, 0x11, 5*time.Second)
	writePages(t, c, acked, promoterPages, 0x12, 5*time.Second)

	tc.kill(victim)
	writePages(t, c, acked, victimPages, 0x21, 10*time.Second) // forces promotion on the promoter
	if got := tc.nodes[promoter].node.met.failovers.Load(); got != 1 {
		t.Fatalf("promoter %s recorded %d failovers, want 1", promoter, got)
	}
	// Deterministic topology for the rest: drop the third member so the
	// rejoined victim is the only candidate for every stream. With no
	// live standby target left, the promoted range is single-copy until
	// the victim comes back.
	tc.kill(third)

	// First rejoin: the stale victim restarts, its own stream dials the
	// promoted holder, and the fence answer deposes it — no operator
	// steps.
	vn := tc.restart(victim)
	waitFor(t, 10*time.Second, func() bool { _, dep := vn.node.isDeposed(); return dep },
		"restarted victim never learned it was deposed")
	// Writes break the holder's dead streams (the third member still
	// looks attached until a segment ships) and stall retryably until
	// fresh verified baselines land on the rejoined member.
	writePages(t, c, acked, victimPages, 0x31, 20*time.Second)
	writePages(t, c, acked, promoterPages, 0x32, 20*time.Second)
	waitFor(t, 15*time.Second, func() bool { return vn.node.met.rejoins.Load() >= 1 },
		"fenced rejoin baseline never arrived")
	waitFor(t, 10*time.Second, func() bool { return vn.node.holdsStandby(victim) },
		"rejoined member holds no standby for its own range")
	// The deposed shell must redirect, not serve, its stale copy.
	a0 := blockAddr(victimPages[0], 0)
	if err := c.DirectWrite(victim, a0, fillByte(a0, 0x7f), core.Meta{}); err == nil {
		t.Fatal("deposed member acknowledged a write on its stale range")
	}

	// Double rejoin: crash and restart the same deposed ID again; the
	// fencing and the baseline import must be idempotent.
	tc.kill(victim)
	vn = tc.restart(victim)
	waitFor(t, 10*time.Second, func() bool { _, dep := vn.node.isDeposed(); return dep },
		"second restart never learned it was deposed")
	writePages(t, c, acked, victimPages, 0x51, 20*time.Second)
	writePages(t, c, acked, promoterPages, 0x52, 20*time.Second)
	waitFor(t, 15*time.Second, func() bool { return vn.node.met.rejoins.Load() >= 1 },
		"second rejoin of the same ID never completed")
	waitFor(t, 10*time.Second, func() bool {
		return vn.node.holdsStandby(victim) && vn.node.holdsStandby(promoter)
	}, "rejoined member lacks standbys for both live ranges")

	// Failback: the holder dies; the rejoined member promotes the fresh
	// standbys — its own range and the holder's — and serves again.
	tc.kill(promoter)
	writePages(t, c, acked, victimPages, 0x61, 15*time.Second)
	writePages(t, c, acked, promoterPages, 0x62, 15*time.Second)
	if got := vn.node.met.failovers.Load(); got < 2 {
		t.Errorf("rejoined member promoted %d ranges, want 2", got)
	}
	checkAcked(t, c, acked, 0, "after the rejoins and failback")
}

// TestLifecycleEpochRegression: membership views only ratchet forward —
// a stale view is refused at apply time, and a rolled-back view file is
// refused at boot because the anchor seals the applied epoch.
func TestLifecycleEpochRegression(t *testing.T) {
	tc := startCluster(t, 2, false)
	n1 := tc.nodes["n1"]

	// Ratchet to epoch 1 with a join (the member never boots; it is just
	// ring metadata).
	wire, _ := net.Listen("tcp", "127.0.0.1:0")
	repl, _ := net.Listen("tcp", "127.0.0.1:0")
	defer wire.Close()
	defer repl.Close()
	spec := fmt.Sprintf("nx=%s/127.0.0.1:1/%s", wire.Addr(), repl.Addr())
	if _, err := n1.node.ClusterJoin(spec); err != nil {
		t.Fatalf("ClusterJoin: %v", err)
	}
	if got := n1.node.curView().Epoch; got != 1 {
		t.Fatalf("epoch after join = %d, want 1", got)
	}

	// A regressed view is refused and counted.
	stale := n1.node.curView().clone()
	stale.Epoch = 0
	if err := n1.node.applyView(stale); err == nil {
		t.Fatal("epoch regression applied")
	}
	if got := n1.node.met.viewRefused.Load(); got == 0 {
		t.Error("view refusal not counted")
	}
	// Same epoch re-apply is an idempotent no-op.
	if err := n1.node.applyView(n1.node.curView()); err != nil {
		t.Fatalf("idempotent re-apply: %v", err)
	}

	// Roll the view file back behind the sealed anchor epoch: boot must
	// fail closed. The epoch reaches the anchor at the next checkpoint.
	if err := n1.store.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	n1.dead = true
	tc.shutdownNode(n1)
	if err := os.Remove(filepath.Join(tc.dir, "n1", viewFile)); err != nil {
		t.Fatal(err)
	}
	st, err := persist.Open(persist.Options{Dir: n1.dir, Key: testKey, Fsync: persist.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pool, _, err := st.Recover(testShardCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if sealed := st.MemEpoch(); sealed != 1 {
		t.Fatalf("sealed membership epoch = %d, want 1", sealed)
	}
	_, err = NewNode(Config{
		Self: "n1", Members: tc.members, Pool: pool, Store: st,
		ShardCfg: testShardCfg(), Key: testKey,
		DataDir: filepath.Join(tc.dir, "n1"), Fsync: persist.FsyncAlways,
	})
	if err == nil || !strings.Contains(err.Error(), "behind sealed") {
		t.Fatalf("rolled-back view booted: err=%v, want sealed-epoch refusal", err)
	}
}

// TestLifecycleCheckpointRotation: a background checkpoint rotates the
// WAL epoch under an attached stream; the rotate hook re-baselines the
// follower proactively and writes keep flowing — the -snapshot-every
// cluster-mode interaction.
func TestLifecycleCheckpointRotation(t *testing.T) {
	tc := startCluster(t, 3, false)
	c := tc.client()
	ring := NewRing([]string{"n1", "n2", "n3"})
	acked := history.New[layout.Addr]()
	writePages(t, c, acked, firstPages(16), 0x10, 5*time.Second)

	owner := ring.OwnerPage(0)
	on := tc.nodes[owner]
	resyncsBefore := on.node.met.resyncs.Load()
	// Simulate the -snapshot-every tick: checkpoint while attached.
	if err := on.store.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if got := on.node.met.resyncs.Load(); got == resyncsBefore {
		t.Error("rotate hook did not restart the attached stream")
	}

	// Writes to the rotated owner's range flow again after the proactive
	// re-baseline — no stranded follower, no dead stream.
	writePages(t, c, acked, firstPages(16), 0x20, 15*time.Second)
	waitFor(t, 10*time.Second, func() bool { return on.node.met.attached.Load() == 1 },
		"stream never re-attached after rotation")
	checkAcked(t, c, acked, 0, "after the checkpoint rotation")
}

// TestSmartClientStallBackoff: the jittered same-target backoff stays
// inside its design bounds and the candidate walk is capped by ring
// size, not a constant.
func TestSmartClientStallBackoff(t *testing.T) {
	for k := 0; k < 2; k++ {
		base := 25 * time.Millisecond << uint(k)
		for i := 0; i < 64; i++ {
			d := stallBackoff(k)
			if d < base/2 || d >= base {
				t.Fatalf("stallBackoff(%d) = %v outside [%v, %v)", k, d, base/2, base)
			}
		}
	}
	members := []Member{
		{ID: "a", Wire: "127.0.0.1:1", Health: "127.0.0.1:1", Repl: "127.0.0.1:1"},
		{ID: "b", Wire: "127.0.0.1:2", Health: "127.0.0.1:1", Repl: "127.0.0.1:2"},
	}
	c, err := NewSmartClient(members, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dials := 0
	c.dial = func(addr string) (*server.Client, error) {
		dials++
		return nil, errors.New("down")
	}
	if err := c.Write(blockAddr(0, 0), fillByte(0, 1), core.Meta{}); err == nil {
		t.Fatal("write against dead cluster succeeded")
	}
	// The walk visits each member at most once: bounded by ring size.
	if dials > len(members)+1 {
		t.Fatalf("walk dialed %d times for a %d-member ring", dials, len(members))
	}
}
