package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/history"
	"aisebmt/internal/layout"
	"aisebmt/internal/server"
)

// chaosScenarios are the cluster-wide fault schedules. Where the
// single-node matrix (internal/chaos) attacks the memory bus and the
// disk, these attack the cluster's substrate — the network and whole
// members — and hold it to the cluster-wide invariant: no acknowledged
// write is ever lost, whichever member dies or whichever links drop.
var chaosScenarios = []string{
	"node-kill",   // crash a random member under load
	"partition",   // isolate a member from its peers; fencing must depose it
	"kill-rejoin", // crash, fail over, then restart the stale member: it must rejoin fenced
}

// clusterChaos drives a test cluster through one seeded schedule while
// keeping a history of every write, cluster-wide. It is the single
// client, which keeps seeded runs deterministic.
type clusterChaos struct {
	tc     *testCluster
	client *SmartClient
	rng    *rand.Rand
	pages  uint64
	model  *history.Model[layout.Addr]

	acked, reads, kills, partitions, fenced, restarts int
}

func newClusterChaos(tc *testCluster, seed int64) *clusterChaos {
	return &clusterChaos{
		tc:     tc,
		client: tc.client(),
		rng:    rand.New(rand.NewSource(seed)),
		pages:  testShardCfg().Core.DataBytes / layout.PageSize,
		model:  history.New[layout.Addr](),
	}
}

// alive returns the IDs of members not killed.
func (cc *clusterChaos) alive() []string {
	var out []string
	for _, m := range cc.tc.members {
		if !cc.tc.nodes[m.ID].dead {
			out = append(out, m.ID)
		}
	}
	return out
}

// writeOne writes a random value to a random block, retrying transient
// unavailability (failover windows, replication stalls) for up to
// budget, and records the outcome in the history.
func (cc *clusterChaos) writeOne(budget time.Duration) error {
	page := uint64(cc.rng.Intn(int(cc.pages)))
	a := blockAddr(page, cc.rng.Intn(int(layout.BlocksPerPage)))
	val := make([]byte, layout.BlockSize)
	cc.rng.Read(val)
	if err := retry(budget, func() error { return cc.client.Write(a, val, core.Meta{}) }); err != nil {
		cc.model.Fail(a, val)
		return err
	}
	cc.acked++
	cc.model.Ack(a, val)
	return nil
}

// burst writes n random values; every write must eventually ack.
func (cc *clusterChaos) burst(n int, budget time.Duration) error {
	for i := 0; i < n; i++ {
		if err := cc.writeOne(budget); err != nil {
			return fmt.Errorf("cluster write failed: %w", err)
		}
	}
	return nil
}

// checkModel reads back every written address and checks it against the
// history: cluster-wide zero acked-write loss.
func (cc *clusterChaos) checkModel() error {
	n, err := cc.model.Verify(func(a layout.Addr) ([]byte, error) {
		var got []byte
		err := retry(10*time.Second, func() (err error) {
			got, err = cc.client.Read(a, layout.BlockSize, core.Meta{})
			return err
		})
		return got, err
	})
	cc.reads += n
	return err
}

// isolate cuts (or heals) every link between id and its peers. Clients
// still reach it — the point of the scenario is that fencing, not
// reachability, decides who serves.
func (cc *clusterChaos) isolate(id string, v bool) {
	for _, m := range cc.tc.members {
		if m.ID != id {
			cc.tc.w.partition(id, m.ID, v)
		}
	}
	if v {
		cc.partitions++
	}
}

// ownedPage returns a page id owns on the static ring, if any.
func (cc *clusterChaos) ownedPage(id string) (uint64, bool) {
	for p := uint64(0); p < cc.pages; p++ {
		if cc.client.Owner(layout.Addr(p*layout.PageSize)) == id {
			return p, true
		}
	}
	return 0, false
}

// expectFenced direct-writes to a member's own former range until it
// answers NotOwner: the fencing epoch deposed it. Transient stall
// errors are retried — the member may not have learned its fate yet.
func (cc *clusterChaos) expectFenced(id string, a layout.Addr) error {
	val := make([]byte, layout.BlockSize)
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := cc.client.DirectWrite(id, a, val, core.Meta{})
		if err == nil {
			return fmt.Errorf("SPLIT BRAIN: deposed member %s acked a write to %#x", id, uint64(a))
		}
		if _, isNotOwner := server.NotOwnerAddr(err); isNotOwner {
			cc.fenced++
			return nil
		}
		if !Retryable(err) || time.Now().After(deadline) {
			return fmt.Errorf("deposed member %s: want NotOwner, got: %w", id, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// run executes one named scenario and checks the history afterwards.
func (cc *clusterChaos) run(scenario string) error {
	if err := cc.burst(12, 10*time.Second); err != nil {
		return err
	}
	live := cc.alive()
	victim := live[cc.rng.Intn(len(live))]
	switch scenario {
	case "node-kill":
		// The victim's follower must promote, and writes across the whole
		// ring — the victim's range included — must keep acking.
		cc.tc.kill(victim)
		cc.kills++
		if err := cc.burst(12, 20*time.Second); err != nil {
			return fmt.Errorf("writes did not recover after killing %s: %w", victim, err)
		}
	case "partition":
		// The isolated member's replication stalls, so it can acknowledge
		// nothing; its follower promotes; the fencing epoch deposes it
		// even though clients still reach it.
		cc.isolate(victim, true)
		cc.tc.t.Logf("partitioned %s from its peers", victim)
		err := cc.burst(12, 20*time.Second)
		cc.isolate(victim, false)
		if err != nil {
			return fmt.Errorf("writes did not recover after partitioning %s: %w", victim, err)
		}
		if p, ok := cc.ownedPage(victim); ok {
			if err := cc.expectFenced(victim, layout.Addr(p*layout.PageSize)); err != nil {
				return err
			}
		}
	case "kill-rejoin":
		cc.tc.kill(victim)
		cc.kills++
		// The follower promotes and the promoted range re-replicates onto
		// a survivor while writes keep acking.
		if err := cc.burst(12, 20*time.Second); err != nil {
			return fmt.Errorf("writes did not recover after killing %s: %w", victim, err)
		}
		// The stale member boots believing it owns its range, but its
		// outbound stream hits the promoted holder's fence and deposes
		// it: direct writes must answer NotOwner, never ack.
		cc.tc.restart(victim)
		cc.restarts++
		if p, ok := cc.ownedPage(victim); ok {
			if err := cc.expectFenced(victim, layout.Addr(p*layout.PageSize)); err != nil {
				return err
			}
		}
		if err := cc.burst(12, 20*time.Second); err != nil {
			return fmt.Errorf("writes did not survive %s rejoining: %w", victim, err)
		}
	default:
		return fmt.Errorf("unknown cluster scenario %q", scenario)
	}
	return cc.checkModel()
}

// TestClusterChaos drives a 3-member cluster through each scenario — a
// member killed under load, a member partitioned from its peers, a
// crashed member restarted on its stale data dir — and holds it to the
// cluster-wide invariant: every acknowledged write survives into
// whatever topology the faults leave, and a stale or partitioned owner
// ends up fenced, not split-brained. Each scenario gets a fresh cluster,
// so the seed, not leftover topology, decides what is tested.
func TestClusterChaos(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		for _, scn := range chaosScenarios {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, scn), func(t *testing.T) {
				cc := newClusterChaos(startCluster(t, 3, false), seed)
				if err := cc.run(scn); err != nil {
					t.Fatal(err)
				}
				if cc.acked == 0 || cc.reads == 0 {
					t.Errorf("no traffic: %d acked writes, %d model reads", cc.acked, cc.reads)
				}
				want := map[string][4]int{ // kills, partitions, restarts, fenced
					"node-kill":   {1, 0, 0, 0},
					"partition":   {0, 1, 0, 1},
					"kill-rejoin": {1, 0, 1, 1},
				}[scn]
				if got := [4]int{cc.kills, cc.partitions, cc.restarts, cc.fenced}; got != want {
					t.Errorf("kills, partitions, restarts, fenced members = %v, want %v", got, want)
				}
			})
		}
	}
}
