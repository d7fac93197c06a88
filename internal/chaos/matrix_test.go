// Package chaos is the fault-injection matrix for the secure-memory
// service, in test files only: it wraps the two untrusted substrates the
// paper's threat model and the durability layer depend on — off-chip
// physical memory (bit-flips, block rollback) and the backing filesystem
// (transient errors, torn writes, slow I/O) — and drives a live store
// through deterministic, seeded fault schedules while checking the
// service's three invariants: no acknowledged write is ever lost, no
// tampered data is ever served, and a fault in one shard never takes the
// others down.
//
//	go test -run TestChaos ./internal/chaos/                     # 2 rounds, seeds 1 and 42
//	go test -run TestChaos ./internal/chaos/ -chaos.rounds 10    # a longer soak
//	go test -run 'TestChaosMatrix/seed=42/.*/rollback' ./internal/chaos/
//
// The cluster-wide schedules (node kills, partitions, fenced rejoins) run
// on the cluster package's test world: internal/cluster TestClusterChaos.
package chaos

import (
	"flag"
	"fmt"
	"testing"
)

var rounds = flag.Int("chaos.rounds", 2, "rounds of the scenario list per seed in TestChaosMatrix")

// TestChaosMatrix runs every scenario -chaos.rounds times under two
// seeds against a live durable pool and holds the harness to its
// invariants: zero acked-write loss, every injected tamper detected
// (never served), bystander shards available throughout, and every
// victim healed back to serving. The schedule — victims, addresses,
// values, fault dice — is fully determined by the seed. Each scenario is
// a subtest, so -run picks a subset; a failed scenario ends its seed's
// run.
func TestChaosMatrix(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			h, err := newHarness(t.TempDir(), seed, t.Logf)
			if err != nil {
				t.Fatalf("harness: %v", err)
			}
			defer h.close()
			for r := 0; r < *rounds; r++ {
				for _, scn := range scenarios {
					if !t.Run(fmt.Sprintf("round=%d/%s", r, scn), func(t *testing.T) {
						if err := h.run(scn); err != nil {
							t.Fatalf("INVARIANT VIOLATION (seed %d): %v", seed, err)
						}
					}) {
						return
					}
				}
			}
			st := h.counts()
			t.Logf("matrix stats: %+v", st)
			if st.tampersDetected != st.tampersInjected {
				t.Errorf("detected %d of %d injected tampers", st.tampersDetected, st.tampersInjected)
			}
			if st.heals != st.scenarios {
				t.Errorf("healed %d of %d scenarios", st.heals, st.scenarios)
			}
			if st.scenarios < *rounds*len(scenarios) {
				return // -run picked a subset; it need not fault, write or trace
			}
			if err := h.verifyObs(); err != nil {
				t.Errorf("observability: %v", err)
			}
			if st.poolFaults == 0 || st.poolRepairs == 0 {
				t.Errorf("no faults (%d) or repairs (%d) recorded — the matrix exercised nothing", st.poolFaults, st.poolRepairs)
			}
			if st.fsFaults == 0 {
				t.Errorf("no filesystem faults injected")
			}
			if st.ackedWrites == 0 || st.modelReads == 0 {
				t.Errorf("no traffic: %d acked writes, %d model reads", st.ackedWrites, st.modelReads)
			}
		})
	}
}

// TestChaosSurvivesRestart ends a chaotic life with a crash-free close
// and a fresh recovery: every acked write must still be there.
func TestChaosSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	h, err := newHarness(dir, 7, t.Logf)
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	for _, scn := range []string{"bitflip-data", "wal-fault", "checkpoint", "rollback"} {
		if err := h.run(scn); err != nil {
			h.close()
			t.Fatalf("%s: %v", scn, err)
		}
	}
	model, byShard := h.model, h.byShard
	if err := h.close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	h2, err := newHarness(dir, 8, t.Logf)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer h2.close()
	h2.model, h2.byShard = model, byShard
	if err := h2.checkModel(); err != nil {
		t.Fatalf("model after restart: %v", err)
	}
}
