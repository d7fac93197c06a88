package vm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
)

// TestVMStressOracle runs a long random mix of VM operations — maps,
// unmaps, reads, writes, forks, shared mappings and forced evictions —
// against per-process shadow copies, under real demand paging pressure
// (more logical pages than physical frames).
func TestVMStressOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { vmStressOracle(t, seed) })
	}
}

func vmStressOracle(t *testing.T, seed int64) {
	const frames = 6
	sm, err := core.New(core.Config{
		DataBytes: frames * layout.PageSize, MACBits: 128, Key: testKey,
		Encryption: core.AISE, Integrity: core.BonsaiMT, SwapSlots: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(sm, 128)
	rng := rand.New(rand.NewSource(seed))

	type shadowPage struct {
		data   []byte
		shared *shadowPage // genuinely shared storage (IPC)
	}
	content := func(sp *shadowPage) []byte {
		if sp.shared != nil {
			return sp.shared.data
		}
		return sp.data
	}

	type proc struct {
		p      *Process
		shadow map[uint64]*shadowPage // vpn -> shadow
	}
	procs := []*proc{{p: m.NewProcess(), shadow: map[uint64]*shadowPage{}}}

	randProc := func() *proc { return procs[rng.Intn(len(procs))] }
	randVPN := func(pr *proc) (uint64, bool) {
		if len(pr.shadow) == 0 {
			return 0, false
		}
		ks := make([]uint64, 0, len(pr.shadow))
		for k := range pr.shadow {
			ks = append(ks, k)
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		return ks[rng.Intn(len(ks))], true
	}

	const ops = 1200
	for op := 0; op < ops; op++ {
		pr := randProc()
		switch rng.Intn(12) {
		case 0, 1: // map a fresh page
			vpn := uint64(0x100 + rng.Intn(32))
			if _, taken := pr.shadow[vpn]; taken {
				break
			}
			if err := m.Map(pr.p, vpn*layout.PageSize, 1); err != nil {
				// Out of frames+swap is legal under pressure.
				break
			}
			pr.shadow[vpn] = &shadowPage{data: make([]byte, layout.PageSize)}
		case 2: // unmap
			vpn, ok := randVPN(pr)
			if !ok {
				break
			}
			if err := m.Unmap(pr.p, vpn*layout.PageSize, 1); err != nil {
				t.Fatalf("op %d: unmap: %v", op, err)
			}
			delete(pr.shadow, vpn)
		case 3, 4, 5, 6: // write
			vpn, ok := randVPN(pr)
			if !ok {
				break
			}
			off := rng.Intn(layout.PageSize - 64)
			buf := make([]byte, 1+rng.Intn(64))
			rng.Read(buf)
			if err := m.Write(pr.p, vpn*layout.PageSize+uint64(off), buf); err != nil {
				t.Fatalf("op %d: write: %v", op, err)
			}
			sp := pr.shadow[vpn]
			if sp.shared == nil && len(m.frames) > 0 {
				// COW may have split this page from siblings: writing makes
				// it private in the shadow too (deep copy already private).
			}
			copy(content(sp)[off:], buf)
		case 7, 8, 9: // read & compare
			vpn, ok := randVPN(pr)
			if !ok {
				break
			}
			off := rng.Intn(layout.PageSize - 64)
			n := 1 + rng.Intn(64)
			got := make([]byte, n)
			if err := m.Read(pr.p, vpn*layout.PageSize+uint64(off), got); err != nil {
				t.Fatalf("op %d: read: %v", op, err)
			}
			want := content(pr.shadow[vpn])[off : off+n]
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d: pid %d vpn %#x+%#x diverged", op, pr.p.PID, vpn, off)
			}
		case 10: // fork (bounded population)
			if len(procs) >= 5 {
				break
			}
			child := &proc{p: m.Fork(pr.p), shadow: map[uint64]*shadowPage{}}
			for vpn, sp := range pr.shadow {
				if sp.shared != nil {
					child.shadow[vpn] = &shadowPage{shared: sp.shared}
				} else {
					cp := make([]byte, layout.PageSize)
					copy(cp, sp.data)
					child.shadow[vpn] = &shadowPage{data: cp}
				}
			}
			procs = append(procs, child)
		case 11: // force a page to disk
			vpn, ok := randVPN(pr)
			if !ok {
				break
			}
			if err := m.ForceSwapOut(pr.p, vpn*layout.PageSize); err != nil {
				t.Fatalf("op %d: force swap: %v", op, err)
			}
		}
		checkParked(t, op, m)
	}

	// Final audit: every mapped page of every process matches its shadow.
	for _, pr := range procs {
		for vpn, sp := range pr.shadow {
			got := make([]byte, layout.PageSize)
			if err := m.Read(pr.p, vpn*layout.PageSize, got); err != nil {
				t.Fatalf("final read pid %d vpn %#x: %v", pr.p.PID, vpn, err)
			}
			if !bytes.Equal(got, content(sp)) {
				t.Fatalf("final state: pid %d vpn %#x diverged", pr.p.PID, vpn)
			}
		}
	}
	st := m.Stats()
	if st.SwapOuts == 0 || st.PageFaults == 0 {
		t.Errorf("stress run exercised no paging: %+v", st)
	}
}

// parkedByWalk is the oracle for the slot-owner index: every PTE parked
// on a swap slot, found by walking every page table — what unmap, exit and
// swap-in did before the index existed.
func parkedByWalk(m *Manager) map[int][]owner {
	out := map[int][]owner{}
	for pid, p := range m.procs {
		p.pages.walk(func(vpn uint64, e *pte) {
			if e.valid && !e.present {
				out[e.swapSlot] = append(out[e.swapSlot], owner{pid, vpn})
			}
		})
	}
	return out
}

// checkParked compares the slot-owner index against the page-table walk.
func checkParked(t *testing.T, op int, m *Manager) {
	t.Helper()
	sorted := func(os []owner) []owner {
		os = append([]owner(nil), os...)
		sort.Slice(os, func(i, j int) bool {
			return os[i].pid < os[j].pid || os[i].pid == os[j].pid && os[i].vpn < os[j].vpn
		})
		return os
	}
	want := parkedByWalk(m)
	if len(want) != len(m.parked) {
		t.Fatalf("op %d: slot index holds %d slots, the page tables park pages on %d", op, len(m.parked), len(want))
	}
	for slot, ws := range want {
		if m.swap.slots[slot] == nil {
			t.Fatalf("op %d: pages parked on empty slot %d", op, slot)
		}
		if got, w := sorted(m.parked[slot]), sorted(ws); fmt.Sprint(got) != fmt.Sprint(w) {
			t.Fatalf("op %d: slot %d owners %v, page tables say %v", op, slot, got, w)
		}
	}
}

// TestVMSharedStress: concurrent-ish writes from multiple sharers of one
// page interleaved with evictions stay coherent.
func TestVMSharedStress(t *testing.T) {
	m := newVM(t, 3)
	a := m.NewProcess()
	b := m.NewProcess()
	c := m.NewProcess()
	if err := m.Map(a, 0x10000, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.MapShared(a, 0x10000, b, 0x20000); err != nil {
		t.Fatal(err)
	}
	if err := m.MapShared(a, 0x10000, c, 0x30000); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	shadow := make([]byte, layout.PageSize)
	views := []struct {
		p *Process
		v uint64
	}{{a, 0x10000}, {b, 0x20000}, {c, 0x30000}}
	for op := 0; op < 300; op++ {
		w := views[rng.Intn(3)]
		off := rng.Intn(layout.PageSize - 16)
		if rng.Intn(2) == 0 {
			buf := make([]byte, 1+rng.Intn(16))
			rng.Read(buf)
			if err := m.Write(w.p, w.v+uint64(off), buf); err != nil {
				t.Fatalf("op %d write: %v", op, err)
			}
			copy(shadow[off:], buf)
		} else {
			got := make([]byte, 1+rng.Intn(16))
			if err := m.Read(w.p, w.v+uint64(off), got); err != nil {
				t.Fatalf("op %d read: %v", op, err)
			}
			if !bytes.Equal(got, shadow[off:off+len(got)]) {
				t.Fatalf("op %d: sharer %d sees stale data", op, w.p.PID)
			}
		}
		if op%37 == 0 {
			if err := m.ForceSwapOut(a, 0x10000); err != nil {
				t.Fatalf("op %d evict: %v", op, err)
			}
		}
	}
}
