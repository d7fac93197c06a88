package integrity

import (
	"errors"
	"math/rand"
	"testing"

	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

var testKey = []byte("integrity-test-k")

// testTree builds a tree over a small data region:
// data [0, 64KB), tree storage at 1MB.
func testTree(t *testing.T, macBits int) (*mem.Memory, *Tree) {
	t.Helper()
	m := mem.New(4 << 20)
	region := mem.Region{Name: "data", Base: 0, Size: 64 << 10}
	tr, err := NewTree(m, testKey, macBits, []mem.Region{region}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Populate with recognizable data.
	for a := layout.Addr(0); a < 64<<10; a += layout.BlockSize {
		var b mem.Block
		for i := range b {
			b[i] = byte(uint64(a)>>6) ^ byte(uint64(a)>>14) ^ byte(i)
		}
		m.WriteBlock(a, &b)
	}
	tr.Build()
	return m, tr
}

func TestTreeStorageBytes(t *testing.T) {
	// 1024 leaves, 128-bit MACs: level0 = 1024*16B = 256 blocks,
	// level1 = 256*16B = 64 blocks, level2 = 16, level3 = 4, level4 = 1.
	n, err := TreeStorageBytes(1024, 128)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(256+64+16+4+1) * 64
	if n != want {
		t.Errorf("TreeStorageBytes = %d, want %d", n, want)
	}
	if _, err := TreeStorageBytes(10, 99); err == nil {
		t.Error("bad MAC width accepted")
	}
}

func TestTreeGeometryLevels(t *testing.T) {
	_, tr := testTree(t, 128)
	// 1024 leaves at arity 4 per node block: 256,64,16,4,1 -> 5 levels.
	if tr.Levels() != 5 {
		t.Errorf("levels = %d, want 5", tr.Levels())
	}
	if tr.LeafCount() != 1024 {
		t.Errorf("leaves = %d, want 1024", tr.LeafCount())
	}
}

func TestVerifyCleanMemory(t *testing.T) {
	_, tr := testTree(t, 128)
	for _, a := range []layout.Addr{0, 64, 0x1000, 64<<10 - 64} {
		if err := tr.VerifyBlock(a); err != nil {
			t.Errorf("VerifyBlock(%#x) on clean memory: %v", a, err)
		}
	}
}

func TestVerifyUncoveredAddress(t *testing.T) {
	_, tr := testTree(t, 128)
	if err := tr.VerifyBlock(1 << 20); err == nil {
		t.Error("verification of uncovered address succeeded")
	}
	if tr.Covers(1<<20) || !tr.Covers(0x2040) {
		t.Error("Covers wrong")
	}
}

// TestVerifyContent: the verify-given-block entry authenticates the bytes
// it is handed, not whatever memory holds by then — so the bytes a caller
// goes on to decode are the bytes that were checked — and blames exactly
// as VerifyBlock does.
func TestVerifyContent(t *testing.T) {
	for _, bits := range []int{32, 64, 128, 256} {
		m, tr := testTree(t, bits)
		const a = layout.Addr(0x2040)
		var fetched mem.Block
		m.ReadBlock(a, &fetched)
		if err := tr.VerifyContent(a, &fetched); err != nil {
			t.Fatalf("%d-bit: VerifyContent on the fetched block: %v", bits, err)
		}

		// Memory changes after the fetch: the fetched copy still verifies,
		// the address no longer does.
		spoofed := fetched
		spoofed[9] ^= 0x04
		m.Tamper(a, spoofed)
		if err := tr.VerifyContent(a, &fetched); err != nil {
			t.Errorf("%d-bit: authentic bytes refused because memory changed later: %v", bits, err)
		}
		var fromMem, fromContent *Error
		if !errors.As(tr.VerifyBlock(a), &fromMem) || !errors.As(tr.VerifyContent(a, &spoofed), &fromContent) {
			t.Fatalf("%d-bit: spoofed block accepted", bits)
		}
		if *fromMem != *fromContent {
			t.Errorf("%d-bit: VerifyContent blames %+v, VerifyBlock %+v", bits, *fromContent, *fromMem)
		}
		m.Tamper(a, fetched)

		// An interior node on the chain: same blame from both entries.
		nodes, err := tr.NodeAddrs(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes {
			orig := m.Snapshot(n)
			bad := orig
			bad[0] ^= 0x80
			m.Tamper(n, bad)
			if !errors.As(tr.VerifyBlock(a), &fromMem) || !errors.As(tr.VerifyContent(a, &fetched), &fromContent) {
				t.Fatalf("%d-bit: tampered node %#x accepted", bits, n)
			}
			if *fromMem != *fromContent {
				t.Errorf("%d-bit: node %#x: VerifyContent blames %+v, VerifyBlock %+v", bits, n, *fromContent, *fromMem)
			}
			m.Tamper(n, orig)
		}

		if err := tr.VerifyContent(1<<20, &fetched); err == nil {
			t.Errorf("%d-bit: uncovered address verified", bits)
		}
		if n := testing.AllocsPerRun(50, func() { _ = tr.VerifyContent(a, &fetched) }); n != 0 {
			t.Errorf("%d-bit: VerifyContent allocates %.1f times per call, want 0", bits, n)
		}
	}
}

func TestSpoofingDetected(t *testing.T) {
	m, tr := testTree(t, 128)
	m.TamperBytes(0x2000, []byte{0xff, 0xfe})
	err := tr.VerifyBlock(0x2000)
	var ie *Error
	if !errors.As(err, &ie) {
		t.Fatalf("spoofing not detected: %v", err)
	}
	if ie.Level != 0 {
		t.Errorf("spoofing blamed level %d, want 0 (leaf)", ie.Level)
	}
	// Other blocks remain verifiable.
	if err := tr.VerifyBlock(0x3000); err != nil {
		t.Errorf("unrelated block failed: %v", err)
	}
}

func TestSplicingDetected(t *testing.T) {
	m, tr := testTree(t, 128)
	// Copy block 0x1000's content AND its level-0 MAC slot over 0x2000's.
	stolen := m.Snapshot(0x1000)
	m.Tamper(0x2000, stolen)
	mac, err := tr.LeafMAC(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	m.TamperBytes(tr.levels[0].base+layout.Addr((0x2000/64)*16), mac)
	err = tr.VerifyBlock(0x2000)
	var ie *Error
	if !errors.As(err, &ie) {
		t.Fatal("splicing with MAC copy not detected")
	}
	if ie.Level < 1 {
		t.Errorf("splicing blamed level %d, want >=1 (interior)", ie.Level)
	}
}

func TestReplayDetected(t *testing.T) {
	m, tr := testTree(t, 128)
	// Snapshot the block, its MAC chain storage blocks.
	old := m.Snapshot(0x2000)
	nodes, err := tr.NodeAddrs(0x2000)
	if err != nil {
		t.Fatal(err)
	}
	oldNodes := make([]mem.Block, len(nodes))
	for i, na := range nodes {
		oldNodes[i] = m.Snapshot(na)
	}
	// Processor legitimately updates the block.
	var fresh mem.Block
	fresh[0] = 0x42
	m.WriteBlock(0x2000, &fresh)
	if err := tr.UpdateBlock(0x2000); err != nil {
		t.Fatal(err)
	}
	if err := tr.VerifyBlock(0x2000); err != nil {
		t.Fatalf("post-update verify: %v", err)
	}
	// Attacker replays the entire old state: data + every stored MAC level.
	m.Tamper(0x2000, old)
	for i, na := range nodes {
		m.Tamper(na, oldNodes[i])
	}
	if err := tr.VerifyBlock(0x2000); err == nil {
		t.Fatal("full-chain replay not detected — on-chip root failed its job")
	}
}

func TestUpdatePropagatesToRoot(t *testing.T) {
	m, tr := testTree(t, 128)
	before := tr.Root()
	var fresh mem.Block
	fresh[7] = 9
	m.WriteBlock(0x4000, &fresh)
	if err := tr.UpdateBlock(0x4000); err != nil {
		t.Fatal(err)
	}
	after := tr.Root()
	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
		}
	}
	if same {
		t.Error("root unchanged after block update")
	}
	if err := tr.VerifyBlock(0x4000); err != nil {
		t.Errorf("verify after update: %v", err)
	}
}

func TestAllMACWidths(t *testing.T) {
	for _, bits := range []int{32, 64, 128, 256} {
		_, tr := testTree(t, bits)
		if err := tr.VerifyBlock(0x1000); err != nil {
			t.Errorf("%d-bit: clean verify failed: %v", bits, err)
		}
	}
}

func TestMultiRegionTree(t *testing.T) {
	m := mem.New(4 << 20)
	regions := []mem.Region{
		{Name: "ctr", Base: 0, Size: 8 << 10},
		{Name: "rootdir", Base: 32 << 10, Size: 4 << 10},
	}
	tr, err := NewTree(m, testKey, 128, regions, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var b mem.Block
	b[0] = 1
	m.WriteBlock(0, &b)
	m.WriteBlock(32<<10, &b)
	tr.Build()
	if err := tr.VerifyBlock(0); err != nil {
		t.Errorf("region 1 verify: %v", err)
	}
	if err := tr.VerifyBlock(32 << 10); err != nil {
		t.Errorf("region 2 verify: %v", err)
	}
	// Gap between regions is not covered.
	if tr.Covers(16 << 10) {
		t.Error("gap covered")
	}
	// Tamper in region 2 detected; region 1 unaffected.
	m.TamperBytes(32<<10+8, []byte{0xee})
	if err := tr.VerifyBlock(32 << 10); err == nil {
		t.Error("tamper in second region not detected")
	}
	if err := tr.VerifyBlock(0); err != nil {
		t.Errorf("first region spuriously failed: %v", err)
	}
}

func TestTreeStorageOverlapRejected(t *testing.T) {
	m := mem.New(1 << 20)
	region := mem.Region{Name: "data", Base: 0, Size: 64 << 10}
	if _, err := NewTree(m, testKey, 128, []mem.Region{region}, 32<<10); err == nil {
		t.Error("overlapping tree storage accepted")
	}
}

func TestUnbuiltTreeRefuses(t *testing.T) {
	m := mem.New(1 << 20)
	tr, err := NewTree(m, testKey, 128, []mem.Region{{Name: "d", Base: 0, Size: 4096}}, 512<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.VerifyBlock(0); err == nil {
		t.Error("unbuilt tree verified")
	}
	if err := tr.UpdateBlock(0); err == nil {
		t.Error("unbuilt tree updated")
	}
}

func TestInstallLeafMAC(t *testing.T) {
	m, tr := testTree(t, 128)
	// Change a block without updating the tree: verification fails.
	var fresh mem.Block
	fresh[0] = 0x77
	m.WriteBlock(0x5000, &fresh)
	if err := tr.VerifyBlock(0x5000); err == nil {
		t.Fatal("stale tree verified fresh data")
	}
	// Graft the correct leaf MAC (as swap-in does with a directory root).
	mac := make([]byte, tr.MACBytes())
	tr.memMACInto(0, 0x5000, mac)
	if err := tr.InstallLeafMAC(0x5000, mac); err != nil {
		t.Fatal(err)
	}
	if err := tr.VerifyBlock(0x5000); err != nil {
		t.Errorf("verify after InstallLeafMAC: %v", err)
	}
	if err := tr.InstallLeafMAC(0x5000, []byte{1, 2}); err == nil {
		t.Error("short MAC accepted")
	}
}

func TestNodeAddrsWalk(t *testing.T) {
	_, tr := testTree(t, 128)
	nodes, err := tr.NodeAddrs(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != tr.Levels() {
		t.Fatalf("walk length %d, want %d", len(nodes), tr.Levels())
	}
	// First node is in level-0 storage; last is the top block.
	if nodes[0] != tr.levels[0].base {
		t.Errorf("leaf-level node = %#x, want %#x", nodes[0], tr.levels[0].base)
	}
	if nodes[len(nodes)-1] != tr.levels[len(tr.levels)-1].base {
		t.Errorf("top node = %#x", nodes[len(nodes)-1])
	}
}

func TestErrorMessage(t *testing.T) {
	e := &Error{Addr: 0x40, Level: 2, Node: 0x1000}
	if e.Error() == "" {
		t.Error("empty error message")
	}
}

// TestTreeRandomOpOracle drives random update/verify/tamper/repair cycles:
// after every legitimate update the block verifies; after every tamper it
// fails until repaired by a fresh update.
func TestTreeRandomOpOracle(t *testing.T) {
	m, tr := testTree(t, 128)
	rng := rand.New(rand.NewSource(77))
	blocks := 64 << 10 / layout.BlockSize
	tampered := map[layout.Addr]bool{}
	for op := 0; op < 600; op++ {
		a := layout.Addr(rng.Intn(blocks)) * layout.BlockSize
		switch rng.Intn(3) {
		case 0: // legitimate write + tree update
			var b mem.Block
			rng.Read(b[:])
			m.WriteBlock(a, &b)
			if err := tr.UpdateBlock(a); err != nil {
				t.Fatalf("op %d: update: %v", op, err)
			}
			delete(tampered, a)
		case 1: // tamper
			blk := m.Snapshot(a)
			blk[rng.Intn(64)] ^= 1 << uint(rng.Intn(8))
			m.Tamper(a, blk)
			tampered[a] = true
		case 2: // verify against expectation
			err := tr.VerifyBlock(a)
			if tampered[a] && err == nil {
				t.Fatalf("op %d: tampered block %#x verified", op, a)
			}
			if !tampered[a] && err != nil {
				t.Fatalf("op %d: clean block %#x failed: %v", op, a, err)
			}
		}
	}
}
