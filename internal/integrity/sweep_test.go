package integrity

import (
	"errors"
	"math/rand"
	"testing"

	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

// The fetch-once walk and the sweep memo are held to verifyContentRef, the
// two-fetch walk to the root: for every leaf, clean or tampered, with the
// node cache off or holding dirty resident nodes, the verdict and its
// blame must be the same.

// sweepFixture builds a tree of the given MAC width over nLeaves blocks of
// random data, its node storage at 1MiB; about vacantPct percent of the
// leaves are left all-zero, as a never-written page's counter block is, so
// runs of identical blocks exercise the tag memo. With a node cache it then
// rewrites a handful of leaves through the cache and does not flush, so
// dirty nodes stay resident and memory holds stale copies of them.
func sweepFixture(t testing.TB, rng *rand.Rand, macBits, nLeaves, vacantPct, cacheBlocks int) (*mem.Memory, *Tree) {
	t.Helper()
	m := mem.New(2 << 20)
	data := uint64(nLeaves) * layout.BlockSize
	tr, err := NewTree(m, testKey, macBits, []mem.Region{{Name: "data", Base: 0, Size: data}}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var blk mem.Block
	for a := layout.Addr(0); a < layout.Addr(data); a += layout.BlockSize {
		rng.Read(blk[:])
		if vacantPct > 0 && rng.Intn(100) < vacantPct {
			continue
		}
		m.WriteBlock(a, &blk)
	}
	tr.EnableNodeCache(cacheBlocks)
	tr.Build()
	if cacheBlocks > 0 {
		for i := 0; i < 8; i++ {
			a := layout.Addr(rng.Intn(nLeaves)) * layout.BlockSize
			rng.Read(blk[:])
			m.WriteBlock(a, &blk)
			if err := tr.UpdateBlock(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m, tr
}

// leafVerdicts verifies every leaf in order and returns each verdict: with
// the reference walk, with the fetch-once walk alone, or inside one sweep.
func leafVerdicts(m *mem.Memory, tr *Tree, order []layout.Addr, mode string) []error {
	if mode == "sweep" {
		tr.BeginSweep()
		defer tr.EndSweep()
	}
	out := make([]error, len(order))
	for i, a := range order {
		var blk mem.Block
		m.ReadBlock(a, &blk)
		if mode == "ref" {
			out[i] = tr.verifyContentRef(a, &blk)
		} else {
			out[i] = tr.VerifyContent(a, &blk)
		}
	}
	return out
}

// sameVerdict reports whether two verdicts agree: both nil, or both an
// *Error with the same blame.
func sameVerdict(a, b error) bool {
	var ea, eb *Error
	if !errors.As(a, &ea) || !errors.As(b, &eb) {
		return a == nil && b == nil
	}
	return *ea == *eb
}

// checkSweepMatches compares every walk flavour against the reference over
// all leaves, in leaf order and shuffled, and returns how many leaves the
// reference refused.
func checkSweepMatches(t testing.TB, rng *rand.Rand, m *mem.Memory, tr *Tree, what string) int {
	t.Helper()
	order := leafOrder(tr)
	shuffled := append([]layout.Addr(nil), order...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	refused := 0
	for oi, ord := range [][]layout.Addr{order, shuffled} {
		want := leafVerdicts(m, tr, ord, "ref")
		for _, mode := range []string{"walk", "sweep"} {
			got := leafVerdicts(m, tr, ord, mode)
			for i := range want {
				if !sameVerdict(got[i], want[i]) {
					t.Fatalf("%s, %s, leaf %#x: got %v, reference walk %v", what, mode, ord[i], got[i], want[i])
				}
			}
		}
		for _, err := range want {
			if oi == 0 && err != nil {
				refused++
			}
		}
	}
	return refused
}

func leafOrder(tr *Tree) []layout.Addr {
	order := make([]layout.Addr, tr.LeafCount())
	for i := range order {
		order[i] = layout.Addr(i) * layout.BlockSize
	}
	return order
}

// flipByte flips bits of the byte at a behind the tree's back.
func flipByte(m *mem.Memory, a layout.Addr, mask byte) {
	b := m.Snapshot(a)
	b[a-a.BlockAddr()] ^= mask
	m.Tamper(a, b)
}

// TestSweepMatchesPlainWalk tampers one slot at each level in turn (and one
// data block), at every MAC width, with the node cache off and on, and
// holds every leaf's verdict to the reference walk's.
func TestSweepMatchesPlainWalk(t *testing.T) {
	for _, bits := range storeWidths {
		for _, cacheBlocks := range []int{0, 4, 64} {
			rng := rand.New(rand.NewSource(int64(bits*1000 + cacheBlocks)))
			m, tr := sweepFixture(t, rng, bits, 300, 0, cacheBlocks)
			if n := checkSweepMatches(t, rng, m, tr, "clean"); n != 0 {
				t.Fatalf("%d bits, cache %d: the reference refused %d leaves of a clean tree", bits, cacheBlocks, n)
			}
			for li := 0; li <= tr.Levels(); li++ {
				// Level Levels() stands for the data: tamper a leaf block.
				var at layout.Addr
				if li == tr.Levels() {
					at = layout.Addr(rng.Intn(300)*layout.BlockSize + rng.Intn(layout.BlockSize))
				} else {
					lv := tr.levels[li]
					slot := uint64(rng.Int63n(int64(lv.count)))
					at = lv.base + layout.Addr(slot*uint64(tr.MACBytes())+uint64(rng.Intn(tr.MACBytes())))
				}
				flipByte(m, at, 0x5a)
				n := checkSweepMatches(t, rng, m, tr, "tampered")
				flipByte(m, at, 0x5a)
				if n == 0 && cacheBlocks == 0 {
					t.Fatalf("%d bits, level %d: a tamper at %#x refused no leaf", bits, li, at)
				}
			}
		}
	}
}

// TestSweepMACsEachNodeOnce pins the sweep's work: over every leaf in
// order, one MAC per leaf and one per node storage block.
func TestSweepMACsEachNodeOnce(t *testing.T) {
	m, tr := testTree(t, 128)
	before := tr.MACOps
	for i, err := range leafVerdicts(m, tr, leafOrder(tr), "sweep") {
		if err != nil {
			t.Fatalf("leaf %d: %v", i, err)
		}
	}
	if got, want := tr.MACOps-before, tr.LeafCount()+tr.StorageBytes()/layout.BlockSize; got != want {
		t.Errorf("sweep computed %d MACs, want %d (leaves plus node blocks)", got, want)
	}
}

// TestWalkFetchesEachNodeOnce: a walk reads each node storage block once,
// where the two-fetch walk read a slot and then its whole block again.
func TestWalkFetchesEachNodeOnce(t *testing.T) {
	m, tr := testTree(t, 128)
	a := layout.Addr(0x1040)
	var blk mem.Block
	m.ReadBlock(a, &blk)
	levels := uint64(tr.Levels())
	before := m.Reads
	if err := tr.VerifyContent(a, &blk); err != nil {
		t.Fatal(err)
	}
	if got := m.Reads - before; got != levels {
		t.Errorf("walk read %d blocks, want one per level (%d)", got, levels)
	}
	before = m.Reads
	if err := tr.verifyContentRef(a, &blk); err != nil {
		t.Fatal(err)
	}
	if got := m.Reads - before; got != 2*levels {
		t.Errorf("reference walk read %d blocks, want two per level (%d)", got, 2*levels)
	}
}

// TestSweepMemoDoesNotOutliveSweep: a node tampered after a sweep
// memoized it is refused by the first walk after the sweep ends, and by
// the next walk inside the sweep once a tree update has cleared the memo.
func TestSweepMemoDoesNotOutliveSweep(t *testing.T) {
	for _, name := range []string{"after EndSweep", "after an update"} {
		m, tr := testTree(t, 128)
		a, far := layout.Addr(0x2000), layout.Addr(0xF000)
		var blk mem.Block
		m.ReadBlock(a, &blk)
		tr.BeginSweep()
		if err := tr.VerifyContent(a, &blk); err != nil {
			t.Fatal(err)
		}
		walk, err := tr.NodeAddrs(a)
		if err != nil {
			t.Fatal(err)
		}
		flipByte(m, walk[1]+layout.Addr(tr.MACBytes()), 1) // a sibling's slot one level up
		if name == "after EndSweep" {
			tr.EndSweep()
		} else if err := tr.UpdateBlock(far); err != nil { // shares no block below level 2 with a
			t.Fatal(err)
		}
		got := tr.VerifyContent(a, &blk)
		tr.EndSweep()
		want := tr.verifyContentRef(a, &blk)
		if got == nil || !sameVerdict(got, want) {
			t.Errorf("%s: walk over a node tampered after memoization: %v, reference %v", name, got, want)
		}
	}
}

// fuzzVacancy is the share of never-written leaves FuzzVerifySweep draws
// from: most trees it builds are mostly vacant, so walks hit the tag memo.
var fuzzVacancy = [4]int{0, 50, 90, 100}

// FuzzVerifySweep builds a random, often mostly vacant tree, tampers one
// random byte of its node storage or data, and holds every leaf's sweep
// verdict and blame to the reference walk's.
func FuzzVerifySweep(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0), uint8(0), uint16(7), byte(0x01), uint8(0))
	f.Add(int64(2), uint8(0), uint8(1), uint8(3), uint16(999), byte(0x80), uint8(1))
	f.Add(int64(3), uint8(3), uint8(2), uint8(9), uint16(12345), byte(0xff), uint8(2))
	f.Add(int64(4), uint8(1), uint8(0), uint8(1), uint16(4242), byte(0x10), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, width, cache, target uint8, pos uint16, mask byte, vacancy uint8) {
		rng := rand.New(rand.NewSource(seed))
		nLeaves := 1 + rng.Intn(200)
		m, tr := sweepFixture(t, rng, storeWidths[width%4], nLeaves, fuzzVacancy[vacancy%4], int(cache%3)*8)
		if mask == 0 {
			mask = 1
		}
		var at layout.Addr
		if li := int(target) % (tr.Levels() + 1); li == tr.Levels() {
			at = layout.Addr(uint64(pos) % (uint64(nLeaves) * layout.BlockSize))
		} else {
			lv := tr.levels[li]
			at = lv.base + layout.Addr(uint64(pos)%(lv.count*uint64(tr.MACBytes())))
		}
		flipByte(m, at, mask)
		checkSweepMatches(t, rng, m, tr, "fuzz")
	})
}
