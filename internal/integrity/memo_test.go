package integrity

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

// The tag memo is held to the memo-free references in ref_test.go
// (buildRef, UpdateBlockRef, verifyContentRef): node storage, the root, and
// every walk's verdict and blame must come out exactly as if every block
// had been MAC'd afresh.

// memoLeaves fills the storage blocks of every level below the top one
// exactly at each MAC width (16, 8, 4 or 2 slots per block), so every block
// at a level of an empty tree is byte-identical to the others.
const memoLeaves = 256

// memoFill reports whether leaf i of a tree of the given fill is written:
// none of them ("empty"), every other one ("alternate") or all ("full").
func memoFill(fill string, i int) bool {
	return fill == "full" || fill == "alternate" && i%2 == 1
}

// memoPair builds the same leaf image in two memories and a tree over
// each: tr through Build, with a node cache of cacheBlocks, and ref through
// the memo-free buildRef, without one.
func memoPair(t *testing.T, macBits int, fill string, cacheBlocks int) (m *mem.Memory, tr *Tree, refM *mem.Memory, ref *Tree) {
	t.Helper()
	region := []mem.Region{{Name: "data", Base: 0, Size: memoLeaves * layout.BlockSize}}
	m, refM = mem.New(2<<20), mem.New(2<<20)
	var err error
	if tr, err = NewTree(m, testKey, macBits, region, 1<<20); err != nil {
		t.Fatal(err)
	}
	if ref, err = NewTree(refM, testKey, macBits, region, 1<<20); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(macBits)))
	var blk mem.Block
	for i := 0; i < memoLeaves; i++ {
		if memoFill(fill, i) {
			rng.Read(blk[:])
			m.WriteBlock(layout.Addr(i*layout.BlockSize), &blk)
			refM.WriteBlock(layout.Addr(i*layout.BlockSize), &blk)
		}
	}
	tr.EnableNodeCache(cacheBlocks)
	tr.Build()
	ref.buildRef()
	return m, tr, refM, ref
}

// storageImage returns a tree's node storage as memory holds it.
func storageImage(m *mem.Memory, tr *Tree) []byte {
	out := make([]byte, tr.StorageBytes())
	m.Read(tr.storage, out)
	return out
}

// sameTree fails the test unless both trees hold the same root and, in
// memory, the same node storage.
func sameTree(t *testing.T, what string, m *mem.Memory, tr *Tree, refM *mem.Memory, ref *Tree) {
	t.Helper()
	if !bytes.Equal(tr.Root(), ref.Root()) {
		t.Fatalf("%s: root %x, reference %x", what, tr.Root(), ref.Root())
	}
	if !bytes.Equal(storageImage(m, tr), storageImage(refM, ref)) {
		t.Fatalf("%s: node storage differs from the reference's", what)
	}
}

// TestTagMemoMatchesReference builds an empty, an alternate-leaf-written
// and a full tree at every MAC width, with the node cache off and on, and
// holds the memoized construction, updates and walks to the memo-free
// references: identical node storage and root, and every leaf's walk and
// sweep verdict and blame equal to the reference walk's, clean and with a
// byte tampered at each level.
func TestTagMemoMatchesReference(t *testing.T) {
	for _, bits := range storeWidths {
		for _, fill := range []string{"empty", "alternate", "full"} {
			for _, cacheBlocks := range []int{0, 64} {
				what := fmt.Sprintf("%d bits, %s, cache %d", bits, fill, cacheBlocks)
				m, tr, refM, ref := memoPair(t, bits, fill, cacheBlocks)
				sameTree(t, what+", built", m, tr, refM, ref)
				if fill == "empty" {
					// Build and a sweep each cost one MAC per level, the leaf
					// content included, however many leaves there are.
					if got, want := tr.MACOps, uint64(tr.Levels()+1); got != want {
						t.Errorf("%s: Build computed %d MACs, want %d", what, got, want)
					}
					before := tr.MACOps
					leafVerdicts(m, tr, leafOrder(tr), "sweep")
					if got, want := tr.MACOps-before, uint64(tr.Levels()+1); got != want {
						t.Errorf("%s: the sweep computed %d MACs, want %d", what, got, want)
					}
				}

				// Vacate some written leaves and write some vacant ones, through
				// the cache when there is one; the reference updates uncached.
				rng := rand.New(rand.NewSource(int64(bits + cacheBlocks)))
				for k := 0; k < 12; k++ {
					a := layout.Addr(rng.Intn(memoLeaves) * layout.BlockSize)
					var blk mem.Block
					if m.Snapshot(a) == blk {
						rng.Read(blk[:])
					}
					m.WriteBlock(a, &blk)
					refM.WriteBlock(a, &blk)
					if err := tr.UpdateBlock(a); err != nil {
						t.Fatal(err)
					}
					if err := ref.UpdateBlockRef(a); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(tr.Root(), ref.Root()) {
					t.Fatalf("%s: root after updates %x, reference %x", what, tr.Root(), ref.Root())
				}

				// The clean tree verifies everywhere, as the reference tree does.
				order := leafOrder(tr)
				got := leafVerdicts(m, tr, order, "sweep")
				want := leafVerdicts(refM, ref, order, "ref")
				for i := range got {
					if !sameVerdict(got[i], want[i]) || got[i] != nil {
						t.Fatalf("%s, clean leaf %#x: sweep %v, reference tree %v", what, order[i], got[i], want[i])
					}
				}
				// A byte tampered at each level (Levels() is the data) is blamed
				// as the reference walk over the same memory blames it.
				for li := 0; li <= tr.Levels(); li++ {
					at := layout.Addr(rng.Intn(memoLeaves * layout.BlockSize))
					if li < tr.Levels() {
						lv := tr.levels[li]
						at = lv.base + layout.Addr(rng.Int63n(int64(lv.count)*int64(tr.MACBytes())))
					}
					flipByte(m, at, 0x24)
					checkSweepMatches(t, rng, m, tr, fmt.Sprintf("%s, tamper at level %d", what, li))
					flipByte(m, at, 0x24)
				}

				tr.FlushNodes()
				sameTree(t, what+", updated and flushed", m, tr, refM, ref)
			}
		}
	}
}

// TestTagMemoRefusesVacantRollback rolls a written leaf back to the
// all-zero image of a never-written one, byte-identical to the block the
// memo holds from the vacant leaf before it: the memo supplies that
// block's tag and the walk refuses the leaf at level 0, as the reference
// does.
func TestTagMemoRefusesVacantRollback(t *testing.T) {
	for _, bits := range storeWidths {
		m, tr, _, _ := memoPair(t, bits, "empty", 0)
		a := layout.Addr(37 * layout.BlockSize)
		var blk mem.Block
		blk[0] = 1 // the page's first LPID
		m.WriteBlock(a, &blk)
		if err := tr.UpdateBlock(a); err != nil {
			t.Fatal(err)
		}
		m.Tamper(a, mem.Block{})

		tr.BeginSweep()
		var zero mem.Block
		if err := tr.VerifyContent(a-layout.BlockSize, &zero); err != nil {
			t.Fatalf("%d bits: the vacant leaf before the rollback: %v", bits, err)
		}
		before := tr.MACOps
		got := tr.VerifyContent(a, &zero)
		macs := tr.MACOps - before
		tr.EndSweep()
		want := tr.verifyContentRef(a, &zero)
		var e *Error
		if !errors.As(got, &e) || e.Level != 0 || !sameVerdict(got, want) {
			t.Errorf("%d bits: rolled-back leaf: %v, reference %v", bits, got, want)
		}
		if macs != 0 {
			t.Errorf("%d bits: the rolled-back leaf's walk computed %d MACs; the memo should have served its tag", bits, macs)
		}
	}
}

// TestTagMemoRefusesTamperedTwin flips one byte in one of the many
// byte-identical node blocks at each level of an empty tree. The tampered
// block no longer matches the memo, so it is MAC'd afresh and refused: the
// child whose slot the byte lies in at that level, its siblings one level
// up. Every leaf's sweep verdict and blame is the reference walk's.
func TestTagMemoRefusesTamperedTwin(t *testing.T) {
	for _, bits := range storeWidths {
		for _, cacheBlocks := range []int{0, 64} {
			m, tr, _, _ := memoPair(t, bits, "empty", cacheBlocks)
			rng := rand.New(rand.NewSource(int64(bits)))
			for li := 0; li < tr.Levels(); li++ {
				blocks := storageBlocks(tr.levels[li].count, tr.MACBytes())
				if blocks < 2 {
					continue
				}
				at := tr.levels[li].base + layout.Addr((blocks/2)*layout.BlockSize) + layout.Addr(rng.Intn(layout.BlockSize))
				flipByte(m, at, 0x01)
				what := fmt.Sprintf("%d bits, cache %d, level %d", bits, cacheBlocks, li)
				order := leafOrder(tr)
				got := leafVerdicts(m, tr, order, "sweep")
				want := leafVerdicts(m, tr, order, "ref")
				refused := 0
				for i := range got {
					if !sameVerdict(got[i], want[i]) {
						t.Fatalf("%s, leaf %#x: sweep %v, reference %v", what, order[i], got[i], want[i])
					}
					var e *Error
					if errors.As(got[i], &e) {
						if e.Level != li && e.Level != li+1 {
							t.Fatalf("%s, leaf %#x: blamed level %d, want %d or %d", what, order[i], e.Level, li, li+1)
						}
						refused++
					}
				}
				if refused == 0 {
					t.Fatalf("%s: a tampered node block refused no leaf", what)
				}
				flipByte(m, at, 0x01)
			}
		}
	}
}
