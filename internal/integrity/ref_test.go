package integrity

import (
	"fmt"

	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

// UpdateBlockRef is the FROZEN pre-batching reference update: the serial
// leaf-to-root walk exactly as it shipped before the batched engine, every
// node store and fetch going straight to memory. The differential tests in
// batch_test.go compare the batched engine against it bit for bit, and
// BenchmarkTreeBatchSerialRef is the "before" side of the engine's
// microbenchmarks — do not optimize or otherwise change it.
//
// Because it bypasses the node cache by design, it must only run on trees
// with no cache attached (a cached tree would go stale underneath it).
func (t *Tree) UpdateBlockRef(a layout.Addr) error {
	if !t.built {
		return fmt.Errorf("integrity: tree not built")
	}
	idx, ok := t.LeafIndex(a)
	if !ok {
		return fmt.Errorf("integrity: %#x is not covered by this tree", a)
	}
	mac := t.nodeScratch[:t.g.MACBytes]
	t.refNodeMACInto(a.BlockAddr(), mac)
	t.rawSetMACAt(t.levels[0], idx, mac)
	for li := 0; li < len(t.levels); li++ {
		blockAddr, parentIdx := t.TreeGeometry.slotBlock(t.levels[li], idx)
		t.refNodeMACInto(blockAddr, mac)
		if li == len(t.levels)-1 {
			t.setRoot(mac)
		} else {
			t.rawSetMACAt(t.levels[li+1], parentIdx, mac)
		}
		idx = parentIdx
	}
	return nil
}

// refNodeMACInto is the reference walk's node MAC: a direct memory read
// plus one HMAC, no cache involvement.
func (t *Tree) refNodeMACInto(a layout.Addr, dst []byte) {
	var blk mem.Block
	t.m.ReadBlock(a, &blk)
	t.refContentMACInto(&blk, dst)
}

// refContentMACInto is the references' content MAC: one HMAC per call, the
// tag memo never consulted.
func (t *Tree) refContentMACInto(blk *mem.Block, dst []byte) {
	t.mac.sizedInto(dst, blk[:], t.g.MACBits)
	t.MACOps++
}

// buildRef is the memo-free reference construction, Build as it was
// before the tag memo: every leaf and every node storage block MAC'd from
// memory, one fresh tag each.
func (t *Tree) buildRef() {
	t.clearMemo()
	if t.cache != nil {
		t.cache.reset()
	}
	idx := uint64(0)
	for _, r := range t.leaves {
		for a := r.Base; a < r.Base+layout.Addr(r.Size); a += layout.BlockSize {
			mac := make([]byte, t.g.MACBytes)
			t.refNodeMACInto(a, mac)
			t.rawSetMACAt(t.levels[0], idx, mac)
			idx++
		}
	}
	for li := 0; li < len(t.levels)-1; li++ {
		lv := t.levels[li]
		for b := uint64(0); b < storageBlocks(lv.count, t.g.MACBytes); b++ {
			mac := make([]byte, t.g.MACBytes)
			t.refNodeMACInto(lv.base+layout.Addr(b*layout.BlockSize), mac)
			t.rawSetMACAt(t.levels[li+1], b, mac)
		}
	}
	t.root = make([]byte, t.g.MACBytes)
	t.refNodeMACInto(t.levels[len(t.levels)-1].base, t.root)
	t.built = true
}

// verifyContentRef is the FROZEN pre-memo verification walk, the oracle the
// fetch-once walk and the tag memo are held to: the leaf check reads the
// stored level-0 slot, then every level MACs its storage block (one fetch)
// and compares the result with the parent's stored slot (a second fetch),
// all the way to the root. Both fetches go through the node cache, as they
// always did; every MAC is computed afresh (refContentMACInto).
func (t *Tree) verifyContentRef(a layout.Addr, blk *mem.Block) error {
	idx, err := t.verifiableLeaf(a)
	if err != nil {
		return err
	}
	computed := make([]byte, t.g.MACBytes)
	stored := make([]byte, t.g.MACBytes)
	t.refContentMACInto(blk, computed)
	t.macAtInto(t.levels[0], idx, stored)
	if !macEqual(computed, stored) {
		node, _ := t.TreeGeometry.slotBlock(t.levels[0], idx)
		return &Error{Addr: a, Level: 0, Node: node}
	}
	for li := 0; li < len(t.levels); li++ {
		blockAddr, parentIdx := t.TreeGeometry.slotBlock(t.levels[li], idx)
		var node mem.Block
		t.readNodeBlockInto(blockAddr, &node)
		t.refContentMACInto(&node, computed)
		parent := t.root
		if li < len(t.levels)-1 {
			parent = stored
			t.macAtInto(t.levels[li+1], parentIdx, parent)
		}
		if !macEqual(computed, parent) {
			return &Error{Addr: a, Level: li + 1, Node: blockAddr}
		}
		idx = parentIdx
	}
	return nil
}
