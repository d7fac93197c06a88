package core

import "aisebmt/internal/layout"

// Tree update batching. Eagerly, every counter-block change propagates
// leaf-to-root through the Merkle tree before the write returns. The shard
// worker instead brackets each drained request batch with
// BeginTreeBatch/EndTreeBatch: in between, tree updates are deferred into a
// dirty list that EndTreeBatch commits as one level-ordered, coalescing,
// worker-parallel integrity.Tree.UpdateBatch pass with a single root
// update. Operations that READ tree state mid-batch (a fetch span's
// counter-block verification, swap, hibernate) call treeBarrier first,
// which commits the pending set — so batches mixing reads and writes stay
// correct without the caller tracking anything.
//
// Invariant: outside a Begin/End window the dirty list is empty, so
// library users who never call BeginTreeBatch get the unchanged eager
// behavior.

// BeginTreeBatch opens (or nests) a tree-update batch window. Every call
// must be paired with EndTreeBatch or AbortTreeBatch.
func (s *SecureMemory) BeginTreeBatch() {
	s.treeDepth++
}

// EndTreeBatch closes one batch window; closing the outermost window
// commits all deferred tree updates in one coalescing pass. An error means
// the tree could not absorb the updates — the controller's integrity state
// is suspect and the caller must treat it as faulted.
func (s *SecureMemory) EndTreeBatch() error {
	if s.treeDepth == 0 {
		return nil
	}
	s.treeDepth--
	if s.treeDepth == 0 {
		return s.commitTreeBatch()
	}
	return nil
}

// AbortTreeBatch discards all deferred tree updates and closes every open
// window. Only for callers about to quarantine and rebuild the controller:
// the tree no longer matches the written counters afterwards.
func (s *SecureMemory) AbortTreeBatch() {
	s.treeDepth = 0
	s.treeDirty = s.treeDirty[:0]
}

// treeUpdate routes one tree update: deferred into the open batch window,
// or eagerly otherwise.
func (s *SecureMemory) treeUpdate(a layout.Addr) error {
	if s.treeDepth > 0 {
		s.treeDirty = append(s.treeDirty, a)
		return nil
	}
	return s.tree.UpdateBlock(a)
}

// treeBarrier commits pending deferred updates so the caller can read
// current tree state mid-batch. No-op (one length check) when nothing is
// pending.
func (s *SecureMemory) treeBarrier() error {
	if len(s.treeDirty) == 0 {
		return nil
	}
	return s.commitTreeBatch()
}

func (s *SecureMemory) commitTreeBatch() error {
	if len(s.treeDirty) == 0 {
		return nil
	}
	addrs := s.treeDirty
	s.treeDirty = s.treeDirty[:0]
	return s.tree.UpdateBatch(addrs, s.cfg.TreeUpdateWorkers)
}

// FlushTreeNodes writes every dirty cached tree node block back to memory,
// returning how many blocks were written. Hibernate calls it before
// serializing, so snapshot sealing needs no extra step.
func (s *SecureMemory) FlushTreeNodes() int {
	if s.tree == nil {
		return 0
	}
	return s.tree.FlushNodes()
}
