package core

import "aisebmt/internal/layout"

// metaCache is a stats-only model of the on-chip metadata caches the
// paper assumes: a small counter cache (§4.2 keeps hot counter blocks
// next to the pipeline) and a cache of Bonsai/Merkle tree nodes (the
// optimization that lets a verification walk stop early). The functional
// controller fetches and walks to the root on every request; only a
// VerifyAll sweep stops its walks early, at the first node block the sweep
// itself already verified (integrity.Tree.BeginSweep), and nothing trusted
// carries over from one request to the next. This model answers "would
// that metadata have been resident?" for the full walk, so a live daemon
// can report counter-cache and tree-node hit rates per shard.
//
// Both caches are direct-mapped over fixed arrays: touching one is two
// array accesses and never allocates, preserving the hot path's
// zero-alloc contract. Tags store blockAddr+1 so the zero value means
// "invalid" and an explicit valid bit is unnecessary.
const (
	ctrCacheLines  = 64  // 64 × 64B counter blocks ≈ 4KiB counter cache
	nodeCacheLines = 256 // 256 × 64B node blocks ≈ 16KiB tree-node cache
)

type metaCache struct {
	ctr  [ctrCacheLines]layout.Addr
	node [nodeCacheLines]layout.Addr

	// nodeWalk is scratch for replaying a verification's node walk
	// without allocating, sized to the tree's depth when it is built.
	nodeWalk []layout.Addr
}

// touchCtr records an access to the counter block at a.
func (s *SecureMemory) touchCtr(a layout.Addr) {
	line := (uint64(a) / layout.BlockSize) % ctrCacheLines
	tag := a + 1
	if s.mcache.ctr[line] == tag {
		s.stats.CtrCacheHits++
		return
	}
	s.stats.CtrCacheMisses++
	s.mcache.ctr[line] = tag
}

// touchCtrSpan records a span of n data blocks being served from the
// counter block at a. The model keeps its per-block meaning: the first
// block looks the line up, and the rest of the span hits the line that
// lookup left resident — what n one-block accesses would have recorded.
func (s *SecureMemory) touchCtrSpan(a layout.Addr, n int) {
	s.touchCtr(a)
	s.stats.CtrCacheHits += uint64(n - 1)
}

// touchNode records an access to the tree node storage block at a.
func (s *SecureMemory) touchNode(a layout.Addr) {
	line := (uint64(a) / layout.BlockSize) % nodeCacheLines
	tag := a + 1
	if s.mcache.node[line] == tag {
		s.stats.TreeNodeCacheHits++
		return
	}
	s.stats.TreeNodeCacheMiss++
	s.mcache.node[line] = tag
}

// touchTreeWalk replays the node walk a verification or update of the
// protected block at a performs, feeding each node through the cache
// model.
func (s *SecureMemory) touchTreeWalk(a layout.Addr) {
	if s.tree == nil {
		return
	}
	walk, ok := s.tree.AppendNodeAddrs(s.mcache.nodeWalk[:0], a)
	s.mcache.nodeWalk = walk[:0]
	if !ok {
		return
	}
	for _, n := range walk {
		s.touchNode(n)
	}
}
