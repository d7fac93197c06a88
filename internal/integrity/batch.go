package integrity

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

// The batched update engine turns N leaf-to-root walks into one
// level-ordered pass: dedupe the dirty leaf set, hash all distinct leaves,
// install their level-0 MACs, then per level collect the distinct dirty
// storage blocks, re-hash them (once each, however many children changed),
// and install the results one level up — ending with exactly one root
// update per batch. Each level's block hashes are independent, so they fan
// out across a bounded set of hashers; all stores and all memory reads stay
// on the calling goroutine (mem.Memory's access counters are
// unsynchronized), hashers only run HMAC over prefetched scratch, each with
// its own MAC engine.

// UpdateStats counts the batched engine's work, cumulatively.
type UpdateStats struct {
	Batches        uint64 // UpdateBatch passes
	BatchedLeaves  uint64 // leaf updates submitted to batches (pre-dedupe)
	NodesHashed    uint64 // node MACs the batched passes computed
	NodesCoalesced uint64 // hashes saved vs replaying each update serially
	CacheHits      uint64 // node-cache lookups served from the cache
	CacheMisses    uint64 // node-cache lookups that went to memory
	Writebacks     uint64 // dirty node blocks written back (evict + flush)
	Flushes        uint64 // explicit FlushNodes calls
}

// UpdateStats returns the engine's counters, folding in the node cache's.
func (t *Tree) UpdateStats() UpdateStats {
	s := t.ustats
	if t.cache != nil {
		s.CacheHits = t.cache.hits
		s.CacheMisses = t.cache.misses
		s.Writebacks = t.cache.writebacks
		s.Flushes = t.cache.flushes
	}
	return s
}

// hashJob is one node MAC computation: content in, tag out. slot carries
// the leaf index (leaf pass) or level block index (interior passes).
type hashJob struct {
	content mem.Block
	out     [32]byte
	slot    uint64
}

type leafRef struct {
	idx  uint64
	addr layout.Addr
}

// leafSorter sorts leaf refs by index; a named type with pointer receiver
// keeps sort.Sort from allocating per batch.
type leafSorter struct{ refs []leafRef }

func (s *leafSorter) Len() int           { return len(s.refs) }
func (s *leafSorter) Less(i, j int) bool { return s.refs[i].idx < s.refs[j].idx }
func (s *leafSorter) Swap(i, j int)      { s.refs[i], s.refs[j] = s.refs[j], s.refs[i] }

// treeUpdater is UpdateBatch's reusable scratch; it grows to the working
// set once and stays allocation-free across subsequent batches.
type treeUpdater struct {
	sort  leafSorter
	jobs  []hashJob
	dirty []uint64 // distinct dirty block indices at the current level
	next  []uint64 // same, one level up
	crew  hashCrew
}

const (
	// minParallelJobs is the fan-out threshold: below it a goroutine
	// handoff costs more than the ~0.5µs per node hash it would save.
	minParallelJobs = 16
	// jobChunk is how many jobs a worker claims per fetch-and-add.
	jobChunk = 4
)

// UpdateBatch recomputes the MAC chain for a whole set of protected blocks
// in one level-ordered pass with a single root update, equivalent to (and
// bit-identical with) calling UpdateBlock serially for each address in
// order: the final tree depends only on the final content of each touched
// block, which both orders read the same way. Duplicate and sibling
// addresses coalesce — each distinct node is hashed once per batch.
//
// workers bounds the hash fan-out per level; <= 1 (or a batch smaller than
// the fan-out threshold) hashes on the calling goroutine. The address slice
// is not retained. Partial application on error (an uncovered address) is
// impossible: addresses are validated before any state changes.
func (t *Tree) UpdateBatch(addrs []layout.Addr, workers int) error {
	if !t.built {
		return fmt.Errorf("integrity: tree not built")
	}
	if len(addrs) == 0 {
		return nil
	}
	u := &t.up
	u.sort.refs = u.sort.refs[:0]
	for _, a := range addrs {
		idx, ok := t.LeafIndex(a)
		if !ok {
			return fmt.Errorf("integrity: %#x is not covered by this tree", a)
		}
		u.sort.refs = append(u.sort.refs, leafRef{idx: idx, addr: a.BlockAddr()})
	}
	t.clearMemo()
	sort.Sort(&u.sort)
	refs := u.sort.refs
	w := 1
	for i := 1; i < len(refs); i++ {
		if refs[i].idx != refs[w-1].idx {
			refs[w] = refs[i]
			w++
		}
	}
	refs = refs[:w]

	// Leaf pass: hash every distinct dirty leaf's current content.
	u.jobs = growJobs(u.jobs, len(refs))
	jobs := u.jobs[:len(refs)]
	for i, r := range refs {
		t.m.ReadBlock(r.addr, &jobs[i].content)
		jobs[i].slot = r.idx
	}
	t.hashJobs(jobs, workers)
	hashed := uint64(len(jobs))

	// Install level-0 MACs and collect the distinct dirty storage blocks.
	// refs are sorted by leaf index, so parent block indices arrive
	// nondecreasing and comparing against the last entry dedupes fully.
	u.dirty = u.dirty[:0]
	for i := range jobs {
		t.setMACAt(t.levels[0], jobs[i].slot, jobs[i].out[:t.g.MACBytes])
		_, b := t.TreeGeometry.slotBlock(t.levels[0], jobs[i].slot)
		if n := len(u.dirty); n == 0 || u.dirty[n-1] != b {
			u.dirty = append(u.dirty, b)
		}
	}

	// Level passes: re-hash each level's dirty blocks (through the node
	// cache), install one level up, until the top block refreshes the root.
	for li := 0; li < len(t.levels); li++ {
		lv := t.levels[li]
		u.jobs = growJobs(u.jobs, len(u.dirty))
		jobs = u.jobs[:len(u.dirty)]
		for i, b := range u.dirty {
			t.readNodeBlockInto(lv.base+layout.Addr(b*layout.BlockSize), &jobs[i].content)
			jobs[i].slot = b
		}
		t.hashJobs(jobs, workers)
		hashed += uint64(len(jobs))
		if li == len(t.levels)-1 {
			t.setRoot(jobs[0].out[:t.g.MACBytes])
			break
		}
		u.next = u.next[:0]
		for i := range jobs {
			t.setMACAt(t.levels[li+1], jobs[i].slot, jobs[i].out[:t.g.MACBytes])
			_, pb := t.TreeGeometry.slotBlock(t.levels[li+1], jobs[i].slot)
			if n := len(u.next); n == 0 || u.next[n-1] != pb {
				u.next = append(u.next, pb)
			}
		}
		u.dirty, u.next = u.next, u.dirty
	}

	t.MACOps += hashed
	t.ustats.Batches++
	t.ustats.BatchedLeaves += uint64(len(addrs))
	t.ustats.NodesHashed += hashed
	t.ustats.NodesCoalesced += uint64(len(addrs))*uint64(1+len(t.levels)) - hashed
	return nil
}

// hashJobs computes every job's node MAC, fanning across up to workers
// hashers (the calling goroutine plus workers-1 helpers) when the batch is
// big enough to pay for the handoff. An engine stages every message in
// its own blocks, so it cannot be shared: the caller hashes with t.mac and
// each helper with its own engine from the tree's crew; each hasher writes
// only its own jobs' out buffers.
// MACOps accounting happens in the caller, once, to keep the counter off
// the parallel path.
func (t *Tree) hashJobs(jobs []hashJob, workers int) {
	c := &t.up.crew
	c.jobs, c.bits = jobs, t.g.MACBits
	c.next.Store(0)
	if workers > (len(jobs)+jobChunk-1)/jobChunk {
		workers = (len(jobs) + jobChunk - 1) / jobChunk
	}
	if workers <= 1 || len(jobs) < minParallelJobs {
		c.drain(t.mac)
		return
	}
	for len(c.helpers) < workers-1 {
		c.helpers = append(c.helpers, hashHelper{crew: c, mac: newMACEngine(t.key)})
	}
	c.wg.Add(workers - 1)
	for i := 0; i < workers-1; i++ {
		go runHelper()
		helperHandoff <- &c.helpers[i]
	}
	c.drain(t.mac)
	c.wg.Wait()
}

// hashCrew is one tree's hash fan-out: the current level's jobs, the
// shared claim cursor, and one MAC engine per helper, built on the first
// fan-out that needs it and reused by every later batch.
type hashCrew struct {
	jobs    []hashJob
	bits    int
	next    atomic.Int64
	wg      sync.WaitGroup
	helpers []hashHelper
}

type hashHelper struct {
	crew *hashCrew
	mac  *macEngine
}

// drain claims jobChunk jobs at a time until none are left, tagging each
// with mac.
func (c *hashCrew) drain(mac *macEngine) {
	nb := c.bits / 8
	for {
		start := int(c.next.Add(jobChunk)) - jobChunk
		if start >= len(c.jobs) {
			return
		}
		end := start + jobChunk
		if end > len(c.jobs) {
			end = len(c.jobs)
		}
		for i := start; i < end; i++ {
			mac.sizedInto(c.jobs[i].out[:nb], c.jobs[i].content[:], c.bits)
		}
	}
}

// helperHandoff hands each freshly started helper goroutine its crew and
// engine. The goroutines start with no arguments and no captured
// variables, so starting one allocates nothing once the runtime has
// exited goroutines to reuse; every go statement is paired with exactly
// one send, so each helper takes exactly one value.
var helperHandoff = make(chan *hashHelper, 64)

func runHelper() {
	h := <-helperHandoff
	h.crew.drain(h.mac)
	h.crew.wg.Done()
}

func growJobs(jobs []hashJob, n int) []hashJob {
	if cap(jobs) < n {
		return make([]hashJob, n)
	}
	return jobs[:n]
}
