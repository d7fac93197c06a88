package integrity

import (
	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

// nodeCache is a bounded write-back cache of integrity-tree node storage
// blocks, the software analogue of the secure processor keeping hot tree
// nodes in its on-chip metadata cache. Slot reads and writes hit the cached
// copy; dirty blocks reach (untrusted) memory only on eviction or an
// explicit flush. Cached contents are trusted by construction — they never
// left the chip — which is exactly why every seal/serialize point must call
// FlushNodes first: the sealed image must contain the current node bytes.
//
// Eviction is FIFO: each block address enters the queue once, on insert,
// and entries persist until evicted, so the queue never holds stale keys.
type nodeCache struct {
	capBlocks int
	entries   map[layout.Addr]*nodeEntry
	fifo      []layout.Addr
	head      int // index of the oldest queue entry

	hits       uint64
	misses     uint64
	writebacks uint64 // dirty blocks written to memory (evictions + flushes)
	flushes    uint64 // FlushNodes calls
}

type nodeEntry struct {
	content mem.Block
	dirty   bool
}

func newNodeCache(capBlocks int) *nodeCache {
	return &nodeCache{
		capBlocks: capBlocks,
		entries:   make(map[layout.Addr]*nodeEntry, capBlocks),
	}
}

// get returns the resident entry for block address a, or nil, counting the
// lookup as a hit or miss.
func (c *nodeCache) get(a layout.Addr) *nodeEntry {
	if e, ok := c.entries[a]; ok {
		c.hits++
		return e
	}
	c.misses++
	return nil
}

// ensure returns the entry for block address a, filling it from memory
// (and evicting as needed) when not resident.
func (c *nodeCache) ensure(a layout.Addr, m *mem.Memory) *nodeEntry {
	if e, ok := c.entries[a]; ok {
		c.hits++
		return e
	}
	c.misses++
	for len(c.entries) >= c.capBlocks {
		c.evictOne(m)
	}
	e := &nodeEntry{}
	m.ReadBlock(a, &e.content)
	c.entries[a] = e
	c.push(a)
	return e
}

func (c *nodeCache) push(a layout.Addr) {
	c.fifo = append(c.fifo, a)
}

func (c *nodeCache) evictOne(m *mem.Memory) {
	a := c.fifo[c.head]
	c.head++
	if c.head > 1024 && c.head*2 >= len(c.fifo) {
		c.fifo = append(c.fifo[:0], c.fifo[c.head:]...)
		c.head = 0
	}
	e := c.entries[a]
	if e.dirty {
		m.WriteBlock(a, &e.content)
		c.writebacks++
	}
	delete(c.entries, a)
}

// flush writes every dirty block back to memory, leaving entries resident
// but clean, and returns how many blocks were written.
func (c *nodeCache) flush(m *mem.Memory) int {
	c.flushes++
	n := 0
	for a, e := range c.entries {
		if e.dirty {
			m.WriteBlock(a, &e.content)
			e.dirty = false
			c.writebacks++
			n++
		}
	}
	return n
}

// reset drops every entry without writing anything back. Build and Restore
// use it: after either, memory (or the image) is the authority.
func (c *nodeCache) reset() {
	clear(c.entries)
	c.fifo = c.fifo[:0]
	c.head = 0
}

// EnableNodeCache attaches a write-back cache of up to capBlocks node
// storage blocks to the tree (capBlocks <= 0 detaches). It must be called
// before the tree is used — switching caches mid-stream would strand dirty
// state — and must not be combined with the test-only serial reference walk
// (UpdateBlockRef), which bypasses the cache by design.
func (t *Tree) EnableNodeCache(capBlocks int) {
	if capBlocks <= 0 {
		t.cache = nil
		return
	}
	t.cache = newNodeCache(capBlocks)
}

// FlushNodes writes every dirty cached node block back to memory and
// returns how many blocks were written. Every checkpoint/snapshot seal (and
// anything else that serializes memory) must call it first so the sealed
// image carries the current tree bytes; crash recovery semantics are then
// unchanged, because state not yet flushed is also state not yet sealed and
// is rebuilt from the WAL.
func (t *Tree) FlushNodes() int {
	if t.cache == nil {
		return 0
	}
	return t.cache.flush(t.m)
}
