// Package mem models the untrusted off-chip physical memory of the secure
// processor. It is a page directory: one 4KiB frame per page, allocated on
// the page's first store, plus one 64-bit mask per page recording which
// blocks have ever been stored. Everything outside the processor chip in
// the paper's attack model lives here (data, ciphertext, counter blocks,
// MACs, Merkle tree nodes, the page root directory) and all of it can be
// observed and corrupted by an adversary via the Tamper APIs.
package mem

import (
	"fmt"
	"sort"
	"sync"

	"aisebmt/internal/layout"
)

// Block is one 64-byte memory block.
type Block [layout.BlockSize]byte

// page is one page frame, exactly layout.PageSize bytes so that it fills
// one allocator size class with nothing to spare. Its written mask lives
// beside it in Memory.written: eight more bytes here would push every
// frame into the next size class.
type page [layout.BlocksPerPage]Block

// zeroBlock is what a block of a never-stored page reads as.
var zeroBlock Block

// Region names a contiguous range of physical memory for accounting and
// debug output.
type Region struct {
	Name string
	Base layout.Addr
	Size uint64
}

// Contains reports whether a falls inside the region.
func (r Region) Contains(a layout.Addr) bool {
	return a >= r.Base && uint64(a-r.Base) < r.Size
}

// Memory is a physical memory indexed by address arithmetic: page number,
// then block within the page. Unwritten blocks read as zero, like DRAM
// after a deterministic simulator reset, and reading them allocates
// nothing. Memory is safe for concurrent readers but writers require
// external synchronization at the memory controller, mirroring a single
// memory channel; attacker Tamper/Snapshot calls may race the controller.
type Memory struct {
	mu        sync.RWMutex
	size      uint64
	pages     []*page  // nil until the page's first store
	written   []uint64 // per page: bit i set once block i has been stored
	populated int      // set bits across written
	resident  int      // non-nil entries of pages
	regions   []Region

	// Traffic counters (blocks transferred), maintained for experiments.
	Reads  uint64
	Writes uint64

	// Observer, when set, is called for every processor-visible block
	// transfer with the operation ("read"/"write") and block address. It
	// models a bus analyzer: §3's attacker sees every address on the bus
	// even when the data is encrypted. Attacker Tamper/Snapshot operations
	// are not reported (the attacker already knows its own actions).
	Observer func(op string, addr layout.Addr)
}

// New creates a physical memory of the given byte size.
func New(size uint64) *Memory {
	n := (size + layout.PageSize - 1) / layout.PageSize
	return &Memory{size: size, pages: make([]*page, n), written: make([]uint64, n)}
}

// Size returns the physical memory size in bytes.
func (m *Memory) Size() uint64 { return m.size }

// AddRegion registers a named region for accounting. Regions may not
// overlap; a panic here indicates a layout bug, not a runtime condition.
func (m *Memory) AddRegion(r Region) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ex := range m.regions {
		if r.Base < ex.Base+layout.Addr(ex.Size) && ex.Base < r.Base+layout.Addr(r.Size) {
			panic(fmt.Sprintf("mem: region %q overlaps %q", r.Name, ex.Name))
		}
	}
	m.regions = append(m.regions, r)
	sort.Slice(m.regions, func(i, j int) bool { return m.regions[i].Base < m.regions[j].Base })
}

// RegionOf returns the region containing a, if any.
func (m *Memory) RegionOf(a layout.Addr) (Region, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, r := range m.regions {
		if r.Contains(a) {
			return r, true
		}
	}
	return Region{}, false
}

// Regions returns the registered regions in address order.
func (m *Memory) Regions() []Region {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Region, len(m.regions))
	copy(out, m.regions)
	return out
}

func (m *Memory) checkAddr(a layout.Addr) {
	if uint64(a) >= m.size {
		panic(fmt.Sprintf("mem: address %#x outside physical memory of %d bytes", a, m.size))
	}
}

// checkSpan panics unless every block of the n > 0 bytes at a lies inside
// memory, and returns the first and last block addresses.
func (m *Memory) checkSpan(a layout.Addr, n int) (first, last layout.Addr) {
	first, last = a.BlockAddr(), (a + layout.Addr(n-1)).BlockAddr()
	m.checkAddr(first)
	m.checkAddr(last)
	return first, last
}

// load returns the block at a for reading; m.mu must be held.
func (m *Memory) load(a layout.Addr) *Block {
	if p := m.pages[a/layout.PageSize]; p != nil {
		return &p[a.BlockInPage()]
	}
	return &zeroBlock
}

// store returns the block at a for writing, allocating its page and
// marking the block stored; m.mu must be held for writing.
func (m *Memory) store(a layout.Addr) *Block {
	pi, bi := a/layout.PageSize, a.BlockInPage()
	p := m.pages[pi]
	if p == nil {
		p = new(page)
		m.pages[pi] = p
		m.resident++
	}
	if bit := uint64(1) << bi; m.written[pi]&bit == 0 {
		m.written[pi] |= bit
		m.populated++
	}
	return &p[bi]
}

// copyIn stores src at a, crossing blocks as needed; m.mu must be held
// for writing.
func (m *Memory) copyIn(a layout.Addr, src []byte) {
	for len(src) > 0 {
		n := copy(m.store(a)[a%layout.BlockSize:], src)
		src = src[n:]
		a += layout.Addr(n)
	}
}

// transfer counts and reports a processor-visible access to the blocks
// first..last, block by block: a read of each if read is set, then a write
// of it if write is set.
func (m *Memory) transfer(first, last layout.Addr, read, write bool) {
	for a := first; a <= last; a += layout.BlockSize {
		if read {
			m.Reads++
			if m.Observer != nil {
				m.Observer("read", a)
			}
		}
		if write {
			m.Writes++
			if m.Observer != nil {
				m.Observer("write", a)
			}
		}
	}
}

// ReadBlock copies the block at the (block-aligned) address into dst.
func (m *Memory) ReadBlock(a layout.Addr, dst *Block) {
	a = a.BlockAddr()
	m.checkAddr(a)
	m.mu.RLock()
	*dst = *m.load(a)
	m.mu.RUnlock()
	m.Reads++
	if m.Observer != nil {
		m.Observer("read", a)
	}
}

// WriteBlock stores src at the (block-aligned) address.
func (m *Memory) WriteBlock(a layout.Addr, src *Block) {
	a = a.BlockAddr()
	m.checkAddr(a)
	m.mu.Lock()
	*m.store(a) = *src
	m.mu.Unlock()
	m.Writes++
	if m.Observer != nil {
		m.Observer("write", a)
	}
}

// ReadBlocks copies the len(dst) consecutive blocks starting at the
// (block-aligned) address into dst under one acquisition of the lock. It
// counts and reports the block reads a loop of ReadBlock calls would, in
// the same order.
func (m *Memory) ReadBlocks(a layout.Addr, dst []Block) {
	if len(dst) == 0 {
		return
	}
	first, last := m.checkSpan(a.BlockAddr(), len(dst)*layout.BlockSize)
	m.mu.RLock()
	for i := range dst {
		dst[i] = *m.load(first + layout.Addr(i*layout.BlockSize))
	}
	m.mu.RUnlock()
	m.transfer(first, last, true, false)
}

// WriteBlocks stores src as the len(src) consecutive blocks starting at the
// (block-aligned) address under one acquisition of the lock. It counts and
// reports the block writes a loop of WriteBlock calls would, in the same
// order.
func (m *Memory) WriteBlocks(a layout.Addr, src []Block) {
	if len(src) == 0 {
		return
	}
	first, last := m.checkSpan(a.BlockAddr(), len(src)*layout.BlockSize)
	m.mu.Lock()
	for i := range src {
		*m.store(first + layout.Addr(i*layout.BlockSize)) = src[i]
	}
	m.mu.Unlock()
	m.transfer(first, last, false, true)
}

// Read copies n = len(dst) bytes starting at a, crossing blocks as needed.
// It counts and reports one block read per block touched, as a loop of
// ReadBlock calls would.
func (m *Memory) Read(a layout.Addr, dst []byte) {
	if len(dst) == 0 {
		return
	}
	first, last := m.checkSpan(a, len(dst))
	m.mu.RLock()
	for p := dst; len(p) > 0; {
		n := copy(p, m.load(a)[a%layout.BlockSize:])
		p = p[n:]
		a += layout.Addr(n)
	}
	m.mu.RUnlock()
	m.transfer(first, last, true, false)
}

// Write stores src starting at a, crossing blocks as needed. Each block
// touched is counted and reported as a read followed by a write — the
// read-modify-write a partial block needs on a block-granular bus.
func (m *Memory) Write(a layout.Addr, src []byte) {
	if len(src) == 0 {
		return
	}
	first, last := m.checkSpan(a, len(src))
	m.mu.Lock()
	m.copyIn(a, src)
	m.mu.Unlock()
	m.transfer(first, last, true, true)
}

// PopulatedBlocks returns the number of blocks that have ever been written,
// counting blocks whose stored value is zero.
func (m *Memory) PopulatedBlocks() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.populated
}

// ResidentBytes returns the bytes of page frames allocated so far: one
// PageSize frame for every page that has ever had a block stored in it.
func (m *Memory) ResidentBytes() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return uint64(m.resident) * layout.PageSize
}

// Snapshot returns a deep copy of the block at a, or a zero block if never
// written. Attackers use it to record values for later replay. It bypasses
// the traffic counters and the bus observer: it is the attacker looking,
// not the processor transferring.
func (m *Memory) Snapshot(a layout.Addr) Block {
	a = a.BlockAddr()
	m.checkAddr(a)
	m.mu.RLock()
	defer m.mu.RUnlock()
	return *m.load(a)
}

// Tamper overwrites the block at a without going through the processor,
// modeling a physical attacker on the memory bus or DIMM. It bypasses the
// traffic counters: the processor never sees the write happen.
func (m *Memory) Tamper(a layout.Addr, b Block) {
	a = a.BlockAddr()
	m.checkAddr(a)
	m.mu.Lock()
	*m.store(a) = b
	m.mu.Unlock()
}

// TamperBytes corrupts len(src) bytes at a, preserving surrounding bytes.
func (m *Memory) TamperBytes(a layout.Addr, src []byte) {
	if len(src) == 0 {
		return
	}
	m.checkSpan(a, len(src))
	m.mu.Lock()
	m.copyIn(a, src)
	m.mu.Unlock()
}
