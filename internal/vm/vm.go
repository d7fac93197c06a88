// Package vm is the operating-system substrate the paper's system-level
// arguments run on: a virtual memory manager with per-process page tables,
// a TLB, demand paging to a swap device, fork with copy-on-write, and
// shared-memory IPC — all on top of the secure memory controller.
//
// The manager is deliberately scheme-agnostic: it issues the same
// plaintext reads and writes regardless of how core.SecureMemory encrypts
// and verifies them. The paper's qualitative comparisons then become
// executable facts: AISE swaps and shares pages freely, physical-address
// seeds force page re-encryption on every move, and virtual-address seeds
// corrupt shared mappings across processes.
//
// Concurrency: a single Manager mutex guards all bookkeeping (page
// tables, frame lists, the swap device, the TLB). Bulk data movement —
// zeroing freshly mapped pages and per-page read/write I/O — runs outside
// the mutex against pin-counted frames, so independent address spaces
// overlap their (fsync-dominated) backing traffic while structural
// mutations stay serialized. Serialized structure is also what makes the
// journal Sink sound: every structural mutation is emitted under the
// mutex, in the same order the backing observed it.
package vm

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
)

// PID identifies a process.
type PID uint32

// Backing is the physical memory a Manager manages. core.SecureMemory is
// the single-controller case (NewManager wraps it); the service layer
// adapts the sharded pool, where page-interleaved placement splits the
// frame space into swap-placement groups: a page image swapped out of one
// shard must swap back into a frame of the same shard, because its page
// root lives in that shard's Page Root Directory. SwapGroups reports the
// number of such groups (1 when placement is unconstrained); a frame's
// group is its page number modulo SwapGroups, and swap slots passed to
// SwapOut/SwapIn are local to the group of the page being moved.
// Move relocates a page between two frames of the same group.
type Backing interface {
	Read(ctx context.Context, addr layout.Addr, dst []byte, meta core.Meta) error
	Write(ctx context.Context, addr layout.Addr, src []byte, meta core.Meta) error
	SwapOut(ctx context.Context, pageAddr layout.Addr, slot int) (*core.PageImage, error)
	SwapIn(ctx context.Context, img *core.PageImage, pageAddr layout.Addr, slot int) error
	Move(ctx context.Context, oldPage, newPage layout.Addr) error
	DataBytes() uint64
	SwapGroups() int
}

// singleBacking adapts a core.SecureMemory: one controller, one
// unconstrained swap-placement group.
type singleBacking struct{ sm *core.SecureMemory }

func (b singleBacking) Read(_ context.Context, a layout.Addr, dst []byte, meta core.Meta) error {
	return b.sm.Read(a, dst, meta)
}
func (b singleBacking) Write(_ context.Context, a layout.Addr, src []byte, meta core.Meta) error {
	return b.sm.Write(a, src, meta)
}
func (b singleBacking) SwapOut(_ context.Context, a layout.Addr, slot int) (*core.PageImage, error) {
	return b.sm.SwapOut(a, slot)
}
func (b singleBacking) SwapIn(_ context.Context, img *core.PageImage, a layout.Addr, slot int) error {
	return b.sm.SwapIn(img, a, slot)
}
func (b singleBacking) Move(_ context.Context, oldPage, newPage layout.Addr) error {
	return b.sm.MovePage(oldPage, newPage)
}
func (b singleBacking) DataBytes() uint64 { return b.sm.DataBytes() }
func (b singleBacking) SwapGroups() int   { return 1 }

// Stats counts VM events.
type Stats struct {
	PageFaults  uint64
	SwapIns     uint64
	SwapOuts    uint64
	COWBreaks   uint64
	Evictions   uint64
	Migrations  uint64
	TLBHits     uint64
	TLBMisses   uint64
	FramesInUse int
}

// pte is a page table entry.
type pte struct {
	frame    int  // physical frame index when present
	present  bool // in physical memory
	writable bool
	cow      bool // copy-on-write: shared frame, private logical page
	shared   bool // genuinely shared mapping (IPC); writes do not break it
	swapSlot int  // swap slot when not present
	valid    bool
}

// owner records one (process, virtual page) mapping of a frame.
type owner struct {
	pid PID
	vpn uint64
}

type frameInfo struct {
	used   bool
	pins   int // >0: ineligible for eviction (mid-copy or I/O in flight)
	owners []owner
}

// slotOwners is the swapped-page counterpart of frameInfo.owners: for
// each occupied swap slot, every (process, page) whose PTE is parked on
// it. Keeping it beside the frame owners spares unmap, exit and swap-in a
// walk of every page table to find a slot's sharers.
type slotOwners map[int][]owner

// add parks o on slot.
func (s slotOwners) add(slot int, o owner) { s[slot] = append(s[slot], o) }

// drop unparks o from slot and reports whether it was the slot's last
// owner (the entry is then gone).
func (s slotOwners) drop(slot int, o owner) bool {
	os := s[slot]
	for i, x := range os {
		if x == o {
			os = append(os[:i], os[i+1:]...)
			break
		}
	}
	if len(os) == 0 {
		delete(s, slot)
		return true
	}
	s[slot] = os
	return false
}

// Process is an address space backed by a two-level radix page table.
type Process struct {
	PID   PID
	pages pageTable
}

// SwapDevice is the untrusted disk's swap area: it stores page images by
// slot. Attackers can read and replace images freely (see Tamper).
//
// Slots are partitioned into one namespace per swap-placement group of
// the backing (one group, i.e. flat slot numbers, for a single
// controller): slot g*slotsPerGroup+k is the group-local slot k of group
// g, mirroring the per-shard Page Root Directories of a sharded backing.
type SwapDevice struct {
	slots         map[int]*core.PageImage
	free          [][]int // per-group free lists of device-wide slot numbers
	slotsPerGroup int
}

// NewSwapDevice creates a single-group device with the given slot capacity.
func NewSwapDevice(capacity int) *SwapDevice { return newGroupedSwapDevice(1, capacity) }

func newGroupedSwapDevice(groups, slotsPerGroup int) *SwapDevice {
	d := &SwapDevice{
		slots:         make(map[int]*core.PageImage),
		free:          make([][]int, groups),
		slotsPerGroup: slotsPerGroup,
	}
	for g := 0; g < groups; g++ {
		for i := slotsPerGroup - 1; i >= 0; i-- {
			d.free[g] = append(d.free[g], g*slotsPerGroup+i)
		}
	}
	return d
}

func (d *SwapDevice) alloc(group int) (int, error) {
	if len(d.free[group]) == 0 {
		return 0, errors.New("vm: swap device full")
	}
	fl := d.free[group]
	s := fl[len(fl)-1]
	d.free[group] = fl[:len(fl)-1]
	return s, nil
}

// allocSpecific removes one known slot from its group's free list — replay
// re-creating a recorded allocation rather than choosing one.
func (d *SwapDevice) allocSpecific(slot int) error {
	g := slot / d.slotsPerGroup
	if g < 0 || g >= len(d.free) {
		return fmt.Errorf("vm: slot %d outside the swap device", slot)
	}
	for i, s := range d.free[g] {
		if s == slot {
			d.free[g] = append(d.free[g][:i], d.free[g][i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("vm: slot %d is not free", slot)
}

func (d *SwapDevice) release(slot int) {
	delete(d.slots, slot)
	g := slot / d.slotsPerGroup
	d.free[g] = append(d.free[g], slot)
}

// groupOf returns the swap-placement group owning a device-wide slot.
func (d *SwapDevice) groupOf(slot int) int { return slot / d.slotsPerGroup }

// localOf returns a slot's index inside its group's directory.
func (d *SwapDevice) localOf(slot int) int { return slot % d.slotsPerGroup }

// Used reports how many slots currently hold a page image.
func (d *SwapDevice) Used() int { return len(d.slots) }

// Image returns the stored image for a slot (attacker view).
func (d *SwapDevice) Image(slot int) *core.PageImage { return d.slots[slot] }

// Tamper replaces the stored image for a slot, modeling a disk attacker.
func (d *SwapDevice) Tamper(slot int, img *core.PageImage) { d.slots[slot] = img }

// Manager is the virtual memory manager.
type Manager struct {
	mu      sync.Mutex
	mem     Backing
	sm      *core.SecureMemory // non-nil only when built by NewManager
	groups  int                // swap-placement groups of the backing
	frames  []frameInfo
	parked  slotOwners // owners of every occupied swap slot
	inUse   int        // frames currently allocated
	procs   map[PID]*Process
	swap    *SwapDevice
	tlb     *TLB
	nextPID PID
	fifo    []int // eviction order of allocated frames
	stats   Stats
	sink    Sink // nil when structural mutations are not journaled
}

// NewManager builds a VM manager over a secure memory. swapSlots bounds the
// swap device; it must not exceed the controller's SwapSlots when the
// scheme supports swapping.
func NewManager(sm *core.SecureMemory, swapSlots int) *Manager {
	m := NewManagerOver(singleBacking{sm}, swapSlots)
	m.sm = sm
	return m
}

// NewManagerOver builds a VM manager over any backing. slotsPerGroup
// bounds each swap-placement group's slice of the swap device; it must
// not exceed the backing's per-group Page Root Directory capacity when
// the scheme supports swapping.
func NewManagerOver(b Backing, slotsPerGroup int) *Manager {
	nframes := int(b.DataBytes() / layout.PageSize)
	groups := b.SwapGroups()
	if groups < 1 {
		groups = 1
	}
	return &Manager{
		mem:    b,
		groups: groups,
		frames: make([]frameInfo, nframes),
		parked: slotOwners{},
		procs:  make(map[PID]*Process),
		swap:   newGroupedSwapDevice(groups, slotsPerGroup),
		tlb:    NewTLB(64),
	}
}

// SetSink installs the journal sink observing structural mutations. Set it
// before the manager serves operations; replaying a journal requires every
// mutation since the snapshot to have been observed.
func (m *Manager) SetSink(s Sink) {
	m.mu.Lock()
	m.sink = s
	m.mu.Unlock()
}

// Stats returns a copy of the manager's counters plus TLB totals.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.TLBHits, st.TLBMisses = m.tlb.Hits, m.tlb.Misses
	st.FramesInUse = m.inUse
	return st
}

// ResidentPages reports how many physical frames are currently allocated.
func (m *Manager) ResidentPages() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inUse
}

// SwappedPages reports how many pages currently live on the swap device.
func (m *Manager) SwappedPages() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.swap.Used()
}

// Processes reports how many live address spaces the manager holds.
func (m *Manager) Processes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.procs)
}

// Swap exposes the swap device (the attack surface on disk). Callers own
// the consistency of concurrent tampering; the manager itself only touches
// the device under its mutex.
func (m *Manager) Swap() *SwapDevice { return m.swap }

// Memory exposes the underlying secure memory controller when the manager
// was built over one (nil when the backing is a service-layer adapter).
func (m *Manager) Memory() *core.SecureMemory { return m.sm }

// Process returns a live address space by PID, or nil.
func (m *Manager) Process(pid PID) *Process {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.procs[pid]
}

// NewProcess creates an empty address space.
func (m *Manager) NewProcess() *Process {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.newProcessLocked()
	if m.sink != nil {
		m.sink.ProcCreated(p.PID)
	}
	return p
}

func (m *Manager) newProcessLocked() *Process {
	m.nextPID++
	p := &Process{PID: m.nextPID}
	m.procs[p.PID] = p
	return p
}

// frameAddr returns the physical address of a frame.
func frameAddr(frame int) layout.Addr {
	return layout.Addr(uint64(frame) * layout.PageSize)
}

// groupOfFrame returns a frame's swap-placement group.
func (m *Manager) groupOfFrame(frame int) int { return frame % m.groups }

// allocFrame finds a free frame, evicting a victim to swap if none is
// free. group constrains the frame's swap-placement group; -1 means any
// (fresh pages and COW copies can land anywhere, but a swap-in must
// return to the group whose directory holds the page's root).
func (m *Manager) allocFrame(ctx context.Context, group int) (int, error) {
	for i := range m.frames {
		if !m.frames[i].used && (group < 0 || m.groupOfFrame(i) == group) {
			m.frames[i].used = true
			m.inUse++
			m.fifo = append(m.fifo, i)
			return i, nil
		}
	}
	if err := m.evictOne(ctx, group); err != nil {
		return 0, err
	}
	return m.allocFrame(ctx, group)
}

// freeFrame returns an allocated-but-unmapped frame (a failed operation's
// rollback path); the stale fifo entry is skipped by evictOne.
func (m *Manager) freeFrame(frame int) {
	m.frames[frame] = frameInfo{}
	m.inUse--
}

// evictOne pushes the oldest allocated, unpinned frame (of the given
// swap-placement group; -1 means any) to swap.
func (m *Manager) evictOne(ctx context.Context, group int) error {
	for i := 0; i < len(m.fifo); i++ {
		victim := m.fifo[i]
		if !m.frames[victim].used {
			m.dropFIFO(i) // a freed frame's stale entry
			i--
			continue
		}
		if m.frames[victim].pins > 0 || (group >= 0 && m.groupOfFrame(victim) != group) {
			continue // not now; it keeps its place in line
		}
		if err := m.swapOutFrame(ctx, victim); err != nil {
			return err
		}
		m.dropFIFO(i)
		return nil
	}
	return errors.New("vm: no evictable frame")
}

// dropFIFO removes the eviction queue's i-th entry.
func (m *Manager) dropFIFO(i int) {
	if i == 0 {
		m.fifo = m.fifo[1:]
		return
	}
	m.fifo = append(m.fifo[:i], m.fifo[i+1:]...)
}

// EvictOne swaps out the oldest evictable frame. The service layer's
// memory-pressure controller calls it to trim the resident set below its
// budget; an error means nothing could be evicted (all pinned, swap full,
// or the scheme does not support swap).
func (m *Manager) EvictOne() error { return m.EvictOneCtx(context.Background()) }

// EvictOneCtx is EvictOne carrying the caller's context into the backing.
func (m *Manager) EvictOneCtx(ctx context.Context) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evictOne(ctx, -1)
}

func (m *Manager) swapOutFrame(ctx context.Context, frame int) error {
	slot, err := m.swap.alloc(m.groupOfFrame(frame))
	if err != nil {
		return err
	}
	img, err := m.mem.SwapOut(ctx, frameAddr(frame), m.swap.localOf(slot))
	if err != nil {
		m.swap.release(slot)
		return fmt.Errorf("vm: swap-out of frame %d: %w", frame, err)
	}
	m.swap.slots[slot] = img
	for _, o := range m.frames[frame].owners {
		p := m.procs[o.pid]
		e := p.pages.get(o.vpn)
		e.present = false
		e.swapSlot = slot
		m.tlb.InvalidatePage(o.pid, o.vpn)
	}
	m.park(slot, frame)
	m.frames[frame] = frameInfo{}
	m.inUse--
	m.stats.SwapOuts++
	m.stats.Evictions++
	if m.sink != nil {
		m.sink.SwappedOut(frame, slot)
	}
	return nil
}

// park moves a frame's owners onto the swap slot its page went to; their
// PTEs already point at the slot.
func (m *Manager) park(slot, frame int) {
	if os := m.frames[frame].owners; len(os) > 0 {
		m.parked[slot] = os
	}
}

// unpark re-points every PTE parked on slot at frame, whose owners they
// become.
func (m *Manager) unpark(slot, frame int) {
	for _, o := range m.parked[slot] {
		pe := m.procs[o.pid].pages.get(o.vpn)
		pe.present = true
		pe.frame = frame
	}
	m.frames[frame].owners = append(m.frames[frame].owners, m.parked[slot]...)
	delete(m.parked, slot)
}

// swapInPage brings the page behind a PTE into a (possibly new) frame of
// the swap-placement group whose directory holds the page's root.
func (m *Manager) swapInPage(ctx context.Context, e *pte, o owner) error {
	img := m.swap.slots[e.swapSlot]
	if img == nil {
		return fmt.Errorf("vm: swap slot %d empty", e.swapSlot)
	}
	frame, err := m.allocFrame(ctx, m.swap.groupOf(e.swapSlot))
	if err != nil {
		return err
	}
	if err := m.mem.SwapIn(ctx, img, frameAddr(frame), m.swap.localOf(e.swapSlot)); err != nil {
		m.freeFrame(frame)
		return fmt.Errorf("vm: swap-in: %w", err)
	}
	slot := e.swapSlot
	// Re-point every mapping of this logical page (shared pages have
	// several owners parked on the same slot).
	m.unpark(slot, frame)
	if len(m.frames[frame].owners) == 0 {
		m.frames[frame].owners = append(m.frames[frame].owners, o)
	}
	m.swap.release(slot)
	m.stats.SwapIns++
	if m.sink != nil {
		m.sink.SwappedIn(slot, frame)
	}
	return nil
}

// Map allocates npages of fresh, zeroed, writable memory at vaddr.
func (m *Manager) Map(p *Process, vaddr uint64, npages int) error {
	return m.MapCtx(context.Background(), p, vaddr, npages)
}

// MapCtx is Map carrying the caller's context into the backing. Pages
// are mapped one at a time — allocate (evicting under pressure), zero
// through the processor outside the manager mutex against the pinned
// frame, then install and journal the page — so a mapping larger than
// physical memory spills its own cold pages to swap as it grows, and
// each journal record describes exactly one completed page (an eviction
// interleaving mid-map lands after the records of the pages it evicts).
func (m *Manager) MapCtx(ctx context.Context, p *Process, vaddr uint64, npages int) error {
	if vaddr%layout.PageSize != 0 {
		return fmt.Errorf("vm: vaddr %#x not page aligned", vaddr)
	}
	vpn := vaddr / layout.PageSize
	m.mu.Lock()
	for i := 0; i < npages; i++ {
		if e := p.pages.get(vpn + uint64(i)); e != nil && e.valid {
			m.mu.Unlock()
			return fmt.Errorf("vm: page %#x already mapped", (vpn+uint64(i))*layout.PageSize)
		}
	}
	m.mu.Unlock()

	// unwind releases pages 0..done-1 (journaled as unmaps) after a
	// failure; some may have been evicted already, which unmap handles.
	unwind := func(done int) {
		m.mu.Lock()
		for j := 0; j < done; j++ {
			if m.unmapLocked(p, (vpn+uint64(j))*layout.PageSize, 1) == nil && m.sink != nil {
				m.sink.Unmapped(p.PID, vpn+uint64(j), 1)
			}
		}
		m.mu.Unlock()
	}
	zero := make([]byte, layout.PageSize)
	for i := 0; i < npages; i++ {
		m.mu.Lock()
		frame, err := m.allocFrame(ctx, -1)
		if err != nil {
			m.mu.Unlock()
			unwind(i)
			return err
		}
		m.frames[frame].pins++
		m.mu.Unlock()

		// Zero the page through the processor so counters/MACs are fresh.
		zerr := m.mem.Write(ctx, frameAddr(frame), zero, core.Meta{VirtAddr: (vpn + uint64(i)) * layout.PageSize, PID: uint32(p.PID)})

		m.mu.Lock()
		m.frames[frame].pins--
		if zerr != nil {
			m.freeFrame(frame)
			m.mu.Unlock()
			unwind(i)
			return zerr
		}
		m.frames[frame].owners = []owner{{p.PID, vpn + uint64(i)}}
		p.pages.set(vpn+uint64(i), &pte{frame: frame, present: true, writable: true, valid: true})
		if m.sink != nil {
			m.sink.Mapped(p.PID, vpn+uint64(i), []int{frame})
		}
		m.mu.Unlock()
	}
	return nil
}

// Unmap releases a process's mapping of npages at vaddr, freeing frames
// whose last owner it was.
func (m *Manager) Unmap(p *Process, vaddr uint64, npages int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.unmapLocked(p, vaddr, npages); err != nil {
		return err
	}
	if m.sink != nil {
		m.sink.Unmapped(p.PID, vaddr/layout.PageSize, npages)
	}
	return nil
}

// unmapLocked validates the whole range before mutating anything, so a
// failure leaves the address space untouched and success is atomic — the
// granularity one journal record describes.
func (m *Manager) unmapLocked(p *Process, vaddr uint64, npages int) error {
	vpn := vaddr / layout.PageSize
	for i := 0; i < npages; i++ {
		e := p.pages.get(vpn + uint64(i))
		if e == nil || !e.valid {
			return fmt.Errorf("vm: page %#x not mapped", vaddr+uint64(i)*layout.PageSize)
		}
	}
	for i := 0; i < npages; i++ {
		e := p.pages.get(vpn + uint64(i))
		if e.present {
			m.dropOwner(e.frame, p.PID, vpn+uint64(i))
		} else if m.parked.drop(e.swapSlot, owner{p.PID, vpn + uint64(i)}) {
			// Last owner of a swapped page releases the slot.
			m.swap.release(e.swapSlot)
		}
		p.pages.set(vpn+uint64(i), nil)
		m.tlb.InvalidatePage(p.PID, vpn+uint64(i))
	}
	return nil
}

func (m *Manager) dropOwner(frame int, pid PID, vpn uint64) {
	f := &m.frames[frame]
	for i, o := range f.owners {
		if o.pid == pid && o.vpn == vpn {
			f.owners = append(f.owners[:i], f.owners[i+1:]...)
			break
		}
	}
	if len(f.owners) == 0 {
		*f = frameInfo{}
		m.inUse--
	}
}

// translateLocked resolves (process, vaddr) to a physical address and its
// frame, faulting in swapped pages and breaking COW on writes. Callers
// hold m.mu.
func (m *Manager) translateLocked(ctx context.Context, p *Process, vaddr uint64, write bool) (layout.Addr, int, error) {
	vpn := vaddr / layout.PageSize
	off := vaddr % layout.PageSize
	if frame, ok := m.tlb.Lookup(p.PID, vpn); ok {
		e := p.pages.get(vpn)
		if e != nil && e.valid && e.present && (!write || (e.writable && !e.cow)) {
			return frameAddr(frame) + layout.Addr(off), frame, nil
		}
		// TLB hit but permissions force the slow path (e.g. COW write).
		m.tlb.InvalidatePage(p.PID, vpn)
	}
	e := p.pages.get(vpn)
	if e == nil || !e.valid {
		return 0, 0, fmt.Errorf("vm: segmentation fault: pid %d vaddr %#x", p.PID, vaddr)
	}
	if !e.present {
		m.stats.PageFaults++
		if err := m.swapInPage(ctx, e, owner{p.PID, vpn}); err != nil {
			return 0, 0, err
		}
	}
	if write && !e.writable {
		return 0, 0, fmt.Errorf("vm: write to read-only page: pid %d vaddr %#x", p.PID, vaddr)
	}
	if write && e.cow && len(m.frames[e.frame].owners) > 1 {
		if err := m.breakCOW(ctx, p, vpn, e); err != nil {
			return 0, 0, err
		}
	} else if write && e.cow {
		// Sole remaining owner: reclaim the page as private. Not journaled:
		// a replayed table that still carries the cow bit reclaims it again
		// on its own next write, with identical observable behavior.
		e.cow = false
	}
	m.tlb.Insert(p.PID, vpn, e.frame)
	return frameAddr(e.frame) + layout.Addr(off), e.frame, nil
}

// breakCOW gives the writing process a private copy of a COW page. The copy
// passes through the processor: plaintext is read from the shared frame and
// written to the new frame, where it is re-encrypted under the new page's
// own counters.
func (m *Manager) breakCOW(ctx context.Context, p *Process, vpn uint64, e *pte) error {
	// Pin the source frame: allocating the private copy may need an
	// eviction, and the victim must never be the frame being copied.
	m.frames[e.frame].pins++
	defer func(f int) { m.frames[f].pins-- }(e.frame)
	newFrame, err := m.allocFrame(ctx, -1)
	if err != nil {
		return err
	}
	buf := make([]byte, layout.PageSize)
	meta := core.Meta{VirtAddr: vpn * layout.PageSize, PID: uint32(p.PID)}
	if err := m.mem.Read(ctx, frameAddr(e.frame), buf, meta); err != nil {
		m.freeFrame(newFrame)
		return fmt.Errorf("vm: COW read: %w", err)
	}
	if err := m.mem.Write(ctx, frameAddr(newFrame), buf, meta); err != nil {
		m.freeFrame(newFrame)
		return fmt.Errorf("vm: COW write: %w", err)
	}
	m.dropOwner(e.frame, p.PID, vpn)
	m.frames[newFrame].owners = []owner{{p.PID, vpn}}
	e.frame = newFrame
	e.cow = false
	e.writable = true
	m.stats.COWBreaks++
	if m.sink != nil {
		m.sink.COWBroken(p.PID, vpn, newFrame)
	}
	return nil
}

// Fork clones a process: all pages become copy-on-write mappings shared
// with the parent, the optimization §4.2 shows virtual-address seeds break.
// Pure bookkeeping — no backing traffic until a side writes.
func (m *Manager) Fork(parent *Process) *Process {
	m.mu.Lock()
	defer m.mu.Unlock()
	child := m.newProcessLocked()
	m.forkInto(parent, child)
	if m.sink != nil {
		m.sink.Forked(parent.PID, child.PID)
	}
	return child
}

func (m *Manager) forkInto(parent, child *Process) {
	parent.pages.walk(func(vpn uint64, e *pte) {
		if !e.valid {
			return
		}
		ce := *e
		if !e.shared {
			// Private pages become copy-on-write in both address spaces —
			// including pages currently on swap, whose sharers reattach to
			// one frame at fault-in and split on the first write.
			e.cow = true
			ce.cow = true
			m.tlb.InvalidatePage(parent.PID, vpn)
		}
		// Shared mappings stay shared (never COW): either way the child is
		// one more owner of the frame or slot, repointed with the rest when
		// the page moves.
		if e.present {
			m.frames[e.frame].owners = append(m.frames[e.frame].owners, owner{child.PID, vpn})
		} else {
			m.parked.add(e.swapSlot, owner{child.PID, vpn})
		}
		child.pages.set(vpn, &ce)
	})
}

// MapShared maps an existing page of src (at srcVaddr) into dst's address
// space at dstVaddr — mmap-style shared-memory IPC. Both processes see the
// same frame; writes are visible to both and never COW.
func (m *Manager) MapShared(src *Process, srcVaddr uint64, dst *Process, dstVaddr uint64) error {
	return m.MapSharedCtx(context.Background(), src, srcVaddr, dst, dstVaddr)
}

// MapSharedCtx is MapShared carrying the caller's context into the backing
// (the source page may need a fault-in).
func (m *Manager) MapSharedCtx(ctx context.Context, src *Process, srcVaddr uint64, dst *Process, dstVaddr uint64) error {
	if srcVaddr%layout.PageSize != 0 || dstVaddr%layout.PageSize != 0 {
		return errors.New("vm: shared mapping addresses must be page aligned")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	se := src.pages.get(srcVaddr / layout.PageSize)
	if se == nil || !se.valid {
		return fmt.Errorf("vm: source page %#x not mapped", srcVaddr)
	}
	dvpn := dstVaddr / layout.PageSize
	if e := dst.pages.get(dvpn); e != nil && e.valid {
		return fmt.Errorf("vm: destination page %#x already mapped", dstVaddr)
	}
	if !se.present {
		m.stats.PageFaults++
		if err := m.swapInPage(ctx, se, owner{src.PID, srcVaddr / layout.PageSize}); err != nil {
			return err
		}
	}
	// A source page still copy-on-write with a fork sibling must split
	// before it can be aliased: shared mappings are writable and never
	// COW-break, so aliasing the shared frame would let writes through
	// dst leak into the sibling's supposedly-private view.
	if se.cow && len(m.frames[se.frame].owners) > 1 {
		if err := m.breakCOW(ctx, src, srcVaddr/layout.PageSize, se); err != nil {
			return err
		}
	} else if se.cow {
		se.cow = false
	}
	se.shared = true
	dst.pages.set(dvpn, &pte{frame: se.frame, present: true, writable: true, shared: true, valid: true})
	m.frames[se.frame].owners = append(m.frames[se.frame].owners, owner{dst.PID, dvpn})
	m.tlb.InvalidatePage(src.PID, srcVaddr/layout.PageSize)
	if m.sink != nil {
		m.sink.Shared(src.PID, srcVaddr/layout.PageSize, dst.PID, dvpn)
	}
	return nil
}

// Migrate relocates the resident page at vaddr into a fresh frame of the
// same swap-placement group — hot-page migration through the backing's
// Move (verbatim metadata copy under AISE, forced re-encryption under
// physical-address seeds). Non-resident pages are faulted in first.
func (m *Manager) Migrate(p *Process, vaddr uint64) error {
	return m.MigrateCtx(context.Background(), p, vaddr)
}

// MigrateCtx is Migrate carrying the caller's context into the backing.
func (m *Manager) MigrateCtx(ctx context.Context, p *Process, vaddr uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := p.pages.get(vpnOf(vaddr))
	if e == nil || !e.valid {
		return fmt.Errorf("vm: page %#x not mapped", vaddr)
	}
	if !e.present {
		m.stats.PageFaults++
		if err := m.swapInPage(ctx, e, owner{p.PID, vpnOf(vaddr)}); err != nil {
			return err
		}
	}
	oldFrame := e.frame
	if m.frames[oldFrame].pins > 0 {
		// A concurrent read/write holds the frame for its data transfer;
		// moving it underneath would corrupt the in-flight I/O.
		return fmt.Errorf("vm: page %#x busy (pinned I/O in flight)", vaddr)
	}
	// The page's root lives in its group's directory; the new frame must
	// stay in the group (= the shard, under a pooled backing).
	m.frames[oldFrame].pins++
	newFrame, err := m.allocFrame(ctx, m.groupOfFrame(oldFrame))
	m.frames[oldFrame].pins--
	if err != nil {
		return err
	}
	if err := m.mem.Move(ctx, frameAddr(oldFrame), frameAddr(newFrame)); err != nil {
		m.freeFrame(newFrame)
		return fmt.Errorf("vm: migrate frame %d -> %d: %w", oldFrame, newFrame, err)
	}
	m.frames[newFrame].owners = m.frames[oldFrame].owners
	for _, o := range m.frames[newFrame].owners {
		pe := m.procs[o.pid].pages.get(o.vpn)
		pe.frame = newFrame
		m.tlb.InvalidatePage(o.pid, o.vpn)
	}
	m.frames[oldFrame] = frameInfo{}
	m.inUse--
	m.stats.Migrations++
	if m.sink != nil {
		m.sink.Migrated(oldFrame, newFrame)
	}
	return nil
}

// Read copies len(buf) bytes from the process's address space.
func (m *Manager) Read(p *Process, vaddr uint64, buf []byte) error {
	return m.ReadCtx(context.Background(), p, vaddr, buf)
}

// ReadCtx is Read carrying the caller's context into the backing. The
// per-page data transfer runs outside the manager mutex against a pinned
// frame, so independent address spaces overlap their backing reads.
func (m *Manager) ReadCtx(ctx context.Context, p *Process, vaddr uint64, buf []byte) error {
	return m.pageIO(ctx, p, vaddr, buf, false)
}

// Write copies len(buf) bytes into the process's address space.
func (m *Manager) Write(p *Process, vaddr uint64, buf []byte) error {
	return m.WriteCtx(context.Background(), p, vaddr, buf)
}

// WriteCtx is Write carrying the caller's context into the backing; see
// ReadCtx for the concurrency contract.
func (m *Manager) WriteCtx(ctx context.Context, p *Process, vaddr uint64, buf []byte) error {
	return m.pageIO(ctx, p, vaddr, buf, true)
}

func (m *Manager) pageIO(ctx context.Context, p *Process, vaddr uint64, buf []byte, write bool) error {
	for len(buf) > 0 {
		m.mu.Lock()
		pa, frame, err := m.translateLocked(ctx, p, vaddr, write)
		if err != nil {
			m.mu.Unlock()
			return err
		}
		m.frames[frame].pins++
		m.mu.Unlock()
		n := layout.PageSize - int(vaddr%layout.PageSize)
		if n > len(buf) {
			n = len(buf)
		}
		meta := core.Meta{VirtAddr: vaddr, PID: uint32(p.PID)}
		if write {
			err = m.mem.Write(ctx, pa, buf[:n], meta)
		} else {
			err = m.mem.Read(ctx, pa, buf[:n], meta)
		}
		m.mu.Lock()
		m.frames[frame].pins--
		m.mu.Unlock()
		if err != nil {
			return err
		}
		buf = buf[n:]
		vaddr += uint64(n)
	}
	return nil
}

// Exit tears down a process: every mapping is released, frames whose last
// owner it was are freed, and swap slots holding its last reference are
// recycled.
func (m *Manager) Exit(p *Process) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	vpns := make([]uint64, 0, p.pages.len())
	p.pages.walk(func(vpn uint64, e *pte) {
		if e.valid {
			vpns = append(vpns, vpn)
		}
	})
	for _, vpn := range vpns {
		if err := m.unmapLocked(p, vpn*layout.PageSize, 1); err != nil {
			return err
		}
	}
	delete(m.procs, p.PID)
	if m.sink != nil {
		m.sink.ProcExited(p.PID)
	}
	return nil
}

// Protect changes a page's writability (mprotect-style). Revoking write
// access also drops any TLB entry so the next write takes the slow path
// and faults.
func (m *Manager) Protect(p *Process, vaddr uint64, writable bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := p.pages.get(vpnOf(vaddr))
	if e == nil || !e.valid {
		return fmt.Errorf("vm: page %#x not mapped", vaddr)
	}
	e.writable = writable
	m.tlb.InvalidatePage(p.PID, vaddr/layout.PageSize)
	if m.sink != nil {
		m.sink.Protected(p.PID, vpnOf(vaddr), writable)
	}
	return nil
}

// ForceSwapOut evicts the frame backing a process page, for tests and
// demonstrations that need a page on disk deterministically.
func (m *Manager) ForceSwapOut(p *Process, vaddr uint64) error {
	return m.ForceSwapOutCtx(context.Background(), p, vaddr)
}

// ForceSwapOutCtx is ForceSwapOut carrying the caller's context.
func (m *Manager) ForceSwapOutCtx(ctx context.Context, p *Process, vaddr uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := p.pages.get(vpnOf(vaddr))
	if e == nil || !e.valid {
		return fmt.Errorf("vm: page %#x not mapped", vaddr)
	}
	if !e.present {
		return nil
	}
	if m.frames[e.frame].pins > 0 {
		// See MigrateCtx: vacating a frame under a pinned transfer would
		// hand the in-flight I/O another page's data.
		return fmt.Errorf("vm: page %#x busy (pinned I/O in flight)", vaddr)
	}
	return m.swapOutFrame(ctx, e.frame)
}

// IsResident reports whether a process page is currently in physical memory.
func (m *Manager) IsResident(p *Process, vaddr uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := p.pages.get(vpnOf(vaddr))
	return e != nil && e.valid && e.present
}

// SwapSlotOf returns the swap slot backing a non-resident page (for attack
// demonstrations), or -1.
func (m *Manager) SwapSlotOf(p *Process, vaddr uint64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := p.pages.get(vpnOf(vaddr))
	if e == nil || !e.valid || e.present {
		return -1
	}
	return e.swapSlot
}
