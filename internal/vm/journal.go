package vm

import (
	"fmt"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
)

// Sink observes every structural mutation of a Manager — everything that
// changes page-table shape, frame ownership or the swap directory, as
// opposed to plain data writes into resident private pages (which the
// backing's own WAL already makes durable). The tenant journal implements
// it to persist address spaces.
//
// Calls arrive under the manager mutex, in mutation order, after the
// mutation (including any backing traffic it required) has fully
// succeeded; a mutation that fails is never emitted. Implementations must
// not call back into the Manager.
type Sink interface {
	// ProcCreated: an empty address space pid now exists.
	ProcCreated(pid PID)
	// Mapped: npages = len(frames) fresh zeroed writable pages were mapped
	// at baseVPN, page i in frames[i].
	Mapped(pid PID, baseVPN uint64, frames []int)
	// Unmapped: npages at baseVPN were released.
	Unmapped(pid PID, baseVPN uint64, npages int)
	// ProcExited: pid's remaining mappings were released and it is gone.
	ProcExited(pid PID)
	// Forked: child is a COW clone of parent.
	Forked(parent, child PID)
	// Shared: src's page at srcVPN is now also mapped at (dst, dstVPN).
	Shared(src PID, srcVPN uint64, dst PID, dstVPN uint64)
	// Protected: the page's writable bit changed.
	Protected(pid PID, vpn uint64, writable bool)
	// SwappedOut: frame went to device-wide swap slot; every owner's PTE
	// is parked on the slot.
	SwappedOut(frame, slot int)
	// SwappedIn: the page parked on slot is resident again in frame.
	SwappedIn(slot, frame int)
	// COWBroken: (pid, vpn) received a private copy in newFrame.
	COWBroken(pid PID, vpn uint64, newFrame int)
	// Migrated: the page in oldFrame moved verbatim to newFrame.
	Migrated(oldFrame, newFrame int)
}

// The Replay* methods re-apply journaled structural mutations to a
// manager restored from a snapshot. They touch bookkeeping only — the
// backing's chip state was already rebuilt by the WAL — and they install
// recorded outcomes (frames, slots, PIDs) instead of re-choosing them, so
// a replayed manager converges on the exact live state. Errors mean the
// journal does not describe a history this snapshot can have produced;
// callers treat that as tampering and refuse recovery.

// ReplayProcCreated re-applies ProcCreated.
func (m *Manager) ReplayProcCreated(pid PID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.procs[pid]; ok {
		return fmt.Errorf("vm: replay: pid %d already exists", pid)
	}
	m.procs[pid] = &Process{PID: pid}
	if m.nextPID < pid {
		m.nextPID = pid
	}
	return nil
}

// ReplayMapped re-applies Mapped.
func (m *Manager) ReplayMapped(pid PID, baseVPN uint64, frames []int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.procs[pid]
	if p == nil {
		return fmt.Errorf("vm: replay: unknown pid %d", pid)
	}
	for i, frame := range frames {
		if frame < 0 || frame >= len(m.frames) {
			return fmt.Errorf("vm: replay: frame %d out of range", frame)
		}
		if m.frames[frame].used {
			return fmt.Errorf("vm: replay: frame %d already in use", frame)
		}
		vpn := baseVPN + uint64(i)
		if vpn >= maxVPN {
			return fmt.Errorf("vm: replay: page %d outside the address space", vpn)
		}
		if e := p.pages.get(vpn); e != nil && e.valid {
			return fmt.Errorf("vm: replay: page %d already mapped", vpn)
		}
		m.frames[frame] = frameInfo{used: true, owners: []owner{{pid, vpn}}}
		m.inUse++
		m.fifo = append(m.fifo, frame)
		p.pages.set(vpn, &pte{frame: frame, present: true, writable: true, valid: true})
	}
	return nil
}

// ReplayUnmapped re-applies Unmapped.
func (m *Manager) ReplayUnmapped(pid PID, baseVPN uint64, npages int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.procs[pid]
	if p == nil {
		return fmt.Errorf("vm: replay: unknown pid %d", pid)
	}
	return m.unmapLocked(p, baseVPN*layout.PageSize, npages)
}

// ReplayProcExited re-applies ProcExited.
func (m *Manager) ReplayProcExited(pid PID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.procs[pid]
	if p == nil {
		return fmt.Errorf("vm: replay: unknown pid %d", pid)
	}
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
	delete(m.procs, pid)
	return nil
}

// ReplayForked re-applies Forked, installing the recorded child PID.
func (m *Manager) ReplayForked(parent, child PID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	pp := m.procs[parent]
	if pp == nil {
		return fmt.Errorf("vm: replay: unknown parent pid %d", parent)
	}
	if _, ok := m.procs[child]; ok {
		return fmt.Errorf("vm: replay: child pid %d already exists", child)
	}
	cp := &Process{PID: child}
	m.procs[child] = cp
	if m.nextPID < child {
		m.nextPID = child
	}
	m.forkInto(pp, cp)
	return nil
}

// ReplayShared re-applies Shared. The source page is necessarily resident
// at this point of the history (a preceding SwappedIn record faulted it in).
func (m *Manager) ReplayShared(src PID, srcVPN uint64, dst PID, dstVPN uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	sp, dp := m.procs[src], m.procs[dst]
	if sp == nil || dp == nil {
		return fmt.Errorf("vm: replay: unknown pid %d or %d", src, dst)
	}
	se := sp.pages.get(srcVPN)
	if se == nil || !se.valid || !se.present {
		return fmt.Errorf("vm: replay: source page %d of pid %d not resident", srcVPN, src)
	}
	if dstVPN >= maxVPN {
		return fmt.Errorf("vm: replay: destination page %d outside the address space", dstVPN)
	}
	if e := dp.pages.get(dstVPN); e != nil && e.valid {
		return fmt.Errorf("vm: replay: destination page %d of pid %d already mapped", dstVPN, dst)
	}
	// Live MapShared splits a COW source before aliasing it; the multi-owner
	// split arrives here as its own COWBroken record, but the sole-owner
	// reclaim (cow bit simply dropped) is not journaled, so drop it now —
	// otherwise the next write through the source would COW-break away from
	// the alias the live history kept attached.
	se.cow = false
	se.shared = true
	dp.pages.set(dstVPN, &pte{frame: se.frame, present: true, writable: true, shared: true, valid: true})
	m.frames[se.frame].owners = append(m.frames[se.frame].owners, owner{dst, dstVPN})
	return nil
}

// ReplayProtected re-applies Protected.
func (m *Manager) ReplayProtected(pid PID, vpn uint64, writable bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.procs[pid]
	if p == nil {
		return fmt.Errorf("vm: replay: unknown pid %d", pid)
	}
	e := p.pages.get(vpn)
	if e == nil || !e.valid {
		return fmt.Errorf("vm: replay: page %d of pid %d not mapped", vpn, pid)
	}
	e.writable = writable
	return nil
}

// ReplaySwapOut re-applies SwappedOut, installing the image the WAL
// replay regenerated from chip state. A frame with no recorded owners is
// tolerated: it belongs to an unacknowledged operation's torn tail, whose
// page-table effects were never journaled.
func (m *Manager) ReplaySwapOut(frame, slot int, img *core.PageImage) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if frame < 0 || frame >= len(m.frames) {
		return fmt.Errorf("vm: replay: frame %d out of range", frame)
	}
	if img == nil {
		return fmt.Errorf("vm: replay: swap-out of frame %d has no image", frame)
	}
	if err := m.swap.allocSpecific(slot); err != nil {
		return fmt.Errorf("vm: replay: swap-out frame %d: %w", frame, err)
	}
	m.swap.slots[slot] = img
	for _, o := range m.frames[frame].owners {
		e := m.procs[o.pid].pages.get(o.vpn)
		e.present = false
		e.swapSlot = slot
	}
	m.park(slot, frame)
	if m.frames[frame].used {
		m.frames[frame] = frameInfo{}
		m.inUse--
	}
	m.stats.SwapOuts++
	m.stats.Evictions++
	return nil
}

// ReplaySwapIn re-applies SwappedIn: every PTE parked on the slot
// re-points to the frame and the slot is recycled.
func (m *Manager) ReplaySwapIn(slot, frame int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if frame < 0 || frame >= len(m.frames) {
		return fmt.Errorf("vm: replay: frame %d out of range", frame)
	}
	if m.frames[frame].used {
		return fmt.Errorf("vm: replay: swap-in target frame %d already in use", frame)
	}
	if m.swap.slots[slot] == nil {
		return fmt.Errorf("vm: replay: swap-in from empty slot %d", slot)
	}
	m.frames[frame] = frameInfo{used: true}
	m.inUse++
	m.fifo = append(m.fifo, frame)
	m.unpark(slot, frame)
	m.swap.release(slot)
	m.stats.SwapIns++
	m.stats.PageFaults++ // every live swap-in is a fault-in
	return nil
}

// ReplayCOWBroken re-applies COWBroken: (pid, vpn) leaves its shared
// frame for the recorded private one. The copied bytes themselves were
// re-applied by the WAL.
func (m *Manager) ReplayCOWBroken(pid PID, vpn uint64, newFrame int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.procs[pid]
	if p == nil {
		return fmt.Errorf("vm: replay: unknown pid %d", pid)
	}
	e := p.pages.get(vpn)
	if e == nil || !e.valid || !e.present {
		return fmt.Errorf("vm: replay: COW page %d of pid %d not resident", vpn, pid)
	}
	if newFrame < 0 || newFrame >= len(m.frames) || m.frames[newFrame].used {
		return fmt.Errorf("vm: replay: COW target frame %d unavailable", newFrame)
	}
	m.dropOwner(e.frame, pid, vpn)
	m.frames[newFrame] = frameInfo{used: true, owners: []owner{{pid, vpn}}}
	m.inUse++
	m.fifo = append(m.fifo, newFrame)
	e.frame = newFrame
	e.cow = false
	e.writable = true
	m.stats.COWBreaks++
	return nil
}

// ReplayMigrated re-applies Migrated: every owner of oldFrame re-points
// to newFrame.
func (m *Manager) ReplayMigrated(oldFrame, newFrame int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if oldFrame < 0 || oldFrame >= len(m.frames) || newFrame < 0 || newFrame >= len(m.frames) {
		return fmt.Errorf("vm: replay: migrate %d -> %d out of range", oldFrame, newFrame)
	}
	if m.frames[newFrame].used {
		return fmt.Errorf("vm: replay: migrate target frame %d already in use", newFrame)
	}
	m.frames[newFrame] = frameInfo{used: true, owners: m.frames[oldFrame].owners}
	m.inUse++
	m.fifo = append(m.fifo, newFrame)
	for _, o := range m.frames[newFrame].owners {
		m.procs[o.pid].pages.get(o.vpn).frame = newFrame
	}
	if m.frames[oldFrame].used {
		m.inUse--
	}
	m.frames[oldFrame] = frameInfo{}
	m.stats.Migrations++
	return nil
}
