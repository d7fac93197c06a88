package vm

import (
	"encoding/binary"
	"fmt"
	"sort"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
)

// Snapshot/RestoreManager serialize a Manager's bookkeeping — page
// tables, the fifo eviction order, and the swap directory with its page
// images — for the tenant checkpoint. The backing's chip state is sealed
// separately (the shard hibernation images); a snapshot plus the journal
// of later structural mutations rebuilds the manager bit-exact.
//
// The encoding is deterministic (processes by PID, pages by VPN, slots
// ascending) so a digest over it is stable, and self-describing enough to
// refuse geometry mismatches fail-closed.

const (
	vmSnapMagic   = "SMVMSNP1"
	vmSnapVersion = 1

	pteFlagPresent  = 1 << 0
	pteFlagWritable = 1 << 1
	pteFlagCOW      = 1 << 2
	pteFlagShared   = 1 << 3
)

// Snapshot serializes the manager's bookkeeping. Call it only while no
// operation is in flight (the tenant layer freezes its ops first); pinned
// frames mean a caller broke that contract.
func (m *Manager) Snapshot() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.frames {
		if m.frames[i].pins > 0 {
			return nil, fmt.Errorf("vm: snapshot with frame %d pinned (operation in flight)", i)
		}
	}
	var out []byte
	out = append(out, vmSnapMagic...)
	out = append(out, vmSnapVersion)
	out = be32(out, uint32(m.nextPID))
	out = be32(out, uint32(m.groups))
	out = be64(out, uint64(len(m.frames)))
	out = be32(out, uint32(m.swap.slotsPerGroup))
	for _, v := range []uint64{m.stats.PageFaults, m.stats.SwapIns, m.stats.SwapOuts, m.stats.COWBreaks, m.stats.Evictions, m.stats.Migrations} {
		out = be64(out, v)
	}

	pids := make([]PID, 0, len(m.procs))
	for pid := range m.procs {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	out = be32(out, uint32(len(pids)))
	for _, pid := range pids {
		p := m.procs[pid]
		type ent struct {
			vpn uint64
			e   pte
		}
		ents := make([]ent, 0, p.pages.len())
		p.pages.walk(func(vpn uint64, e *pte) {
			if e.valid {
				ents = append(ents, ent{vpn, *e})
			}
		})
		sort.Slice(ents, func(i, j int) bool { return ents[i].vpn < ents[j].vpn })
		out = be32(out, uint32(pid))
		out = be32(out, uint32(len(ents)))
		for _, en := range ents {
			out = be64(out, en.vpn)
			var flags byte
			if en.e.present {
				flags |= pteFlagPresent
			}
			if en.e.writable {
				flags |= pteFlagWritable
			}
			if en.e.cow && m.sharers(&en.e) > 1 {
				// A copy-on-write page with no one left to share it behaves
				// exactly like a private one (its next write reclaims it
				// without copying, unjournaled), so it is encoded as one.
				flags |= pteFlagCOW
			}
			if en.e.shared {
				flags |= pteFlagShared
			}
			out = append(out, flags)
			out = be64(out, uint64(en.e.frame))
			out = be64(out, uint64(en.e.swapSlot))
		}
	}

	fifo := m.evictionOrder()
	out = be32(out, uint32(len(fifo)))
	for _, f := range fifo {
		out = be64(out, uint64(f))
	}

	slots := make([]int, 0, len(m.swap.slots))
	for s := range m.swap.slots {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	out = be32(out, uint32(len(slots)))
	for _, s := range slots {
		out = be64(out, uint64(s))
		img := encodePageImage(m.swap.slots[s])
		out = be32(out, uint32(len(img)))
		out = append(out, img...)
	}
	return out, nil
}

// sharers counts the mappings of e's page: the owners of its frame, or of
// the swap slot it is parked on.
func (m *Manager) sharers(e *pte) int {
	if e.present {
		return len(m.frames[e.frame].owners)
	}
	return len(m.parked[e.swapSlot])
}

// evictionOrder is the fifo as a snapshot records it: allocated frames
// only, each at its latest allocation. The live queue also holds entries
// of frames freed (and maybe reallocated) since, which evictOne skips or
// pops lazily; journal replay never pops, so the live and the replayed
// queue differ exactly there, and this form is the same for both.
func (m *Manager) evictionOrder() []int {
	seen := make(map[int]bool, m.inUse)
	out := make([]int, 0, m.inUse)
	for i := len(m.fifo) - 1; i >= 0; i-- {
		if f := m.fifo[i]; m.frames[f].used && !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// RestoreManager rebuilds a Manager over the given backing from a
// Snapshot. Frame ownership, residency counts and per-group free lists
// are derived from the page tables, so a snapshot cannot claim an
// inconsistent cross-section.
func RestoreManager(b Backing, slotsPerGroup int, snap []byte) (*Manager, error) {
	m := NewManagerOver(b, slotsPerGroup)
	r := &snapReader{b: snap}
	if string(r.bytes(8)) != vmSnapMagic {
		return nil, fmt.Errorf("vm: snapshot magic mismatch")
	}
	if v := r.u8(); v != vmSnapVersion {
		return nil, fmt.Errorf("vm: snapshot version %d unsupported", v)
	}
	m.nextPID = PID(r.u32())
	if g := int(r.u32()); g != m.groups {
		return nil, fmt.Errorf("vm: snapshot has %d swap groups, backing has %d", g, m.groups)
	}
	if n := r.u64(); n != uint64(len(m.frames)) {
		return nil, fmt.Errorf("vm: snapshot has %d frames, backing has %d", n, len(m.frames))
	}
	if s := int(r.u32()); s != slotsPerGroup {
		return nil, fmt.Errorf("vm: snapshot has %d slots per group, want %d", s, slotsPerGroup)
	}
	m.stats.PageFaults = r.u64()
	m.stats.SwapIns = r.u64()
	m.stats.SwapOuts = r.u64()
	m.stats.COWBreaks = r.u64()
	m.stats.Evictions = r.u64()
	m.stats.Migrations = r.u64()

	nprocs := int(r.u32())
	for i := 0; i < nprocs && r.err == nil; i++ {
		pid := PID(r.u32())
		if _, dup := m.procs[pid]; dup {
			return nil, fmt.Errorf("vm: snapshot lists pid %d twice", pid)
		}
		p := &Process{PID: pid}
		nents := int(r.u32())
		for j := 0; j < nents && r.err == nil; j++ {
			vpn := r.u64()
			if p.pages.get(vpn) != nil {
				return nil, fmt.Errorf("vm: snapshot maps page %d of pid %d twice", vpn, pid)
			}
			flags := r.u8()
			frame := int(r.u64())
			slot := int(r.u64())
			e := &pte{
				frame:    frame,
				present:  flags&pteFlagPresent != 0,
				writable: flags&pteFlagWritable != 0,
				cow:      flags&pteFlagCOW != 0,
				shared:   flags&pteFlagShared != 0,
				swapSlot: slot,
				valid:    true,
			}
			if vpn >= maxVPN {
				return nil, fmt.Errorf("vm: snapshot page %d outside the address space", vpn)
			}
			if e.present {
				if frame < 0 || frame >= len(m.frames) {
					return nil, fmt.Errorf("vm: snapshot frame %d out of range", frame)
				}
				if !m.frames[frame].used {
					m.frames[frame].used = true
					m.inUse++
				}
				m.frames[frame].owners = append(m.frames[frame].owners, owner{pid, vpn})
			} else {
				m.parked.add(slot, owner{pid, vpn})
			}
			p.pages.set(vpn, e)
		}
		m.procs[pid] = p
	}

	nfifo := int(r.u32())
	for i := 0; i < nfifo && r.err == nil; i++ {
		f := r.u64()
		if f >= uint64(len(m.frames)) {
			return nil, fmt.Errorf("vm: snapshot evicts frame %d out of range", f)
		}
		m.fifo = append(m.fifo, int(f))
	}

	nslots := int(r.u32())
	for i := 0; i < nslots && r.err == nil; i++ {
		slot := int(r.u64())
		img, err := decodePageImage(r.bytes(int(r.u32())))
		if err != nil {
			return nil, err
		}
		if r.err != nil {
			break
		}
		if err := m.swap.allocSpecific(slot); err != nil {
			return nil, fmt.Errorf("vm: snapshot swap %w", err)
		}
		m.swap.slots[slot] = img
	}
	if r.err != nil {
		return nil, fmt.Errorf("vm: truncated snapshot")
	}
	if r.off != len(snap) {
		return nil, fmt.Errorf("vm: %d trailing bytes after snapshot", len(snap)-r.off)
	}
	return m, nil
}

func be32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func be64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

type snapReader struct {
	b   []byte
	off int
	err error
}

func (r *snapReader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		if r.err == nil {
			r.err = fmt.Errorf("vm: snapshot truncated")
		}
		return make([]byte, n&0xffff)
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *snapReader) u8() byte    { return r.bytes(1)[0] }
func (r *snapReader) u32() uint32 { return binary.BigEndian.Uint32(r.bytes(4)) }
func (r *snapReader) u64() uint64 { return binary.BigEndian.Uint64(r.bytes(8)) }

// encodePageImage flattens a swap image: data blocks, counter block, then
// the length-prefixed MAC section (the same shape the wire layer uses).
func encodePageImage(img *core.PageImage) []byte {
	out := make([]byte, 0, layout.PageSize+layout.BlockSize+4+len(img.MACs))
	for i := range img.Data {
		out = append(out, img.Data[i][:]...)
	}
	out = append(out, img.Counters[:]...)
	out = be32(out, uint32(len(img.MACs)))
	out = append(out, img.MACs...)
	return out
}

func decodePageImage(b []byte) (*core.PageImage, error) {
	fixed := layout.PageSize + layout.BlockSize + 4
	if len(b) < fixed {
		return nil, fmt.Errorf("vm: page image of %d bytes too short", len(b))
	}
	img := &core.PageImage{}
	for i := range img.Data {
		copy(img.Data[i][:], b[i*layout.BlockSize:])
	}
	copy(img.Counters[:], b[layout.PageSize:])
	n := binary.BigEndian.Uint32(b[layout.PageSize+layout.BlockSize:])
	if uint64(len(b)) != uint64(fixed)+uint64(n) {
		return nil, fmt.Errorf("vm: page image declares %d MAC bytes, carries %d", n, len(b)-fixed)
	}
	img.MACs = append([]byte(nil), b[fixed:]...)
	return img, nil
}
