// Package counter implements the encryption-counter organizations the paper
// compares:
//
//   - the split-counter organization used by AISE, in which each 4KB page
//     owns one 64-byte counter block holding a 64-bit Logical Page
//     IDentifier (LPID) and 64 seven-bit minor counters, with LPIDs drawn
//     from a non-volatile on-chip Global Page Counter (GPC);
//   - the monolithic global-counter organization (32- or 64-bit), which
//     stores the counter value used for each block's most recent encryption
//     alongside the data and must re-encrypt the entire memory when the
//     counter wraps;
//   - plain per-block counters, the building block of the address-based
//     baseline schemes.
//
// All counter state lives in the untrusted memory's counter region, so the
// integrity engines can protect it and attackers can tamper with it.
package counter

import (
	"encoding/binary"
	"fmt"

	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

// GPC is the Global Page Counter: a 64-bit monotone counter held in
// non-volatile on-chip storage. Values it hands out become LPIDs and are
// never reused, even across reboots — Save and Restore model the
// non-volatile persistence.
type GPC struct {
	next uint64
}

// NewGPC returns a GPC starting at 1 (LPID 0 is reserved to mean
// "never assigned").
func NewGPC() *GPC { return &GPC{next: 1} }

// Next returns a fresh, never-before-issued LPID.
func (g *GPC) Next() uint64 {
	v := g.next
	g.next++
	return v
}

// Value returns the next value without consuming it.
func (g *GPC) Value() uint64 { return g.next }

// Save serializes the GPC to its non-volatile image.
func (g *GPC) Save() [8]byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], g.next)
	return b
}

// Restore loads the GPC from a non-volatile image, modeling a reboot. A
// restored GPC never moves backwards: restoring an older image than the
// current state is a simulation error and panics, because it would violate
// the paper's seed-uniqueness guarantee.
func (g *GPC) Restore(img [8]byte) {
	v := binary.BigEndian.Uint64(img[:])
	if v < g.next && g.next != 1 {
		panic("counter: GPC restore would move backwards; non-volatility violated")
	}
	g.next = v
}

// Block is the split-counter organization's per-page counter block: one
// LPID plus a 7-bit minor counter for each of the page's 64 data blocks.
// It serializes to exactly one 64-byte memory block (8 LPID bytes followed
// by 64 counters packed 7 bits each into 56 bytes).
type Block struct {
	LPID  uint64
	Minor [layout.BlocksPerPage]uint8
}

// minorGroups is how many 8-counter groups a block holds: eight 7-bit
// counters fill exactly seven bytes, so the codec moves one group per
// 56-bit shift register instead of one bit at a time.
const minorGroups = layout.BlocksPerPage / 8

// Encode packs the counter block into a 64-byte memory block.
func (cb *Block) Encode() mem.Block {
	var out mem.Block
	binary.BigEndian.PutUint64(out[:8], cb.LPID)
	for g := 0; g < minorGroups; g++ {
		var v uint64
		for _, c := range cb.Minor[g*8 : g*8+8] {
			v = v<<7 | uint64(c&layout.MinorCounterMax)
		}
		o := out[8+g*7 : 8+g*7+7]
		for i := range o {
			o[i] = byte(v >> uint(48-8*i))
		}
	}
	return out
}

// DecodeBlock unpacks a 64-byte memory block into a counter block.
func DecodeBlock(in mem.Block) Block {
	var cb Block
	cb.LPID = binary.BigEndian.Uint64(in[:8])
	for g := 0; g < minorGroups; g++ {
		var v uint64
		for _, b := range in[8+g*7 : 8+g*7+7] {
			v = v<<8 | uint64(b)
		}
		m := cb.Minor[g*8 : g*8+8]
		for i := range m {
			m[i] = uint8(v>>uint(49-7*i)) & layout.MinorCounterMax
		}
	}
	return cb
}

// Bump advances the minor counter of the page's idx-th block in place and
// reports whether it overflowed. On overflow the block resets under a
// fresh LPID with every other minor counter cleared; the caller must
// re-encrypt the page (§4.3).
func (cb *Block) Bump(idx int, gpc *GPC) (overflowed bool) {
	if cb.Minor[idx] == layout.MinorCounterMax {
		*cb = Block{LPID: gpc.Next()}
		cb.Minor[idx] = 1
		return true
	}
	cb.Minor[idx]++
	return false
}

// SplitStore manages AISE split-counter blocks in the memory's counter
// region: the i-th data page's counters live at the i-th 64-byte block of
// the region (directly indexable, as §4.3 requires).
type SplitStore struct {
	Mem *mem.Memory
	Reg layout.Regions
	GPC *GPC
}

// NewSplitStore creates a split-counter store over the memory's counter
// region.
func NewSplitStore(m *mem.Memory, reg layout.Regions, gpc *GPC) *SplitStore {
	return &SplitStore{Mem: m, Reg: reg, GPC: gpc}
}

// BlockAddr returns the counter-block address for the page containing the
// data address.
func (s *SplitStore) BlockAddr(data layout.Addr) layout.Addr {
	return s.Reg.CounterBlockAddr(data)
}

// Load fetches and decodes the counter block covering the data address.
func (s *SplitStore) Load(data layout.Addr) Block {
	var raw mem.Block
	s.Mem.ReadBlock(s.BlockAddr(data), &raw)
	return DecodeBlock(raw)
}

// Store encodes and writes the counter block covering the data address.
func (s *SplitStore) Store(data layout.Addr, cb Block) {
	raw := cb.Encode()
	s.Mem.WriteBlock(s.BlockAddr(data), &raw)
}

// EnsureLPID assigns a fresh LPID to the page containing data if it has
// none yet (first allocation), returning the page's counter block.
func (s *SplitStore) EnsureLPID(data layout.Addr) Block {
	cb := s.Load(data)
	if cb.LPID == 0 {
		cb.LPID = s.GPC.Next()
		s.Store(data, cb)
	}
	return cb
}

// Increment bumps the minor counter of the data block containing data,
// returning the updated counter block and whether the minor counter
// overflowed (see Block.Bump).
func (s *SplitStore) Increment(data layout.Addr) (cb Block, overflowed bool) {
	_, cb, overflowed = s.Bump(data)
	return cb, overflowed
}

// Bump is Increment with visibility into the pre-increment state: it
// returns the counter block before and after the update, the old one being
// what a page is decrypted under when its re-encryption is due.
func (s *SplitStore) Bump(data layout.Addr) (old, new Block, overflowed bool) {
	old = s.EnsureLPID(data)
	new = old
	overflowed = new.Bump(data.BlockInPage(), s.GPC)
	s.Store(data, new)
	return old, new, overflowed
}

// GlobalStore is the monolithic global-counter organization: one on-chip
// counter incremented on every writeback, with the value used for each
// block's latest encryption stored per block in the counter region.
type GlobalStore struct {
	Mem  *mem.Memory
	Base layout.Addr
	Bits int // 32 or 64

	value uint64
	wraps uint64
}

// NewGlobalStore creates a global counter store of the given width whose
// per-block stored counters begin at base.
func NewGlobalStore(m *mem.Memory, base layout.Addr, bits int) (*GlobalStore, error) {
	if bits != 32 && bits != 64 {
		return nil, fmt.Errorf("counter: global counter width must be 32 or 64, got %d", bits)
	}
	return &GlobalStore{Mem: m, Base: base, Bits: bits}, nil
}

// Next increments the global counter and returns the value to use for the
// current writeback, along with whether the counter wrapped. A wrap forces
// a key change and whole-memory re-encryption (§4.1).
func (g *GlobalStore) Next() (v uint64, wrapped bool) {
	g.value++
	if g.Bits == 32 && g.value >= 1<<32 {
		g.value = 1
		g.wraps++
		return g.value, true
	}
	if g.Bits == 64 && g.value == 0 {
		g.value = 1
		g.wraps++
		return g.value, true
	}
	return g.value, false
}

// Wraps returns how many times the counter has wrapped.
func (g *GlobalStore) Wraps() uint64 { return g.wraps }

// Jump advances the global counter to the given value, simulating a long
// period of uptime. It never moves the counter backwards.
func (g *GlobalStore) Jump(v uint64) {
	if v > g.value {
		g.value = v
	}
}

// slotAddr returns where the stored counter for a data block lives.
func (g *GlobalStore) slotAddr(data layout.Addr) layout.Addr {
	blk := uint64(data) / layout.BlockSize
	return g.Base + layout.Addr(blk*uint64(g.Bits/8))
}

// StoredBytesPerBlock returns the per-data-block counter storage in bytes.
func (g *GlobalStore) StoredBytesPerBlock() int { return g.Bits / 8 }

// SetStored records the counter value used to encrypt the data block.
func (g *GlobalStore) SetStored(data layout.Addr, v uint64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	g.Mem.Write(g.slotAddr(data), buf[8-g.Bits/8:])
}

// Stored returns the counter value recorded for the data block.
func (g *GlobalStore) Stored(data layout.Addr) uint64 {
	var full [8]byte
	g.Mem.Read(g.slotAddr(data), full[8-g.Bits/8:])
	return binary.BigEndian.Uint64(full[:])
}

// PerBlockStore keeps an independent monotone counter per data block, the
// organization used by the address-based baseline seeds. Counters are
// stored in the counter region like global counters.
type PerBlockStore struct {
	g GlobalStore // reuse slot layout; value/wraps unused
}

// NewPerBlockStore creates a per-block counter store of the given width.
func NewPerBlockStore(m *mem.Memory, base layout.Addr, bits int) (*PerBlockStore, error) {
	gs, err := NewGlobalStore(m, base, bits)
	if err != nil {
		return nil, err
	}
	return &PerBlockStore{g: *gs}, nil
}

// Get returns the data block's current counter.
func (p *PerBlockStore) Get(data layout.Addr) uint64 { return p.g.Stored(data) }

// Increment bumps the data block's counter, reporting overflow (which
// forces re-encryption of the block's page under address-based schemes).
func (p *PerBlockStore) Increment(data layout.Addr) (v uint64, overflowed bool) {
	v = p.g.Stored(data) + 1
	if p.g.Bits == 32 && v >= 1<<32 {
		v = 1
		overflowed = true
	}
	if p.g.Bits == 64 && v == 0 {
		v = 1
		overflowed = true
	}
	p.g.SetStored(data, v)
	return v, overflowed
}
