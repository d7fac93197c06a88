package integrity

import (
	"encoding/binary"
	"fmt"

	"aisebmt/internal/counter"
	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

// GroupMACStore implements the storage optimization §7.4 cites from
// Gassend et al.: one MAC covers a *group* of K consecutive data blocks
// instead of one, dividing MAC storage by K at the cost of reading the
// whole group to verify or update any member:
//
//	M = HMAC_K(C_0 ‖ … ‖ C_{K-1} ‖ LPID ‖ minors ‖ groupInPage)
//
// Coverage must be a power of two between 1 and the blocks-per-page count
// so a group never crosses a page (all members share one counter block).
type GroupMACStore struct {
	m        *mem.Memory
	mac      *macEngine
	macBits  int
	macBytes int
	base     layout.Addr
	dataBase layout.Addr
	coverage int

	// Scratch for the per-group hot path: the assembled message (sized once
	// in the constructor from coverage) and tag buffers, so Update/Verify
	// perform zero heap allocations. See DataMACStore for the concurrency
	// contract.
	msg  []byte
	want [32]byte
	got  [32]byte

	// MACOps counts HMAC computations; GroupReads counts the sibling block
	// fetches verification and update require.
	MACOps     uint64
	GroupReads uint64
}

// NewGroupMACStore creates a per-group MAC store with the given coverage.
func NewGroupMACStore(m *mem.Memory, key []byte, macBits int, base, dataBase layout.Addr, coverage int) (*GroupMACStore, error) {
	g, err := layout.Geometry(macBits)
	if err != nil {
		return nil, err
	}
	if coverage < 1 || coverage > layout.BlocksPerPage || coverage&(coverage-1) != 0 {
		return nil, fmt.Errorf("integrity: coverage %d must be a power of two in [1, %d]", coverage, layout.BlocksPerPage)
	}
	s := &GroupMACStore{m: m, macBits: macBits, macBytes: g.MACBytes,
		base: base, dataBase: dataBase, coverage: coverage,
		msg: make([]byte, 0, coverage*layout.BlockSize+8+coverage+1)}
	s.mac = newMACEngine(key)
	return s, nil
}

// Coverage returns the blocks-per-MAC factor.
func (s *GroupMACStore) Coverage() int { return s.coverage }

// StorageBytes returns the MAC storage needed for a data region.
func (s *GroupMACStore) StorageBytes(dataBytes uint64) uint64 {
	groups := dataBytes / layout.BlockSize / uint64(s.coverage)
	return groups * uint64(s.macBytes)
}

// groupBase returns the first block of the group containing a.
func (s *GroupMACStore) groupBase(a layout.Addr) layout.Addr {
	span := layout.Addr(s.coverage * layout.BlockSize)
	return s.dataBase + (a.BlockAddr()-s.dataBase)/span*span
}

// SlotAddr returns where the MAC for a's group is stored.
func (s *GroupMACStore) SlotAddr(a layout.Addr) layout.Addr {
	grp := uint64(s.groupBase(a)-s.dataBase) / layout.BlockSize / uint64(s.coverage)
	return s.base + layout.Addr(grp*uint64(s.macBytes))
}

// computeInto hashes the whole group's ciphertext plus its counters into
// dst (len macBytes), assembling the message in per-store scratch.
func (s *GroupMACStore) computeInto(dst []byte, a layout.Addr, cb counter.Block) {
	gb := s.groupBase(a)
	msg := s.msg[:0]
	firstIdx := gb.BlockInPage()
	for i := 0; i < s.coverage; i++ {
		var blk mem.Block
		s.m.ReadBlock(gb+layout.Addr(i*layout.BlockSize), &blk)
		if i > 0 {
			s.GroupReads++
		}
		msg = append(msg, blk[:]...)
	}
	var meta [8]byte
	binary.BigEndian.PutUint64(meta[:], cb.LPID)
	msg = append(msg, meta[:]...)
	for i := 0; i < s.coverage; i++ {
		msg = append(msg, cb.Minor[firstIdx+i])
	}
	msg = append(msg, uint8(firstIdx/s.coverage))
	s.mac.sizedInto(dst, msg, s.macBits)
	s.MACOps++
}

// Update recomputes and stores the MAC of a's group from current memory
// contents and the page's counter block.
func (s *GroupMACStore) Update(a layout.Addr, cb counter.Block) {
	mac := s.want[:s.macBytes]
	s.computeInto(mac, a, cb)
	s.m.Write(s.SlotAddr(a), mac)
}

// Verify checks a's group against its stored MAC.
func (s *GroupMACStore) Verify(a layout.Addr, cb counter.Block) error {
	want := s.want[:s.macBytes]
	s.computeInto(want, a, cb)
	got := s.got[:s.macBytes]
	s.m.Read(s.SlotAddr(a), got)
	if !macEqual(want, got) {
		return &Error{Addr: a, Level: -1, Node: s.SlotAddr(a)}
	}
	return nil
}
