package integrity

import (
	"encoding/binary"
	"fmt"

	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

// DataMACStore holds the per-block data MACs of the Bonsai scheme. Each
// data block's MAC is computed over its ciphertext, its encryption counter
// (LPID and minor counter) and its block-within-page position:
//
//	M = HMAC_K(C ‖ LPID ‖ minor ‖ blockInPage)
//
// Binding the counter makes replay of (C, M, ctr) triples detectable once
// counter integrity is guaranteed by the Bonsai tree (the §5.2 claim), and
// binding position-within-page plus the globally unique LPID detects
// splicing while keeping MACs valid when the page moves between frames or
// to disk.
type DataMACStore struct {
	m        *mem.Memory
	mac      *macEngine // the per-tag engine
	macBits  int
	macBytes int
	base     layout.Addr // MAC region base
	dataBase layout.Addr // protected data region base

	// Scratch for the per-block hot path (message assembly and tag
	// buffers), so Update/Verify perform zero heap allocations. Stores
	// follow the controller's concurrency contract: not safe for
	// concurrent use.
	msg  [layout.BlockSize + 10]byte
	want [32]byte
	got  [32]byte

	// slots holds one page span's contiguous MAC slots, moved to or from
	// memory in one transfer by VerifySpan and UpdateSpan.
	slots [layout.BlocksPerPage * 32]byte

	// MACOps counts HMAC computations for the experiment harness.
	MACOps uint64
}

// NewDataMACStore creates a per-block MAC store for data blocks in
// [dataBase, …), with MAC i stored at base + i×macBytes.
func NewDataMACStore(m *mem.Memory, key []byte, macBits int, base, dataBase layout.Addr) (*DataMACStore, error) {
	g, err := layout.Geometry(macBits)
	if err != nil {
		return nil, err
	}
	s := &DataMACStore{m: m, macBits: macBits, macBytes: g.MACBytes, base: base, dataBase: dataBase}
	s.mac = newMACEngine(key)
	return s, nil
}

// SlotAddr returns where the MAC for the data block at a is stored.
func (s *DataMACStore) SlotAddr(a layout.Addr) layout.Addr {
	blk := uint64(a.BlockAddr()-s.dataBase) / layout.BlockSize
	return s.base + layout.Addr(blk*uint64(s.macBytes))
}

// computeInto assembles the MAC message in per-store scratch and writes the
// tag into dst (len macBytes) without allocating.
func (s *DataMACStore) computeInto(dst []byte, ct *mem.Block, lpid uint64, minor uint8, blockInPage int) {
	copy(s.msg[:], ct[:])
	binary.BigEndian.PutUint64(s.msg[layout.BlockSize:], lpid)
	s.msg[layout.BlockSize+8] = minor
	s.msg[layout.BlockSize+9] = uint8(blockInPage)
	s.mac.sizedInto(dst, s.msg[:], s.macBits)
	s.MACOps++
}

// Update recomputes and stores the MAC for the data block at a with
// ciphertext ct encrypted under (lpid, minor).
func (s *DataMACStore) Update(a layout.Addr, ct *mem.Block, lpid uint64, minor uint8) {
	mac := s.want[:s.macBytes]
	s.computeInto(mac, ct, lpid, minor, a.BlockInPage())
	s.m.Write(s.SlotAddr(a), mac)
}

// Verify checks the stored MAC for the data block at a against ciphertext
// ct and counter (lpid, minor). A mismatch is reported as an *Error with
// Level -1 (data MAC, outside the tree).
func (s *DataMACStore) Verify(a layout.Addr, ct *mem.Block, lpid uint64, minor uint8) error {
	want := s.want[:s.macBytes]
	s.computeInto(want, ct, lpid, minor, a.BlockInPage())
	got := s.got[:s.macBytes]
	s.m.Read(s.SlotAddr(a), got)
	if !macEqual(want, got) {
		return &Error{Addr: a, Level: -1, Node: s.SlotAddr(a)}
	}
	return nil
}

// VerifySpan checks a run of consecutive data blocks of one page: cts[i] is
// the ciphertext of the block at first + i blocks, encrypted under (lpid,
// minors[its block-in-page]). The run's MAC slots are contiguous and are
// read in one transfer, so each MAC block crosses the bus once, not once
// per slot. The first mismatch in address order is reported exactly as
// Verify reports it.
func (s *DataMACStore) VerifySpan(first layout.Addr, cts []mem.Block, lpid uint64, minors *[layout.BlocksPerPage]uint8) error {
	slots := s.slots[:len(cts)*s.macBytes]
	s.m.Read(s.SlotAddr(first), slots)
	want := s.want[:s.macBytes]
	for i := range cts {
		a := first + layout.Addr(i*layout.BlockSize)
		bip := a.BlockInPage()
		s.computeInto(want, &cts[i], lpid, minors[bip], bip)
		if !macEqual(want, slots[i*s.macBytes:(i+1)*s.macBytes]) {
			return &Error{Addr: a, Level: -1, Node: s.SlotAddr(a)}
		}
	}
	return nil
}

// UpdateSpan recomputes the MACs of a run of consecutive data blocks of one
// page, laid out as in VerifySpan, and stores them in one transfer.
func (s *DataMACStore) UpdateSpan(first layout.Addr, cts []mem.Block, lpid uint64, minors *[layout.BlocksPerPage]uint8) {
	slots := s.slots[:len(cts)*s.macBytes]
	for i := range cts {
		bip := (first + layout.Addr(i*layout.BlockSize)).BlockInPage()
		s.computeInto(slots[i*s.macBytes:(i+1)*s.macBytes], &cts[i], lpid, minors[bip], bip)
	}
	s.m.Write(s.SlotAddr(first), slots)
}

// MACOnlyStore is the XOM-style baseline: one MAC per block over
// (ciphertext ‖ physical address). It detects spoofing and splicing but an
// attacker who rolls back both the block and its MAC replays old data
// undetected — the weakness Merkle trees close.
type MACOnlyStore struct {
	m        *mem.Memory
	mac      *macEngine
	macBits  int
	macBytes int
	base     layout.Addr
	dataBase layout.Addr

	// Scratch for the per-block hot path; see DataMACStore.
	msg  [layout.BlockSize + 8]byte
	want [32]byte
	got  [32]byte

	// MACOps counts HMAC computations for the experiment harness.
	MACOps uint64
}

// NewMACOnlyStore creates the address-bound per-block MAC baseline.
func NewMACOnlyStore(m *mem.Memory, key []byte, macBits int, base, dataBase layout.Addr) (*MACOnlyStore, error) {
	g, err := layout.Geometry(macBits)
	if err != nil {
		return nil, err
	}
	s := &MACOnlyStore{m: m, macBits: macBits, macBytes: g.MACBytes, base: base, dataBase: dataBase}
	s.mac = newMACEngine(key)
	return s, nil
}

// SlotAddr returns where the MAC for the data block at a is stored.
func (s *MACOnlyStore) SlotAddr(a layout.Addr) layout.Addr {
	blk := uint64(a.BlockAddr()-s.dataBase) / layout.BlockSize
	return s.base + layout.Addr(blk*uint64(s.macBytes))
}

// computeInto assembles the MAC message in per-store scratch and writes the
// tag into dst (len macBytes) without allocating.
func (s *MACOnlyStore) computeInto(dst []byte, a layout.Addr, ct *mem.Block) {
	copy(s.msg[:], ct[:])
	binary.BigEndian.PutUint64(s.msg[layout.BlockSize:], uint64(a.BlockAddr()))
	s.mac.sizedInto(dst, s.msg[:], s.macBits)
	s.MACOps++
}

// Update stores the MAC for the block at a.
func (s *MACOnlyStore) Update(a layout.Addr, ct *mem.Block) {
	mac := s.want[:s.macBytes]
	s.computeInto(mac, a, ct)
	s.m.Write(s.SlotAddr(a), mac)
}

// Verify checks the block at a against its stored MAC.
func (s *MACOnlyStore) Verify(a layout.Addr, ct *mem.Block) error {
	want := s.want[:s.macBytes]
	s.computeInto(want, a, ct)
	got := s.got[:s.macBytes]
	s.m.Read(s.SlotAddr(a), got)
	if !macEqual(want, got) {
		return &Error{Addr: a, Level: -1, Node: s.SlotAddr(a)}
	}
	return nil
}

// PageRootDirectory is the §5.1 structure: a region of physical memory that
// stores the page root MAC of each swapped-out page, indexed by swap slot.
// The directory region itself must be included among the Merkle tree's
// protected regions so the stored roots are tamper-evident.
type PageRootDirectory struct {
	m        *mem.Memory
	base     layout.Addr
	macBytes int
	slots    int
}

// NewPageRootDirectory creates a directory with the given number of swap
// slots. Its memory footprint is Slots()×macBytes, rounded up to blocks by
// the caller's layout.
func NewPageRootDirectory(m *mem.Memory, base layout.Addr, macBits, slots int) (*PageRootDirectory, error) {
	g, err := layout.Geometry(macBits)
	if err != nil {
		return nil, err
	}
	return &PageRootDirectory{m: m, base: base, macBytes: g.MACBytes, slots: slots}, nil
}

// Slots returns the directory capacity.
func (d *PageRootDirectory) Slots() int { return d.slots }

// Bytes returns the directory's memory footprint.
func (d *PageRootDirectory) Bytes() uint64 { return uint64(d.slots * d.macBytes) }

// SlotAddr returns the physical address of a slot's stored root.
func (d *PageRootDirectory) SlotAddr(slot int) layout.Addr {
	return d.base + layout.Addr(slot*d.macBytes)
}

// Install writes a page root into a slot. The caller must afterwards update
// the covering Merkle tree for the directory block (the processor write
// path does this automatically in the core library).
func (d *PageRootDirectory) Install(slot int, root []byte) error {
	if slot < 0 || slot >= d.slots {
		return fmt.Errorf("integrity: directory slot %d out of range [0,%d)", slot, d.slots)
	}
	if len(root) != d.macBytes {
		return fmt.Errorf("integrity: page root is %d bytes, want %d", len(root), d.macBytes)
	}
	d.m.Write(d.SlotAddr(slot), root)
	return nil
}

// Lookup reads the page root stored in a slot.
func (d *PageRootDirectory) Lookup(slot int) ([]byte, error) {
	if slot < 0 || slot >= d.slots {
		return nil, fmt.Errorf("integrity: directory slot %d out of range [0,%d)", slot, d.slots)
	}
	out := make([]byte, d.macBytes)
	d.m.Read(d.SlotAddr(slot), out)
	return out, nil
}
