package mem

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"aisebmt/internal/layout"
)

// mapMemory is the reference model of untrusted memory: one map entry and
// one heap block per 64-byte block ever stored, every multi-block access a
// loop of single-block ones. It is the memory model the page directory
// replaced, kept verbatim in behaviour as the differential oracle for
// TestMatchesMapOracle and FuzzMemoryOps.
type mapMemory struct {
	size     uint64
	blocks   map[layout.Addr]*Block
	Reads    uint64
	Writes   uint64
	Observer func(op string, addr layout.Addr)
}

func newMapMemory(size uint64) *mapMemory {
	return &mapMemory{size: size, blocks: make(map[layout.Addr]*Block)}
}

func (m *mapMemory) checkAddr(a layout.Addr) {
	if uint64(a) >= m.size {
		panic(fmt.Sprintf("mem: address %#x outside physical memory of %d bytes", a, m.size))
	}
}

func (m *mapMemory) ReadBlock(a layout.Addr, dst *Block) {
	a = a.BlockAddr()
	m.checkAddr(a)
	if b := m.blocks[a]; b == nil {
		*dst = Block{}
	} else {
		*dst = *b
	}
	m.Reads++
	if m.Observer != nil {
		m.Observer("read", a)
	}
}

func (m *mapMemory) WriteBlock(a layout.Addr, src *Block) {
	a = a.BlockAddr()
	m.checkAddr(a)
	b := m.blocks[a]
	if b == nil {
		b = &Block{}
		m.blocks[a] = b
	}
	*b = *src
	m.Writes++
	if m.Observer != nil {
		m.Observer("write", a)
	}
}

func (m *mapMemory) ReadBlocks(a layout.Addr, dst []Block) {
	for i := range dst {
		m.ReadBlock(a+layout.Addr(i*layout.BlockSize), &dst[i])
	}
}

func (m *mapMemory) WriteBlocks(a layout.Addr, src []Block) {
	for i := range src {
		m.WriteBlock(a+layout.Addr(i*layout.BlockSize), &src[i])
	}
}

func (m *mapMemory) Read(a layout.Addr, dst []byte) {
	for len(dst) > 0 {
		var blk Block
		m.ReadBlock(a, &blk)
		n := copy(dst, blk[int(a)&(layout.BlockSize-1):])
		dst = dst[n:]
		a += layout.Addr(n)
	}
}

func (m *mapMemory) Write(a layout.Addr, src []byte) {
	for len(src) > 0 {
		var blk Block
		m.ReadBlock(a, &blk)
		n := copy(blk[int(a)&(layout.BlockSize-1):], src)
		m.WriteBlock(a, &blk)
		src = src[n:]
		a += layout.Addr(n)
	}
}

func (m *mapMemory) PopulatedBlocks() int { return len(m.blocks) }

func (m *mapMemory) Snapshot(a layout.Addr) Block {
	a = a.BlockAddr()
	m.checkAddr(a)
	if b := m.blocks[a]; b != nil {
		return *b
	}
	return Block{}
}

func (m *mapMemory) Tamper(a layout.Addr, b Block) {
	a = a.BlockAddr()
	m.checkAddr(a)
	m.blocks[a] = &b
}

func (m *mapMemory) TamperBytes(a layout.Addr, src []byte) {
	for len(src) > 0 {
		blk := m.Snapshot(a)
		n := copy(blk[int(a)&(layout.BlockSize-1):], src)
		m.Tamper(a, blk)
		src = src[n:]
		a += layout.Addr(n)
	}
}

func (m *mapMemory) Serialize(w io.Writer) error {
	bw := bufio.NewWriter(w)
	addrs := make([]layout.Addr, 0, len(m.blocks))
	for a := range m.blocks {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], m.size)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(addrs)))
	bw.Write(memMagic[:])
	bw.Write(hdr[:])
	for _, a := range addrs {
		var ab [8]byte
		binary.LittleEndian.PutUint64(ab[:], uint64(a))
		bw.Write(ab[:])
		bw.Write(m.blocks[a][:])
	}
	return bw.Flush()
}

func (m *mapMemory) Deserialize(r io.Reader) error {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || magic != memMagic {
		return ErrBadImage
	}
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return ErrBadImage
	}
	size := binary.LittleEndian.Uint64(hdr[0:8])
	count := binary.LittleEndian.Uint64(hdr[8:16])
	if size != m.size || count > size/layout.BlockSize {
		return ErrBadImage
	}
	for i := uint64(0); i < count; i++ {
		var ab [8]byte
		if _, err := io.ReadFull(br, ab[:]); err != nil {
			return ErrBadImage
		}
		a := layout.Addr(binary.LittleEndian.Uint64(ab[:]))
		if uint64(a) >= m.size || a != a.BlockAddr() {
			return ErrBadImage
		}
		var blk Block
		if _, err := io.ReadFull(br, blk[:]); err != nil {
			return ErrBadImage
		}
		m.Tamper(a, blk)
	}
	return nil
}

// deserializeReader is the per-record reader loop Memory.Deserialize ran
// before it read whole records a chunk at a time: two io.ReadFull calls
// per record through a bufio.Reader. It is the oracle FuzzDeserialize
// holds the chunked decoder to.
func deserializeReader(m *Memory, r io.Reader) error {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("%w: missing header: %v", ErrBadImage, err)
	}
	if magic != memMagic {
		return fmt.Errorf("%w: bad magic", ErrBadImage)
	}
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("%w: truncated header: %v", ErrBadImage, err)
	}
	size := binary.LittleEndian.Uint64(hdr[0:8])
	count := binary.LittleEndian.Uint64(hdr[8:16])
	if size != m.size {
		return fmt.Errorf("%w: image is for a %d-byte memory, this one is %d bytes", ErrBadImage, size, m.size)
	}
	if count > size/layout.BlockSize {
		return fmt.Errorf("%w: block count %d exceeds capacity", ErrBadImage, count)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var ab [8]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, ab[:]); err != nil {
			return fmt.Errorf("%w: truncated at block %d: %v", ErrBadImage, i, err)
		}
		a := layout.Addr(binary.LittleEndian.Uint64(ab[:]))
		if uint64(a) >= m.size || a != a.BlockAddr() {
			return fmt.Errorf("%w: bad block address %#x", ErrBadImage, a)
		}
		var blk Block
		if _, err := io.ReadFull(br, blk[:]); err != nil {
			return fmt.Errorf("%w: truncated block %d: %v", ErrBadImage, i, err)
		}
		*m.store(a) = blk
	}
	return nil
}
