package mem

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"aisebmt/internal/layout"
)

// Serialization of a physical memory image, used by the hibernation path:
// the image is written to untrusted storage, so restores verify contents
// against the on-chip tree root afterwards. Format: 8-byte magic, memory
// size, populated-block count, then (address, 64-byte block) pairs in
// address order.

var memMagic = [8]byte{'A', 'I', 'S', 'E', 'M', 'E', 'M', '1'}

// ErrBadImage reports a malformed memory image.
var ErrBadImage = errors.New("mem: malformed memory image")

// Serialize writes the memory's populated blocks to w. It walks the
// written masks page by page under one read lock, so the image is one
// consistent cut even while an attacker tampers concurrently.
func (m *Memory) Serialize(w io.Writer) error {
	bw := bufio.NewWriter(w)
	m.mu.RLock()
	defer m.mu.RUnlock()
	var hdr [24]byte
	copy(hdr[0:8], memMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:16], m.size)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(m.populated))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [8 + layout.BlockSize]byte
	for pi, mask := range m.written {
		for ; mask != 0; mask &= mask - 1 {
			bi := bits.TrailingZeros64(mask)
			binary.LittleEndian.PutUint64(rec[:8], uint64(pi)*layout.PageSize+uint64(bi)*layout.BlockSize)
			copy(rec[8:], m.pages[pi][bi][:])
			if _, err := bw.Write(rec[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Deserialize loads an image into this memory, which must have the same
// size and be otherwise unused. Existing blocks are replaced. The blocks
// are installed under one write lock: a direct store, not program traffic.
func (m *Memory) Deserialize(r io.Reader) error {
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
