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

// Deserialize reads an image from r to its end and loads it
// (DeserializeBytes).
func (m *Memory) Deserialize(r io.Reader) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("%w: read: %v", ErrBadImage, err)
	}
	return m.DeserializeBytes(b)
}

// DeserializeBytes loads the image in b into this memory, which must have
// the same size and be otherwise unused. Existing blocks are replaced, and
// bytes past the last record are ignored. Records are decoded straight
// from b and installed under one write lock: a direct store, not program
// traffic. A refused image leaves every whole record before the fault
// installed.
func (m *Memory) DeserializeBytes(b []byte) error {
	const hdrLen, recLen = 24, 8 + layout.BlockSize
	if len(b) < len(memMagic) {
		return fmt.Errorf("%w: missing header", ErrBadImage)
	}
	if [8]byte(b[:8]) != memMagic {
		return fmt.Errorf("%w: bad magic", ErrBadImage)
	}
	if len(b) < hdrLen {
		return fmt.Errorf("%w: truncated header", ErrBadImage)
	}
	size := binary.LittleEndian.Uint64(b[8:16])
	count := binary.LittleEndian.Uint64(b[16:24])
	if size != m.size {
		return fmt.Errorf("%w: image is for a %d-byte memory, this one is %d bytes", ErrBadImage, size, m.size)
	}
	if count > size/layout.BlockSize {
		return fmt.Errorf("%w: block count %d exceeds capacity", ErrBadImage, count)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	rec := b[hdrLen:]
	for i := uint64(0); i < count; i, rec = i+1, rec[recLen:] {
		if len(rec) < 8 {
			return fmt.Errorf("%w: truncated at block %d", ErrBadImage, i)
		}
		a := layout.Addr(binary.LittleEndian.Uint64(rec))
		if uint64(a) >= m.size || a != a.BlockAddr() {
			return fmt.Errorf("%w: bad block address %#x", ErrBadImage, a)
		}
		if len(rec) < recLen {
			return fmt.Errorf("%w: truncated block %d", ErrBadImage, i)
		}
		*m.store(a) = Block(rec[8:recLen])
	}
	return nil
}
