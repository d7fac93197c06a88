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

const (
	hdrLen    = 24                      // magic, size, populated-block count
	recordLen = 8 + layout.BlockSize    // address, block
	chunkRecs = DecodeChunk / recordLen // whole records per Deserialize read
)

// DecodeChunk is the size of the one buffer Deserialize reads records
// into: its memory use whatever the image size.
const DecodeChunk = 1024 * recordLen

// ErrBadImage reports a malformed memory image.
var ErrBadImage = errors.New("mem: malformed memory image")

// Serialize writes the memory's populated blocks to w. It walks the
// written masks page by page under one read lock, so the image is one
// consistent cut even while an attacker tampers concurrently.
func (m *Memory) Serialize(w io.Writer) error { return m.serialize(w, false) }

// SerializeSection is Serialize preceded by the image's byte length as a
// little-endian uint64, the framing of one shard's section in a pool
// checkpoint. The length is taken under the walk's read lock, so it
// always matches the records that follow and the image never has to be
// buffered to be measured.
func (m *Memory) SerializeSection(w io.Writer) error { return m.serialize(w, true) }

func (m *Memory) serialize(w io.Writer, section bool) error {
	bw := bufio.NewWriter(w)
	m.mu.RLock()
	defer m.mu.RUnlock()
	var buf [8 + hdrLen]byte
	hdr := buf[8:]
	copy(hdr[0:8], memMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:16], m.size)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(m.populated))
	if section {
		binary.LittleEndian.PutUint64(buf[:8], hdrLen+recordLen*uint64(m.populated))
		hdr = buf[:]
	}
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	var rec [recordLen]byte
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

// Deserialize reads an image from r and loads it into this memory, which
// must have the same size and be otherwise unused. Existing blocks are
// replaced, and r is not read past the last record. Records are read a
// chunk of whole records at a time into one reused buffer of at most
// DecodeChunk bytes and installed under one write lock: a direct store,
// not program traffic. A refused image leaves every whole record before
// the fault installed.
func (m *Memory) Deserialize(r io.Reader) error {
	var hdr [hdrLen]byte
	n, err := io.ReadFull(r, hdr[:])
	switch {
	case n < len(memMagic):
		return fmt.Errorf("%w: missing header: %v", ErrBadImage, err)
	case [8]byte(hdr[:8]) != memMagic:
		return fmt.Errorf("%w: bad magic", ErrBadImage)
	case err != nil:
		return fmt.Errorf("%w: truncated header: %v", ErrBadImage, err)
	}
	size := binary.LittleEndian.Uint64(hdr[8:16])
	count := binary.LittleEndian.Uint64(hdr[16:24])
	if size != m.size {
		return fmt.Errorf("%w: image is for a %d-byte memory, this one is %d bytes", ErrBadImage, size, m.size)
	}
	if count > size/layout.BlockSize {
		return fmt.Errorf("%w: block count %d exceeds capacity", ErrBadImage, count)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	buf := make([]byte, min(count, chunkRecs)*recordLen)
	for i := uint64(0); i < count; {
		n, err := io.ReadFull(r, buf[:min(count-i, chunkRecs)*recordLen])
		rec := buf[:n]
		for ; len(rec) >= 8; i, rec = i+1, rec[recordLen:] {
			a := layout.Addr(binary.LittleEndian.Uint64(rec))
			if uint64(a) >= m.size || a != a.BlockAddr() {
				return fmt.Errorf("%w: bad block address %#x", ErrBadImage, a)
			}
			if len(rec) < recordLen {
				return fmt.Errorf("%w: truncated block %d: %v", ErrBadImage, i, err)
			}
			*m.store(a) = Block(rec[8:recordLen])
		}
		if err != nil {
			return fmt.Errorf("%w: truncated at block %d: %v", ErrBadImage, i, err)
		}
	}
	return nil
}
