package mem

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/iotest"

	"aisebmt/internal/layout"
)

// FuzzDeserialize: arbitrary bytes must never panic the image decoder, and
// the chunked decoder must agree with the per-record reader it replaced:
// the same accept/refuse verdict and the same resulting image, refused
// images included (every whole record before the fault is installed). An
// accepted image is read to its last record and no further.
func FuzzDeserialize(f *testing.F) {
	const size = 1 << 17 // room for more than one chunk of records
	image := func(blocks int) []byte {
		m := New(size)
		var b Block
		for i := 0; i < blocks; i++ {
			b[0], b[63] = byte(i), byte(i>>8)
			m.WriteBlock(layout.Addr(i*layout.BlockSize), &b)
		}
		var buf bytes.Buffer
		m.Serialize(&buf)
		return buf.Bytes()
	}
	img := image(2)
	f.Add(img)
	f.Add([]byte{})
	f.Add(img[:20])                          // truncated header
	f.Add(img[:24+8+10])                     // truncated first block
	f.Add(img[:24+72+4])                     // truncated second address
	f.Add(append(bytes.Clone(img), 9, 9, 9)) // trailing bytes
	bad := bytes.Clone(img)
	bad[24+72] ^= 0x01 // second record's address off block alignment
	f.Add(bad)
	for _, n := range []int{chunkRecs - 1, chunkRecs, chunkRecs + 1} {
		full := image(n)
		f.Add(full)
		f.Add(full[:len(full)-1])                        // inside the last block
		f.Add(full[:len(full)-recordLen+3])              // inside the last address
		f.Add(full[:len(full)-recordLen])                // the last record missing
		f.Add(append(bytes.Clone(full), full[24:96]...)) // one record past the count
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, want := New(size), New(size)
		r := bytes.NewReader(data)
		gerr := got.Deserialize(iotest.HalfReader(r))
		werr := deserializeReader(want, bytes.NewReader(data))
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("Deserialize = %v, reader oracle %v", gerr, werr)
		}
		var g, w bytes.Buffer
		got.Serialize(&g)
		want.Serialize(&w)
		if !bytes.Equal(g.Bytes(), w.Bytes()) || got.PopulatedBlocks() != want.PopulatedBlocks() {
			t.Fatalf("Deserialize left a different image than the reader oracle (err %v)", gerr)
		}
		if gerr == nil {
			count := binary.LittleEndian.Uint64(data[16:hdrLen])
			if read := uint64(len(data) - r.Len()); read != hdrLen+recordLen*count {
				t.Fatalf("Deserialize read %d bytes of a %d-record image", read, count)
			}
		}
		// Successful parses leave a usable memory.
		var out Block
		got.ReadBlock(0, &out)
	})
}
