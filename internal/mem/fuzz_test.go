package mem

import (
	"bytes"
	"testing"
)

// FuzzDeserialize: arbitrary bytes must never panic the image parser, and
// the slice decoder must agree with the per-record reader it replaced:
// the same accept/refuse verdict and the same resulting image, refused
// images included (every whole record before the fault is installed).
func FuzzDeserialize(f *testing.F) {
	m := New(1 << 12)
	var b Block
	b[0] = 1
	m.WriteBlock(64, &b)
	b[0] = 2
	m.WriteBlock(1<<12-64, &b)
	var buf bytes.Buffer
	m.Serialize(&buf)
	img := buf.Bytes()
	f.Add(img)
	f.Add([]byte{})
	f.Add(img[:20])                          // truncated header
	f.Add(img[:24+8+10])                     // truncated first block
	f.Add(img[:24+72+4])                     // truncated second address
	f.Add(append(bytes.Clone(img), 9, 9, 9)) // trailing bytes
	bad := bytes.Clone(img)
	bad[24+72] ^= 0x01 // second record's address off block alignment
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, want := New(1<<12), New(1<<12)
		gerr := got.DeserializeBytes(data)
		werr := deserializeReader(want, bytes.NewReader(data))
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("DeserializeBytes = %v, reader oracle %v", gerr, werr)
		}
		var g, w bytes.Buffer
		got.Serialize(&g)
		want.Serialize(&w)
		if !bytes.Equal(g.Bytes(), w.Bytes()) || got.PopulatedBlocks() != want.PopulatedBlocks() {
			t.Fatalf("DeserializeBytes left a different image than the reader oracle (err %v)", gerr)
		}
		// Successful parses leave a usable memory.
		var out Block
		got.ReadBlock(0, &out)
	})
}
