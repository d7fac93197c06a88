package mem

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"aisebmt/internal/layout"
)

// oracleSizes are the memory sizes the differential tests draw from: page
// multiples, and sizes that end mid-page the way core lays out a tree
// region (22400 bytes is a real controller's tree region).
var oracleSizes = []uint64{22400, 3 * layout.PageSize, 16*layout.PageSize + 3*layout.BlockSize}

type busEvent struct {
	op   string
	addr layout.Addr
}

// opStream decodes an operation sequence from bytes; reads past the end
// return zero and mark the stream done.
type opStream struct {
	b    []byte
	done bool
}

func (s *opStream) next() byte {
	if len(s.b) == 0 {
		s.done = true
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *opStream) nextN(n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v = v<<8 | uint64(s.next())
	}
	return v
}

// span draws an address and a length of 1..max bytes that fits in size.
// Every fourth span is steered onto a page boundary so page crossings are
// common even in short inputs.
func (s *opStream) span(size uint64, max int) (layout.Addr, int) {
	a := s.nextN(3) % size
	if s.next()%4 == 0 {
		a = a&^(layout.PageSize-1) + layout.PageSize - uint64(s.next()%130)
		if a >= size {
			a = size - 1
		}
	}
	n := 1 + int(s.nextN(2))%max
	if rest := size - a; uint64(n) > rest {
		n = int(rest)
	}
	return layout.Addr(a), n
}

// blockRun draws a block-aligned address and a count of 1..3 pages of
// blocks that fits in size.
func (s *opStream) blockRun(size uint64) (layout.Addr, int) {
	a, n := s.span(size, 3*layout.PageSize)
	a = a.BlockAddr()
	return a, min((n+layout.BlockSize-1)/layout.BlockSize, int(size-uint64(a))/layout.BlockSize)
}

// fill returns n bytes: all zero when the stream says so (zero-valued
// stores must still populate), otherwise a pattern seeded from the stream.
func (s *opStream) fill(n int) []byte {
	buf := make([]byte, n)
	if seed := s.next(); seed%5 != 0 {
		r := rand.New(rand.NewSource(int64(seed)))
		r.Read(buf)
	}
	return buf
}

// runAgainstOracle applies one decoded operation sequence to a Memory and
// to the map reference and fails on the first observable difference:
// bytes read, populated blocks, traffic counters, bus events, serialized
// images and the state Deserialize leaves, including after malformed
// images.
func runAgainstOracle(t *testing.T, data []byte) {
	s := &opStream{b: data}
	size := oracleSizes[int(s.next())%len(oracleSizes)]
	got, want := New(size), newMapMemory(size)
	var gotEv, wantEv []busEvent
	got.Observer = func(op string, a layout.Addr) { gotEv = append(gotEv, busEvent{op, a}) }
	want.Observer = func(op string, a layout.Addr) { wantEv = append(wantEv, busEvent{op, a}) }
	image := func(name string) []byte {
		var g, w bytes.Buffer
		if err := got.Serialize(&g); err != nil {
			t.Fatal(err)
		}
		if err := want.Serialize(&w); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.Bytes(), w.Bytes()) {
			t.Fatalf("%s: Serialize differs from the map oracle (%d vs %d bytes)", name, g.Len(), w.Len())
		}
		return g.Bytes()
	}
	var saved []byte
	for step := 0; !s.done && step < 400; step++ {
		op := s.next() % 12
		switch op {
		case 0:
			a, _ := s.span(size, 1)
			var g, w Block
			got.ReadBlock(a, &g)
			want.ReadBlock(a, &w)
			if g != w {
				t.Fatalf("step %d: ReadBlock(%#x) differs", step, a)
			}
		case 1:
			a, _ := s.span(size, 1)
			var b Block
			copy(b[:], s.fill(layout.BlockSize))
			got.WriteBlock(a, &b)
			want.WriteBlock(a, &b)
		case 2:
			a, n := s.span(size, 3*layout.PageSize)
			g, w := make([]byte, n), make([]byte, n)
			got.Read(a, g)
			want.Read(a, w)
			if !bytes.Equal(g, w) {
				t.Fatalf("step %d: Read(%#x, %d) differs", step, a, n)
			}
		case 3:
			a, n := s.span(size, 3*layout.PageSize)
			src := s.fill(n)
			got.Write(a, src)
			want.Write(a, src)
		case 4:
			a, _ := s.span(size, 1)
			var b Block
			copy(b[:], s.fill(layout.BlockSize))
			got.Tamper(a, b)
			want.Tamper(a, b)
		case 5:
			a, n := s.span(size, 300)
			src := s.fill(n)
			got.TamperBytes(a, src)
			want.TamperBytes(a, src)
		case 6:
			a, _ := s.span(size, 1)
			if got.Snapshot(a) != want.Snapshot(a) {
				t.Fatalf("step %d: Snapshot(%#x) differs", step, a)
			}
		case 7:
			// Round trip through fresh memories of both kinds.
			saved = image("serialize")
			g, w := New(size), newMapMemory(size)
			if err := g.Deserialize(bytes.NewReader(saved)); err != nil {
				t.Fatalf("step %d: Deserialize own image: %v", step, err)
			}
			if err := w.Deserialize(bytes.NewReader(saved)); err != nil {
				t.Fatalf("step %d: oracle Deserialize: %v", step, err)
			}
			var gb, wb bytes.Buffer
			g.Serialize(&gb)
			w.Serialize(&wb)
			if !bytes.Equal(gb.Bytes(), saved) || !bytes.Equal(wb.Bytes(), saved) {
				t.Fatalf("step %d: Deserialize round trip changed the image", step)
			}
			if g.PopulatedBlocks() != w.PopulatedBlocks() {
				t.Fatalf("step %d: PopulatedBlocks after round trip %d, oracle %d", step, g.PopulatedBlocks(), w.PopulatedBlocks())
			}
		case 10:
			a, k := s.blockRun(size)
			g, w := make([]Block, k), make([]Block, k)
			got.ReadBlocks(a, g)
			want.ReadBlocks(a, w)
			if !slices.Equal(g, w) {
				t.Fatalf("step %d: ReadBlocks(%#x, %d) differs", step, a, k)
			}
		case 11:
			a, k := s.blockRun(size)
			src := make([]Block, k)
			for i := range src {
				copy(src[i][:], s.fill(layout.BlockSize))
			}
			got.WriteBlocks(a, src)
			want.WriteBlocks(a, src)
		case 8, 9:
			// Load an earlier image over the live state (blocks merge),
			// corrupted at one byte for op 9: both must accept or refuse
			// alike and leave the same partial state.
			if saved == nil {
				continue
			}
			img := saved
			if op == 9 {
				img = slices.Clone(saved)
				img[int(s.nextN(2))%len(img)] ^= 1 << (s.next() % 8)
				img = img[:len(img)-min(int(s.next())%3*40, len(img))]
			}
			gerr := got.Deserialize(bytes.NewReader(img))
			werr := want.Deserialize(bytes.NewReader(img))
			if (gerr == nil) != (werr == nil) || (gerr != nil && !errors.Is(gerr, ErrBadImage)) {
				t.Fatalf("step %d: Deserialize = %v, oracle %v", step, gerr, werr)
			}
		}
		if got.PopulatedBlocks() != want.PopulatedBlocks() {
			t.Fatalf("step %d (op %d): PopulatedBlocks %d, oracle %d", step, op, got.PopulatedBlocks(), want.PopulatedBlocks())
		}
		if got.Reads != want.Reads || got.Writes != want.Writes {
			t.Fatalf("step %d (op %d): traffic %d/%d, oracle %d/%d", step, op, got.Reads, got.Writes, want.Reads, want.Writes)
		}
	}
	if !slices.Equal(gotEv, wantEv) {
		t.Fatalf("bus events differ: %d events, oracle %d", len(gotEv), len(wantEv))
	}
	image("final")
}

// TestMatchesMapOracle drives random operation sequences through the page
// directory and the map reference it replaced.
func TestMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	for i := 0; i < 120; i++ {
		data := make([]byte, 64+r.Intn(2048))
		r.Read(data)
		runAgainstOracle(t, data)
	}
}

// FuzzMemoryOps is the same differential check over fuzzer-chosen
// operation sequences.
func FuzzMemoryOps(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 0x10, 1, 0x20, 0, 7, 2, 0, 0, 0x10, 1, 0x10, 0})
	f.Add([]byte{1, 1, 0, 0x2f, 0xc0, 0, 0, 5, 5, 0, 0x1f, 0xf0, 0, 0, 0x40, 9, 7, 8, 9, 0, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) { runAgainstOracle(t, data) })
}
