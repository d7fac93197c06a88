package counter

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

func testStore(t *testing.T) *SplitStore {
	t.Helper()
	m := mem.New(1 << 24)
	reg, err := layout.Layout(layout.MemoryConfig{TotalBytes: 1 << 24, MACBits: 128, Scheme: layout.AISEBMT})
	if err != nil {
		t.Fatal(err)
	}
	return NewSplitStore(m, reg, NewGPC())
}

func TestGPCMonotone(t *testing.T) {
	g := NewGPC()
	prev := uint64(0)
	for i := 0; i < 1000; i++ {
		v := g.Next()
		if v <= prev {
			t.Fatalf("GPC not monotone: %d after %d", v, prev)
		}
		prev = v
	}
}

func TestGPCPersistence(t *testing.T) {
	g := NewGPC()
	for i := 0; i < 5; i++ {
		g.Next()
	}
	img := g.Save()
	// "Reboot": a fresh GPC restored from NVRAM continues where it left off.
	g2 := NewGPC()
	g2.Restore(img)
	if v := g2.Next(); v != 6 {
		t.Errorf("post-reboot LPID = %d, want 6", v)
	}
}

func TestGPCRestoreBackwardsPanics(t *testing.T) {
	g := NewGPC()
	old := g.Save()
	for i := 0; i < 10; i++ {
		g.Next()
	}
	defer func() {
		if recover() == nil {
			t.Error("backwards restore did not panic")
		}
	}()
	g.Restore(old)
}

// encodeBitSerial and decodeBitSerial are the codec as it shipped before
// the word-wise rewrite: 448 bits walked one at a time. They stay here as
// the differential oracle — the production codec must agree with them on
// every input, bit for bit.
func encodeBitSerial(cb *Block) mem.Block {
	var out mem.Block
	binary.BigEndian.PutUint64(out[:8], cb.LPID)
	bitPos := 64
	for _, c := range cb.Minor {
		v := uint16(c & layout.MinorCounterMax)
		for b := 6; b >= 0; b-- {
			if v&(1<<uint(b)) != 0 {
				out[bitPos/8] |= 1 << uint(7-bitPos%8)
			}
			bitPos++
		}
	}
	return out
}

func decodeBitSerial(in mem.Block) Block {
	var cb Block
	cb.LPID = binary.BigEndian.Uint64(in[:8])
	bitPos := 64
	for i := range cb.Minor {
		var v uint8
		for b := 0; b < 7; b++ {
			v <<= 1
			if in[bitPos/8]&(1<<uint(7-bitPos%8)) != 0 {
				v |= 1
			}
			bitPos++
		}
		cb.Minor[i] = v
	}
	return cb
}

// TestCodecMatchesBitSerial: the word-wise codec against the oracle on
// random raw blocks and on random counter blocks, including minors with
// the (ignored) eighth bit set.
func TestCodecMatchesBitSerial(t *testing.T) {
	decode := func(raw [layout.BlockSize]byte) bool {
		return DecodeBlock(raw) == decodeBitSerial(raw)
	}
	if err := quick.Check(decode, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	encode := func(lpid uint64, minors [layout.BlocksPerPage]uint8) bool {
		cb := Block{LPID: lpid, Minor: minors}
		return cb.Encode() == encodeBitSerial(&cb)
	}
	if err := quick.Check(encode, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockEncodeDecodeRoundTrip(t *testing.T) {
	f := func(lpid uint64, minors [layout.BlocksPerPage]uint8) bool {
		cb := Block{LPID: lpid}
		for i, v := range minors {
			cb.Minor[i] = v & layout.MinorCounterMax
		}
		got := DecodeBlock(cb.Encode())
		return got == cb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockEncodeDense(t *testing.T) {
	// All-max counters must use exactly the 56 packed bytes after the LPID.
	cb := Block{LPID: ^uint64(0)}
	for i := range cb.Minor {
		cb.Minor[i] = layout.MinorCounterMax
	}
	enc := cb.Encode()
	for i := 0; i < 8; i++ {
		if enc[i] != 0xff {
			t.Errorf("LPID byte %d = %#x", i, enc[i])
		}
	}
	for i := 8; i < 64; i++ {
		if enc[i] != 0xff {
			t.Errorf("packed byte %d = %#x, want 0xff", i, enc[i])
		}
	}
}

func TestEnsureLPIDAssignsOnce(t *testing.T) {
	s := testStore(t)
	cb1 := s.EnsureLPID(0x1000)
	cb2 := s.EnsureLPID(0x1040) // same page
	if cb1.LPID == 0 {
		t.Fatal("LPID not assigned")
	}
	if cb2.LPID != cb1.LPID {
		t.Errorf("second EnsureLPID changed LPID: %d -> %d", cb1.LPID, cb2.LPID)
	}
	cb3 := s.EnsureLPID(0x2000) // different page
	if cb3.LPID == cb1.LPID {
		t.Error("distinct pages share an LPID")
	}
}

func TestIncrement(t *testing.T) {
	s := testStore(t)
	cb, ov := s.Increment(0x1000)
	if ov {
		t.Fatal("first increment overflowed")
	}
	if cb.Minor[0] != 1 {
		t.Errorf("minor[0] = %d, want 1", cb.Minor[0])
	}
	// A different block in the same page has an independent counter.
	cb, _ = s.Increment(0x1040)
	if cb.Minor[1] != 1 || cb.Minor[0] != 1 {
		t.Errorf("minor state = %v", cb.Minor[:2])
	}
}

func TestMinorOverflowAssignsFreshLPID(t *testing.T) {
	s := testStore(t)
	first := s.EnsureLPID(0x1000)
	// Drive minor counter to max.
	var ov bool
	for i := 0; i < layout.MinorCounterMax; i++ {
		_, ov = s.Increment(0x1000)
		if ov {
			t.Fatalf("premature overflow at %d", i)
		}
	}
	cb, ov := s.Increment(0x1000)
	if !ov {
		t.Fatal("expected overflow")
	}
	if cb.LPID == first.LPID {
		t.Error("overflow did not assign a fresh LPID")
	}
	if cb.Minor[0] != 1 {
		t.Errorf("post-overflow minor = %d, want 1", cb.Minor[0])
	}
	for i := 1; i < layout.BlocksPerPage; i++ {
		if cb.Minor[i] != 0 {
			t.Errorf("minor[%d] = %d after page reset, want 0", i, cb.Minor[i])
		}
	}
}

// TestLPIDUniquenessProperty: LPIDs assigned to different pages, and
// re-assigned after overflow, never collide (the seed-uniqueness invariant).
func TestLPIDUniquenessProperty(t *testing.T) {
	s := testStore(t)
	seen := map[uint64]bool{}
	record := func(lpid uint64) {
		if seen[lpid] {
			t.Fatalf("LPID %d reused", lpid)
		}
		seen[lpid] = true
	}
	for page := 0; page < 20; page++ {
		cb := s.EnsureLPID(layout.Addr(page * layout.PageSize))
		record(cb.LPID)
	}
	// Force three overflows on page 0.
	for k := 0; k < 3; k++ {
		for {
			cb, ov := s.Increment(0)
			if ov {
				record(cb.LPID)
				break
			}
		}
	}
}

func TestGlobalStoreWidthValidation(t *testing.T) {
	m := mem.New(1 << 20)
	if _, err := NewGlobalStore(m, 0, 48); err == nil {
		t.Error("48-bit global counter accepted")
	}
}

func TestGlobalStoreNextAndWrap(t *testing.T) {
	m := mem.New(1 << 20)
	g, err := NewGlobalStore(m, 1<<16, 32)
	if err != nil {
		t.Fatal(err)
	}
	v, w := g.Next()
	if v != 1 || w {
		t.Errorf("first Next = %d, %v", v, w)
	}
	// Jump near the wrap point.
	g.value = 1<<32 - 2
	if v, w = g.Next(); w || v != 1<<32-1 {
		t.Errorf("pre-wrap Next = %d, %v", v, w)
	}
	if v, w = g.Next(); !w || v != 1 {
		t.Errorf("wrap Next = %d, %v", v, w)
	}
	if g.Wraps() != 1 {
		t.Errorf("wraps = %d", g.Wraps())
	}
}

func TestGlobalStoredCounters(t *testing.T) {
	m := mem.New(1 << 20)
	for _, bits := range []int{32, 64} {
		g, err := NewGlobalStore(m, 1<<16, bits)
		if err != nil {
			t.Fatal(err)
		}
		g.SetStored(0x0, 0x1234)
		g.SetStored(0x40, 0xabcd)
		if got := g.Stored(0x0); got != 0x1234 {
			t.Errorf("%d-bit stored[0] = %#x", bits, got)
		}
		if got := g.Stored(0x40); got != 0xabcd {
			t.Errorf("%d-bit stored[1] = %#x", bits, got)
		}
		// Same block, different offset: one counter per block.
		if got := g.Stored(0x3f); got != 0x1234 {
			t.Errorf("%d-bit stored same-block = %#x", bits, got)
		}
	}
}

func TestPerBlockStore(t *testing.T) {
	m := mem.New(1 << 20)
	p, err := NewPerBlockStore(m, 1<<16, 32)
	if err != nil {
		t.Fatal(err)
	}
	if v, ov := p.Increment(0x80); v != 1 || ov {
		t.Errorf("first increment = %d, %v", v, ov)
	}
	if v, ov := p.Increment(0x80); v != 2 || ov {
		t.Errorf("second increment = %d, %v", v, ov)
	}
	if p.Get(0xc0) != 0 {
		t.Error("independent block counter affected")
	}
}

// TestBumpMatchesIncrement: Bump's post-state must equal what Increment
// would produce for any access sequence (property).
func TestBumpMatchesIncrement(t *testing.T) {
	f := func(offsets []uint16) bool {
		s1 := freshStore()
		s2 := freshStore()
		for _, off := range offsets {
			a := layout.Addr(off%2048) * layout.BlockSize
			cb1, ov1 := s1.Increment(a)
			_, cb2, ov2 := s2.Bump(a)
			if cb1 != cb2 || ov1 != ov2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func freshStore() *SplitStore {
	m := mem.New(1 << 22)
	reg := layout.Regions{CtrBase: 1 << 21, CtrBytes: 1 << 16}
	return NewSplitStore(m, reg, NewGPC())
}

func TestGPCValue(t *testing.T) {
	g := NewGPC()
	if g.Value() != 1 {
		t.Errorf("fresh Value = %d", g.Value())
	}
	g.Next()
	if g.Value() != 2 {
		t.Errorf("Value after Next = %d", g.Value())
	}
}

func TestBumpOverflowPath(t *testing.T) {
	s := freshStore()
	for i := 0; i < layout.MinorCounterMax; i++ {
		if _, _, ov := s.Bump(0); ov {
			t.Fatalf("premature overflow at %d", i)
		}
	}
	old, cb, ov := s.Bump(0)
	if !ov {
		t.Fatal("expected overflow")
	}
	if old.Minor[0] != layout.MinorCounterMax {
		t.Errorf("old minor = %d, want max", old.Minor[0])
	}
	if cb.LPID == old.LPID || cb.Minor[0] != 1 {
		t.Errorf("post-overflow state: %+v", cb)
	}
}

func TestGlobalJump(t *testing.T) {
	m := mem.New(1 << 20)
	g, _ := NewGlobalStore(m, 1<<16, 64)
	g.Jump(1000)
	if v, _ := g.Next(); v != 1001 {
		t.Errorf("Next after Jump = %d", v)
	}
	g.Jump(5) // never backwards
	if v, _ := g.Next(); v != 1002 {
		t.Errorf("Jump moved the counter backwards: %d", v)
	}
	if g.StoredBytesPerBlock() != 8 {
		t.Errorf("StoredBytesPerBlock = %d", g.StoredBytesPerBlock())
	}
}

func TestGlobal64Wrap(t *testing.T) {
	m := mem.New(1 << 20)
	g, _ := NewGlobalStore(m, 1<<16, 64)
	g.Jump(^uint64(0) - 1)
	if v, w := g.Next(); w || v != ^uint64(0) {
		t.Errorf("pre-wrap: %d, %v", v, w)
	}
	if v, w := g.Next(); !w || v != 1 {
		t.Errorf("64-bit wrap: %d, %v", v, w)
	}
}

func TestPerBlockValidationAndOverflow(t *testing.T) {
	m := mem.New(1 << 20)
	if _, err := NewPerBlockStore(m, 0, 48); err == nil {
		t.Error("bad width accepted")
	}
	p, _ := NewPerBlockStore(m, 1<<16, 64)
	if _, ov := p.Increment(0); ov {
		t.Error("64-bit per-block overflowed immediately")
	}
	// Force a 32-bit overflow by setting the stored value near the top.
	p32, _ := NewPerBlockStore(m, 1<<17, 32)
	p32.g.SetStored(0, 1<<32-1)
	if v, ov := p32.Increment(0); !ov || v != 1 {
		t.Errorf("32-bit overflow: %d, %v", v, ov)
	}
}

var (
	sinkRaw   mem.Block
	sinkBlock Block
)

func BenchmarkEncode(b *testing.B) {
	cb := Block{LPID: 0x0123456789abcdef}
	for i := range cb.Minor {
		cb.Minor[i] = uint8(i*5) & layout.MinorCounterMax
	}
	for i := 0; i < b.N; i++ {
		sinkRaw = cb.Encode()
	}
}

func BenchmarkDecodeBlock(b *testing.B) {
	var raw mem.Block
	for i := range raw {
		raw[i] = byte(i*37 + 1)
	}
	for i := 0; i < b.N; i++ {
		sinkBlock = DecodeBlock(raw)
	}
}
