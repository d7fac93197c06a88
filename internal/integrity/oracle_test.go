package integrity

import (
	"bytes"
	"crypto/sha1"
	"encoding/binary"
	"math/rand"
	"testing"

	"aisebmt/internal/crypto/hmac"
	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

// The MAC engine is a fixed-key HMAC-SHA-1 over its own compression; the
// from-scratch internal/crypto/hmac is the oracle. Every tag, at every
// width and in the message shape of every store, must equal the oracle's,
// on both compressions: the SHA extensions and the portable loop.

var storeWidths = []int{32, 64, 128, 256}

func oracleTag(t testing.TB, key, msg []byte, bits int) []byte {
	t.Helper()
	tag, err := hmac.Sized(key, msg, bits)
	if err != nil {
		t.Fatal(err)
	}
	return tag
}

func checkEngine(t testing.TB, key, msg []byte) {
	t.Helper()
	e := newMACEngine(key)
	for _, bits := range hmac.ValidSizes {
		got := make([]byte, bits/8)
		e.sizedInto(got, msg, bits)
		if want := oracleTag(t, key, msg, bits); !bytes.Equal(got, want) {
			t.Fatalf("%d bits, key %x, %d-byte msg: engine %x, oracle %x", bits, key, len(msg), got, want)
		}
	}
	if got, want := *e.tag(nil, msg), hmac.MAC(key, msg); got != want {
		t.Fatalf("key %x, %d-byte msg: engine tag %x, oracle %x", key, len(msg), got, want)
	}
}

// eachCompression runs f once per SHA-1 compression block can use.
func eachCompression(t *testing.T, f func(t *testing.T)) {
	for _, shani := range []bool{true, false} {
		name := "portable"
		if shani {
			name = "shani"
		}
		t.Run(name, func(t *testing.T) {
			if !setCompression(t, shani) {
				t.Skip("no SHA extensions on this CPU; the portable leg covers the engine")
			}
			f(t)
		})
	}
}

// TestBlockMatchesSHA1 checks each compression against crypto/sha1 on
// messages of every length from 0 to 300 bytes, padded as FIPS 180-1
// says and compressed in one call. A partial trailing block, which block
// must ignore, follows the padded message.
func TestBlockMatchesSHA1(t *testing.T) {
	eachCompression(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(34))
		for n := 0; n <= 300; n++ {
			msg := make([]byte, n)
			rng.Read(msg)
			p := append(append([]byte{}, msg...), 0x80)
			for len(p)%sha1.BlockSize != sha1.BlockSize-8 {
				p = append(p, 0)
			}
			p = binary.BigEndian.AppendUint64(p, uint64(n)*8)
			p = append(p, msg[:n%sha1.BlockSize]...)
			h := sha1IV
			block(&h, p)
			var got [sha1.Size]byte
			for i, v := range h {
				binary.BigEndian.PutUint32(got[4*i:], v)
			}
			if want := sha1.Sum(msg); got != want {
				t.Fatalf("%d-byte msg: block %x, crypto/sha1 %x", n, got, want)
			}
		}
	})
}

func TestMACEngineMatchesScratch(t *testing.T) {
	eachCompression(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(32))
		for i := 0; i < 300; i++ {
			key := make([]byte, rng.Intn(100))
			msg := make([]byte, rng.Intn(600)) // up to several engine buffers
			rng.Read(key)
			rng.Read(msg)
			checkEngine(t, key, msg)
		}

		// Framing edges. Keys: empty, one block, and longer than a block
		// (hashed first). Messages: empty; around the engine buffer; and
		// prefix ‖ msg at every padding and block boundary of one to three
		// blocks, with and without the 256-bit width's prefix byte
		// (checkEngine runs both); then group-MAC lengths past the buffer,
		// four blocks and a whole page.
		keys := [][]byte{nil, bytes.Repeat([]byte{0x6b}, 64), bytes.Repeat([]byte{0x6b}, 65), bytes.Repeat([]byte{0x6b}, 200)}
		lens := []int{0, 1, 127, 128, 129, 255, 256, 257}
		for _, n := range []int{55, 56, 63, 64, 119, 120, 183, 184} {
			lens = append(lens, n, n-1)
		}
		lens = append(lens, 4*layout.BlockSize+13, layout.PageSize+73)
		for _, key := range append(keys, testKey) {
			for _, n := range lens {
				checkEngine(t, key, bytes.Repeat([]byte{0xa5}, n))
			}
		}
	})
}

// FuzzEngineMatchesScratch fuzzes the engine against the oracle over
// arbitrary keys and messages at every width, on each compression.
func FuzzEngineMatchesScratch(f *testing.F) {
	f.Add([]byte("integrity-test-k"), []byte("message"))
	f.Add(make([]byte, 64), make([]byte, 0))
	f.Add(bytes.Repeat([]byte{0x5c}, 100), bytes.Repeat([]byte{0x36}, 300))
	f.Fuzz(func(t *testing.T, key, msg []byte) {
		eachCompression(t, func(t *testing.T) {
			checkEngine(t, key, msg)
		})
	})
}

// slotBytes reads n stored bytes at a without going through a store.
func slotBytes(m *mem.Memory, a layout.Addr, n int) []byte {
	buf := make([]byte, n)
	m.Read(a, buf)
	return buf
}

func TestStoresMatchScratch(t *testing.T) {
	eachCompression(t, checkStoresAgainstScratch)
}

func checkStoresAgainstScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, bits := range storeWidths {
		m := mem.New(1 << 20)
		const a = layout.Addr(0x1040)
		var ct mem.Block
		rng.Read(ct[:])

		// Data MAC: C ‖ LPID ‖ minor ‖ blockInPage.
		ds, err := NewDataMACStore(m, testKey, bits, 512<<10, 0)
		if err != nil {
			t.Fatal(err)
		}
		ds.Update(a, &ct, 0x0102030405060708, 77)
		msg := append(append([]byte{}, ct[:]...), 1, 2, 3, 4, 5, 6, 7, 8, 77, byte(a.BlockInPage()))
		if got, want := slotBytes(m, ds.SlotAddr(a), bits/8), oracleTag(t, testKey, msg, bits); !bytes.Equal(got, want) {
			t.Fatalf("%d-bit data MAC %x, oracle %x", bits, got, want)
		}

		// MAC-only: C ‖ block address.
		ms, err := NewMACOnlyStore(m, testKey, bits, 640<<10, 0)
		if err != nil {
			t.Fatal(err)
		}
		ms.Update(a, &ct)
		msg = binary.BigEndian.AppendUint64(append([]byte{}, ct[:]...), uint64(a.BlockAddr()))
		if got, want := slotBytes(m, ms.SlotAddr(a), bits/8), oracleTag(t, testKey, msg, bits); !bytes.Equal(got, want) {
			t.Fatalf("%d-bit MAC-only %x, oracle %x", bits, got, want)
		}

		// Group MAC over four blocks: a 269-byte message, longer than the
		// engine's buffer.
		gs, err := NewGroupMACStore(m, testKey, bits, 768<<10, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		cb := testCB()
		gs.Update(a, cb)
		gb := gs.groupBase(a)
		msg = msg[:0]
		for i := 0; i < 4; i++ {
			blk := m.Snapshot(gb + layout.Addr(i*layout.BlockSize))
			msg = append(msg, blk[:]...)
		}
		msg = binary.BigEndian.AppendUint64(msg, cb.LPID)
		first := gb.BlockInPage()
		msg = append(msg, cb.Minor[first:first+4]...)
		msg = append(msg, byte(first/4))
		if len(msg) <= len(newMACEngine(testKey).buf) {
			t.Fatalf("group message is %d bytes; it must exceed the engine buffer", len(msg))
		}
		if got, want := slotBytes(m, gs.SlotAddr(a), bits/8), oracleTag(t, testKey, msg, bits); !bytes.Equal(got, want) {
			t.Fatalf("%d-bit group MAC %x, oracle %x", bits, got, want)
		}

		// Tree node: every stored node and the root.
		tm, tr := testTree(t, bits)
		checkTreeAgainstScratch(t, tm, tr, testKey)
	}

	// Log hash entry: addr ‖ version ‖ value.
	_, l, _ := logHashSetup(t)
	var blk mem.Block
	rng.Read(blk[:])
	msg := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, 0x80), 3)
	msg = append(msg, blk[:]...)
	if got, want := l.entry(0x80, 3, &blk), hmac.MAC(testKey, msg); got != want {
		t.Fatalf("log-hash entry %x, oracle %x", got, want)
	}
}

// checkTreeAgainstScratch recomputes every node of tr from memory with the
// oracle: each level-0 slot must be the tag of its protected block, each
// higher slot the tag of its child storage block, and the on-chip root the
// tag of the top block. A node cache must be flushed first.
func checkTreeAgainstScratch(t testing.TB, m *mem.Memory, tr *Tree, key []byte) {
	t.Helper()
	bits, nb := tr.g.MACBits, tr.g.MACBytes
	idx := uint64(0)
	for _, r := range tr.leaves {
		for a := r.Base; a < r.Base+layout.Addr(r.Size); a += layout.BlockSize {
			blk := m.Snapshot(a)
			got := slotBytes(m, tr.levels[0].base+layout.Addr(idx*uint64(nb)), nb)
			if want := oracleTag(t, key, blk[:], bits); !bytes.Equal(got, want) {
				t.Fatalf("%d-bit leaf %#x: stored %x, oracle %x", bits, a, got, want)
			}
			idx++
		}
	}
	for li, lv := range tr.levels {
		for b := uint64(0); b < storageBlocks(lv.count, nb); b++ {
			blk := m.Snapshot(lv.base + layout.Addr(b*layout.BlockSize))
			want := oracleTag(t, key, blk[:], bits)
			var got []byte
			if li == len(tr.levels)-1 {
				got = tr.Root()
			} else {
				got = slotBytes(m, tr.levels[li+1].base+layout.Addr(b*uint64(nb)), nb)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%d-bit level %d block %d: stored %x, oracle %x", bits, li, b, got, want)
			}
		}
	}
}

// TestStoresZeroAlloc guards against the escape trap: slices handed to
// hash.Hash escape, so a store whose engine wrote its caller's buffers
// straight through would move them to the heap on every call. Each
// measured call declares its own blocks so such an escape shows up as an
// allocation per call.
func TestStoresZeroAlloc(t *testing.T) {
	const a = layout.Addr(0x1040)
	for _, bits := range storeWidths {
		m := mem.New(1 << 20)
		ds, err := NewDataMACStore(m, testKey, bits, 512<<10, 0)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := NewMACOnlyStore(m, testKey, bits, 640<<10, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkZeroAlloc(t, bits, "DataMACStore", func() {
			var ct mem.Block
			ds.Update(a, &ct, 42, 7)
			if err := ds.Verify(a, &ct, 42, 7); err != nil {
				t.Fatal(err)
			}
		})
		checkZeroAlloc(t, bits, "MACOnlyStore", func() {
			var ct mem.Block
			ms.Update(a, &ct)
			if err := ms.Verify(a, &ct); err != nil {
				t.Fatal(err)
			}
		})
		// Coverage 64 is a whole page: a 4169-byte message streamed
		// through the engine buffer in chunks.
		for _, coverage := range []int{4, layout.BlocksPerPage} {
			gs, err := NewGroupMACStore(m, testKey, bits, 768<<10, 0, coverage)
			if err != nil {
				t.Fatal(err)
			}
			cb := testCB()
			checkZeroAlloc(t, bits, "GroupMACStore", func() {
				gs.Update(a, cb)
				if err := gs.Verify(a, cb); err != nil {
					t.Fatal(err)
				}
			})
		}

		tm, tr := testTree(t, bits)
		checkZeroAlloc(t, bits, "Tree", func() {
			var blk mem.Block
			tm.ReadBlock(a, &blk)
			if err := tr.VerifyContent(a, &blk); err != nil {
				t.Fatal(err)
			}
			if err := tr.UpdateBlock(a); err != nil {
				t.Fatal(err)
			}
		})
	}
	lm, l, _ := logHashSetup(t)
	checkZeroAlloc(t, 160, "LogHash", func() {
		var old, blk mem.Block
		lm.ReadBlock(0x40, &old)
		l.OnWrite(0x40, &old, &blk)
		l.OnRead(0x40, &blk)
	})
}

func checkZeroAlloc(t *testing.T, bits int, what string, f func()) {
	t.Helper()
	f() // first call: lazy memory pages, map entries
	if n := testing.AllocsPerRun(50, f); n != 0 {
		t.Errorf("%d-bit %s: %v allocations per Update/Verify, want 0", bits, what, n)
	}
}

// TestUpdateBatchFanOutMatchesOracle forces the batch engine's hash
// fan-out (at least minParallelJobs dirty nodes, several hashers, each with
// its own MAC engine). The root and every node must equal the serial
// reference walk and the oracle, and once the first batch has built the
// helpers' engines the batch path must allocate nothing. Run it under
// -race: the helpers share nothing but the job slice.
func TestUpdateBatchFanOutMatchesOracle(t *testing.T) {
	for _, bits := range storeWidths {
		for _, workers := range []int{2, 4} {
			mRef, trRef, mNew, trNew := diffPair(t, bits)
			addrs := make([]layout.Addr, 0, 4*minParallelJobs)
			for i := 0; i < 4*minParallelJobs; i++ {
				addrs = append(addrs, layout.Addr(i*3*layout.BlockSize))
			}
			for round := 0; round < 3; round++ {
				applyBatch(t, mRef, trRef, mNew, trNew, addrs, int64(bits*10+workers+round), workers)
				checkIdentical(t, mRef, trRef, mNew, trNew, "fan-out batch")
				checkTreeAgainstScratch(t, mNew, trNew, goldenKey)
			}
			if got := len(trNew.up.crew.helpers); got != workers-1 {
				t.Fatalf("%d-bit, %d workers: %d helper engines, want %d", bits, workers, got, workers-1)
			}
			if n := testing.AllocsPerRun(20, func() {
				if err := trNew.UpdateBatch(addrs, workers); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%d-bit, %d workers: fan-out batch allocates %v per pass, want 0", bits, workers, n)
			}
		}
	}
}
