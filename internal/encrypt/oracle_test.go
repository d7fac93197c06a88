package encrypt

import (
	"math/rand"
	"testing"

	scratch "aisebmt/internal/crypto/aes"
	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

// The engines bind crypto/aes; the from-scratch internal/crypto/aes is the
// oracle. Every pad, ciphertext and plaintext they produce must equal what
// the oracle computes from the same key and seed.

var oracleComposers = []Composer{AISESeed{}, GlobalSeed{Bits: 32}, GlobalSeed{Bits: 64}, PhysSeed{}, VirtSeed{}}

func randomSeedInput(rng *rand.Rand) SeedInput {
	return SeedInput{
		PhysAddr: layout.Addr(rng.Uint64()),
		VirtAddr: rng.Uint64(),
		PID:      rng.Uint32(),
		LPID:     rng.Uint64(),
		Counter:  rng.Uint64(),
		Chunk:    rng.Intn(layout.ChunksPerBlock),
	}
}

// checkAgainstScratch compares every engine entry point for one key, seed
// input and block against the oracle.
func checkAgainstScratch(t *testing.T, key []byte, in SeedInput, plain *mem.Block) {
	t.Helper()
	oracle, err := scratch.New(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, comp := range oracleComposers {
		e, err := NewCounterMode(key, comp)
		if err != nil {
			t.Fatal(err)
		}
		seed := comp.Compose(in)
		var want [16]byte
		oracle.Encrypt(want[:], seed[:])
		if got := e.Pad(in); got != want {
			t.Fatalf("%s key %x: Pad %x, oracle %x", comp.Name(), key, got, want)
		}
		var ct mem.Block
		e.EncryptBlock(&ct, plain, in)
		for chunk := 0; chunk < layout.ChunksPerBlock; chunk++ {
			cin := in
			cin.Chunk = chunk
			seed := comp.Compose(cin)
			var pad [16]byte
			oracle.Encrypt(pad[:], seed[:])
			for i := range pad {
				off := chunk*16 + i
				if ct[off] != plain[off]^pad[i] {
					t.Fatalf("%s key %x: EncryptBlock byte %d = %#x, oracle %#x", comp.Name(), key, off, ct[off], plain[off]^pad[i])
				}
			}
		}
		var back mem.Block
		e.DecryptBlock(&back, &ct, in)
		if back != *plain {
			t.Fatalf("%s key %x: DecryptBlock did not invert EncryptBlock", comp.Name(), key)
		}
	}

	d, err := NewDirect(key)
	if err != nil {
		t.Fatal(err)
	}
	var ct, back, want mem.Block
	d.EncryptBlock(&ct, plain)
	for off := 0; off < layout.BlockSize; off += 16 {
		oracle.Encrypt(want[off:off+16], plain[off:off+16])
	}
	if ct != want {
		t.Fatalf("Direct key %x: EncryptBlock %x, oracle %x", key, ct, want)
	}
	d.DecryptBlock(&back, &ct)
	for off := 0; off < layout.BlockSize; off += 16 {
		oracle.Decrypt(want[off:off+16], ct[off:off+16])
	}
	if back != want || back != *plain {
		t.Fatalf("Direct key %x: DecryptBlock %x, oracle %x, plaintext %x", key, back, want, *plain)
	}
}

// checkSpanAgainstScratch compares EncryptSpan over the n blocks from
// block first of a page against the oracle lane by lane, and DecryptSpan
// in place against the plaintext.
func checkSpanAgainstScratch(t *testing.T, key []byte, lpid uint64, minors *[layout.BlocksPerPage]uint8, first int, plain []mem.Block) {
	t.Helper()
	oracle, err := scratch.New(key)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewCounterMode(key, AISESeed{})
	if err != nil {
		t.Fatal(err)
	}
	ct := make([]mem.Block, len(plain))
	e.EncryptSpan(ct, plain, lpid, minors, first)
	for i := range plain {
		for chunk := 0; chunk < layout.ChunksPerBlock; chunk++ {
			in := SeedInput{PhysAddr: layout.Addr((first + i) * layout.BlockSize), LPID: lpid, Counter: uint64(minors[first+i]), Chunk: chunk}
			seed := AISESeed{}.Compose(in)
			var pad [16]byte
			oracle.Encrypt(pad[:], seed[:])
			for j := range pad {
				off := chunk*16 + j
				if ct[i][off] != plain[i][off]^pad[j] {
					t.Fatalf("key %x lpid %#x: EncryptSpan(first %d, n %d) block %d byte %d = %#x, oracle %#x",
						key, lpid, first, len(plain), first+i, off, ct[i][off], plain[i][off]^pad[j])
				}
			}
		}
	}
	if got, want := e.Pads(), uint64(len(plain)*layout.ChunksPerBlock); got != want {
		t.Fatalf("EncryptSpan of %d blocks counted %d pads, want %d", len(plain), got, want)
	}
	e.DecryptSpan(ct, ct, lpid, minors, first)
	for i := range plain {
		if ct[i] != plain[i] {
			t.Fatalf("key %x: in-place DecryptSpan(first %d, n %d) did not invert block %d", key, first, len(plain), first+i)
		}
	}
}

// randomSpan draws a span of 1..64 blocks at any first block that keeps it
// inside the page, with random minors and plaintext.
func randomSpan(rng *rand.Rand) (minors *[layout.BlocksPerPage]uint8, first int, plain []mem.Block) {
	minors = new([layout.BlocksPerPage]uint8)
	for i := range minors {
		minors[i] = uint8(rng.Intn(layout.MinorCounterMax + 1))
	}
	n := 1 + rng.Intn(layout.BlocksPerPage)
	first = rng.Intn(layout.BlocksPerPage - n + 1)
	plain = make([]mem.Block, n)
	for i := range plain {
		rng.Read(plain[i][:])
	}
	return minors, first, plain
}

// eachKernel runs f once per pad kernel the engine can use.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	for _, aesni := range []bool{true, false} {
		name := "portable"
		if aesni {
			name = "aesni"
		}
		t.Run(name, func(t *testing.T) {
			if !setKernel(t, aesni) {
				t.Skip("no AES-NI on this CPU; the portable leg covers the engine")
			}
			f(t)
		})
	}
}

func TestEnginesMatchScratch(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(32))
		for i := 0; i < 200; i++ {
			key := make([]byte, 16)
			rng.Read(key)
			var plain mem.Block
			rng.Read(plain[:])
			checkAgainstScratch(t, key, randomSeedInput(rng), &plain)
			minors, first, span := randomSpan(rng)
			checkSpanAgainstScratch(t, key, rng.Uint64(), minors, first, span)
		}
		// Every span length at every first block it fits at.
		key := make([]byte, 16)
		rng.Read(key)
		minors, _, _ := randomSpan(rng)
		for n := 1; n <= layout.BlocksPerPage; n++ {
			for first := 0; first+n <= layout.BlocksPerPage; first += 1 + rng.Intn(8) {
				plain := make([]mem.Block, n)
				for i := range plain {
					rng.Read(plain[i][:])
				}
				checkSpanAgainstScratch(t, key, rng.Uint64(), minors, first, plain)
			}
		}
	})
}

// FuzzEngineMatchesScratch fuzzes the same comparison over arbitrary keys,
// seed fields and blocks, on each kernel. The span leg takes its first
// block and length from the address and its minors from the block bytes.
func FuzzEngineMatchesScratch(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), uint64(0x1000), uint64(99), uint64(7), uint32(42), []byte("plaintext"))
	f.Add(make([]byte, 16), uint64(0), uint64(0), uint64(0), uint32(0), make([]byte, 64))
	f.Fuzz(func(t *testing.T, key []byte, addr, lpid, ctr uint64, pid uint32, block []byte) {
		if len(key) < 16 {
			return
		}
		var plain mem.Block
		copy(plain[:], block)
		in := SeedInput{PhysAddr: layout.Addr(addr), VirtAddr: addr ^ lpid, PID: pid, LPID: lpid, Counter: ctr}

		var minors [layout.BlocksPerPage]uint8
		copy(minors[:], block)
		first := int(addr % layout.BlocksPerPage)
		n := 1 + int(ctr%uint64(layout.BlocksPerPage-first))
		span := make([]mem.Block, n)
		for i := range span {
			span[i] = plain
			span[i][0] ^= byte(i)
		}
		eachKernel(t, func(t *testing.T) {
			checkAgainstScratch(t, key[:16], in, &plain)
			checkSpanAgainstScratch(t, key[:16], lpid, &minors, first, span)
		})
	})
}

// TestEnginesZeroAlloc guards against the escape trap: slices handed to
// cipher.Block escape, so an engine that passed its caller's buffers
// through would move them to the heap on every call. The buffers are
// declared inside each measured call so that such an escape shows up as an
// allocation per call.
func TestEnginesZeroAlloc(t *testing.T) {
	in := SeedInput{PhysAddr: 0x4000, LPID: 42, Counter: 7}
	for _, comp := range oracleComposers {
		e := ctrEngine(t, comp)
		if n := testing.AllocsPerRun(100, func() {
			var pad [16]byte
			e.PadInto(&pad, in)
		}); n != 0 {
			t.Errorf("%s: PadInto allocates %v per call, want 0", comp.Name(), n)
		}
		if n := testing.AllocsPerRun(100, func() {
			var src, dst mem.Block
			e.EncryptBlock(&dst, &src, in)
		}); n != 0 {
			t.Errorf("%s: EncryptBlock allocates %v per call, want 0", comp.Name(), n)
		}
	}
	e := ctrEngine(t, AISESeed{})
	if n := testing.AllocsPerRun(100, func() {
		var src, dst [layout.BlocksPerPage]mem.Block
		var minors [layout.BlocksPerPage]uint8
		e.EncryptSpan(dst[:], src[:], 42, &minors, 0)
	}); n != 0 {
		t.Errorf("EncryptSpan allocates %v per call, want 0", n)
	}
	d, err := NewDirect(testKey)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		var src, dst mem.Block
		d.EncryptBlock(&dst, &src)
	}); n != 0 {
		t.Errorf("Direct.EncryptBlock allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		var src, dst mem.Block
		d.DecryptBlock(&dst, &src)
	}); n != 0 {
		t.Errorf("Direct.DecryptBlock allocates %v per call, want 0", n)
	}
}
