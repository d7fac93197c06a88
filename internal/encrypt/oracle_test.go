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

func TestEnginesMatchScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 200; i++ {
		key := make([]byte, 16)
		rng.Read(key)
		var plain mem.Block
		rng.Read(plain[:])
		checkAgainstScratch(t, key, randomSeedInput(rng), &plain)
	}
}

// FuzzEngineMatchesScratch fuzzes the same comparison over arbitrary keys,
// seed fields and blocks.
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
		checkAgainstScratch(t, key[:16], in, &plain)
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
