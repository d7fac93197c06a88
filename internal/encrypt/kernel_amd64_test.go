package encrypt

import (
	"crypto/aes"
	"math/rand"
	"testing"

	scratch "aisebmt/internal/crypto/aes"
)

// setKernel points encryptLanes at the AES-NI kernel (aesni) or the
// portable one until t ends. It reports false when the CPU lacks AES-NI
// and aesni is asked for.
func setKernel(t testing.TB, aesni bool) bool {
	if aesni && !haveAESNI {
		return false
	}
	old := useAESNI
	useAESNI = aesni
	t.Cleanup(func() { useAESNI = old })
	return true
}

// TestRoundKeysMatchStdlib checks the AESKEYGENASSIST key schedule for
// 1,000 random keys: the first round key is the key itself, and thirteen
// random lanes — one pass through each of the 8-, 4- and 1-lane tiers —
// encrypted with it equal crypto/aes and the from-scratch oracle.
func TestRoundKeysMatchStdlib(t *testing.T) {
	if !haveAESNI {
		t.Skip("no AES-NI on this CPU; the portable kernel keys crypto/aes")
	}
	rng := rand.New(rand.NewSource(36))
	key := make([]byte, 16)
	for i := 0; i < 1000; i++ {
		rng.Read(key)
		e, err := NewCounterMode(key, AISESeed{})
		if err != nil {
			t.Fatal(err)
		}
		if string(e.rk[:16]) != string(key) {
			t.Fatalf("key %x: round key 0 is %x", key, e.rk[:16])
		}
		std, err := aes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := scratch.New(key)
		if err != nil {
			t.Fatal(err)
		}
		var lanes [13 * aes.BlockSize]byte
		rng.Read(lanes[:])
		in := lanes
		encryptLanesAESNI(&e.rk, lanes[:])
		for off := 0; off < len(lanes); off += aes.BlockSize {
			var want, ref [aes.BlockSize]byte
			std.Encrypt(want[:], in[off:off+aes.BlockSize])
			oracle.Encrypt(ref[:], in[off:off+aes.BlockSize])
			if got := [aes.BlockSize]byte(lanes[off : off+aes.BlockSize]); got != want || got != ref {
				t.Fatalf("key %x lane %d: kernel %x, crypto/aes %x, oracle %x", key, off/aes.BlockSize, got, want, ref)
			}
		}
	}
}
