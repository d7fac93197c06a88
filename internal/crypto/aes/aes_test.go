package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

// fips197Key/Plain/Cipher are the AES-128 example vector from FIPS 197
// Appendix B.
var (
	fips197Key    = mustHex("2b7e151628aed2a6abf7158809cf4f3c")
	fips197Plain  = mustHex("3243f6a8885a308d313198a2e0370734")
	fips197Cipher = mustHex("3925841d02dc09fbdc118597196a0b32")
)

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

func TestFIPS197Vector(t *testing.T) {
	c, err := New(fips197Key)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, BlockSize)
	c.Encrypt(got, fips197Plain)
	if !bytes.Equal(got, fips197Cipher) {
		t.Fatalf("Encrypt = %x, want %x", got, fips197Cipher)
	}
	back := make([]byte, BlockSize)
	c.Decrypt(back, got)
	if !bytes.Equal(back, fips197Plain) {
		t.Fatalf("Decrypt = %x, want %x", back, fips197Plain)
	}
}

// TestAppendixCVector checks the second well-known vector (FIPS 197 Appendix C.1).
func TestAppendixCVector(t *testing.T) {
	key := mustHex("000102030405060708090a0b0c0d0e0f")
	plain := mustHex("00112233445566778899aabbccddeeff")
	want := mustHex("69c4e0d86a7b0430d8cdb78070b4c55a")
	c, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, BlockSize)
	c.Encrypt(got, plain)
	if !bytes.Equal(got, want) {
		t.Fatalf("Encrypt = %x, want %x", got, want)
	}
}

func TestKeySizeError(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 24, 32} {
		if _, err := New(make([]byte, n)); err == nil {
			t.Errorf("New(%d-byte key): want error, got nil", n)
		}
	}
}

// TestMatchesStdlib compares against crypto/aes on random keys and blocks.
func TestMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		key := make([]byte, KeySize)
		rng.Read(key)
		plain := make([]byte, BlockSize)
		rng.Read(plain)

		ours, err := New(key)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := stdaes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, BlockSize)
		want := make([]byte, BlockSize)
		ours.Encrypt(got, plain)
		ref.Encrypt(want, plain)
		if !bytes.Equal(got, want) {
			t.Fatalf("key %x plain %x: got %x want %x", key, plain, got, want)
		}
		back := make([]byte, BlockSize)
		ours.Decrypt(back, got)
		if !bytes.Equal(back, plain) {
			t.Fatalf("round trip failed: %x -> %x", plain, back)
		}
	}
}

// TestEncryptDecryptRoundTrip is a property test: Decrypt∘Encrypt = identity.
func TestEncryptDecryptRoundTrip(t *testing.T) {
	f := func(key [KeySize]byte, plain [BlockSize]byte) bool {
		c, err := New(key[:])
		if err != nil {
			return false
		}
		ct := make([]byte, BlockSize)
		pt := make([]byte, BlockSize)
		c.Encrypt(ct, plain[:])
		c.Decrypt(pt, ct)
		return bytes.Equal(pt, plain[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEncryptInPlace verifies dst==src aliasing is supported.
func TestEncryptInPlace(t *testing.T) {
	c, err := New(fips197Key)
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(nil), fips197Plain...)
	c.Encrypt(buf, buf)
	if !bytes.Equal(buf, fips197Cipher) {
		t.Fatalf("in-place Encrypt = %x, want %x", buf, fips197Cipher)
	}
	c.Decrypt(buf, buf)
	if !bytes.Equal(buf, fips197Plain) {
		t.Fatalf("in-place Decrypt = %x, want %x", buf, fips197Plain)
	}
}

// TestSboxProperties checks the generated S-box is a permutation with the
// known fixed values and that invSbox inverts it.
func TestSboxProperties(t *testing.T) {
	if sbox[0x00] != 0x63 {
		t.Errorf("sbox[0] = %#x, want 0x63", sbox[0x00])
	}
	if sbox[0x53] != 0xed {
		t.Errorf("sbox[0x53] = %#x, want 0xed", sbox[0x53])
	}
	seen := make(map[byte]bool)
	for i := 0; i < 256; i++ {
		v := sbox[i]
		if seen[v] {
			t.Fatalf("sbox not a permutation: duplicate %#x", v)
		}
		seen[v] = true
		if invSbox[v] != byte(i) {
			t.Fatalf("invSbox[sbox[%#x]] = %#x", i, invSbox[v])
		}
	}
}

// TestDistinctKeysDistinctPads: two different keys must never produce the
// same ciphertext for the same block (pad uniqueness across keys).
func TestDistinctKeysDistinctPads(t *testing.T) {
	k1 := mustHex("00000000000000000000000000000000")
	k2 := mustHex("00000000000000000000000000000001")
	c1, _ := New(k1)
	c2, _ := New(k2)
	in := make([]byte, BlockSize)
	o1 := make([]byte, BlockSize)
	o2 := make([]byte, BlockSize)
	c1.Encrypt(o1, in)
	c2.Encrypt(o2, in)
	if bytes.Equal(o1, o2) {
		t.Fatal("different keys produced identical ciphertext")
	}
}

func BenchmarkEncrypt(b *testing.B) {
	c, _ := New(fips197Key)
	buf := make([]byte, BlockSize)
	b.SetBytes(BlockSize)
	for i := 0; i < b.N; i++ {
		c.Encrypt(buf, buf)
	}
}

func BenchmarkDecrypt(b *testing.B) {
	c, _ := New(fips197Key)
	buf := make([]byte, BlockSize)
	b.SetBytes(BlockSize)
	for i := 0; i < b.N; i++ {
		c.Decrypt(buf, buf)
	}
}
