package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"testing"
)

// FuzzAgainstStdlib differentially fuzzes the cipher against crypto/aes:
// for any key and block, Encrypt must match the stdlib and Decrypt must
// invert it.
func FuzzAgainstStdlib(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), []byte("fedcba9876543210"))
	f.Add(make([]byte, 16), make([]byte, 16))
	f.Add(bytes.Repeat([]byte{0xff}, 16), bytes.Repeat([]byte{0xa5}, 16))
	f.Fuzz(func(t *testing.T, key, block []byte) {
		if len(key) < 16 || len(block) < 16 {
			return
		}
		key = key[:16]
		block = block[:16]
		c, err := New(key)
		if err != nil {
			t.Fatal(err)
		}
		std, err := stdaes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		var got, want, back [16]byte
		c.Encrypt(got[:], block)
		std.Encrypt(want[:], block)
		if got != want {
			t.Fatalf("key %x block %x: encrypt %x, stdlib %x", key, block, got, want)
		}
		c.Decrypt(back[:], got[:])
		if !bytes.Equal(back[:], block) {
			t.Fatalf("key %x: decrypt(encrypt(p)) = %x, want %x", key, back, block)
		}
	})
}
