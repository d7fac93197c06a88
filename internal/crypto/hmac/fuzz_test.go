package hmac

import (
	"bytes"
	stdhmac "crypto/hmac"
	stdsha1 "crypto/sha1"
	"testing"
)

// FuzzAgainstStdlib differentially fuzzes the HMAC against crypto/hmac over
// crypto/sha1 for any key (including long keys that get pre-hashed) and
// message, at every supported tag width. Widths up to 160 bits must be
// prefixes of the stdlib tag; the 256-bit widening must equal the
// two-invocation domain-separated construction expressed in stdlib terms.
func FuzzAgainstStdlib(f *testing.F) {
	f.Add([]byte("k"), []byte("message"))
	f.Add(make([]byte, 64), make([]byte, 0))
	f.Add(bytes.Repeat([]byte{0x5c}, 100), bytes.Repeat([]byte{0x36}, 200))
	f.Fuzz(func(t *testing.T, key, msg []byte) {
		std := stdhmac.New(stdsha1.New, key)
		std.Write(msg)
		want := std.Sum(nil)

		if got := MAC(key, msg); got != [20]byte(want) {
			t.Fatalf("MAC(%x, %x) = %x, stdlib %x", key, msg, got, want)
		}

		for _, bits := range ValidSizes {
			tag, err := Sized(key, msg, bits)
			if err != nil {
				t.Fatal(err)
			}
			if bits <= 160 {
				if !bytes.Equal(tag, want[:bits/8]) {
					t.Fatalf("%d bits: tag %x is not a stdlib prefix %x", bits, tag, want[:bits/8])
				}
				continue
			}
			// 256-bit widening: HMAC(key, 0x00‖msg) ‖ HMAC(key, 0x01‖msg)[:12].
			h0 := stdhmac.New(stdsha1.New, key)
			h0.Write([]byte{0x00})
			h0.Write(msg)
			h1 := stdhmac.New(stdsha1.New, key)
			h1.Write([]byte{0x01})
			h1.Write(msg)
			wide := append(h0.Sum(nil), h1.Sum(nil)[:12]...)
			if !bytes.Equal(tag, wide) {
				t.Fatalf("256 bits: tag %x != stdlib widening %x", tag, wide)
			}
		}
	})
}
