package hmac

import (
	"encoding/hex"
	"testing"
)

// TestGoldenSizedTags pins the truncation/widening construction at every
// supported width with values captured before the midstate overhaul. The
// 256-bit row in particular freezes the two-invocation domain-separated
// widening; these tags live in persisted snapshots and swapped-out page
// images, so drift is a compatibility break.
func TestGoldenSizedTags(t *testing.T) {
	key := []byte("0123456789abcdef")
	msg := []byte("the quick brown fox jumps over the lazy dog, padded past one block boundary....")
	golden := map[int]string{
		32:  "b40d626c",
		64:  "b40d626c55a3ce75",
		128: "b40d626c55a3ce7512f5dd0e478a1d67",
		160: "b40d626c55a3ce7512f5dd0e478a1d67777478e7",
		256: "04781e0814a4ff448f5f2849a3060f84b5437d6b30054da6f93da8764df83a80",
	}
	for _, bits := range ValidSizes {
		tag, err := Sized(key, msg, bits)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(tag); got != golden[bits] {
			t.Errorf("%d-bit tag = %s, want %s (MAC FORMAT CHANGED)", bits, got, golden[bits])
		}
	}
}
