package hmac

import (
	"bytes"
	stdhmac "crypto/hmac"
	stdsha1 "crypto/sha1"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

// RFC 2202 HMAC-SHA1 test vectors.
var rfc2202 = []struct {
	key, data []byte
	want      string
}{
	{bytes.Repeat([]byte{0x0b}, 20), []byte("Hi There"), "b617318655057264e28bc0b6fb378c8ef146be00"},
	{[]byte("Jefe"), []byte("what do ya want for nothing?"), "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"},
	{bytes.Repeat([]byte{0xaa}, 20), bytes.Repeat([]byte{0xdd}, 50), "125d7342b9ac11cd91a39af48aa17b4f63f175d3"},
	{bytes.Repeat([]byte{0xaa}, 80), []byte("Test Using Larger Than Block-Size Key - Hash Key First"), "aa4ae5e15272d00e95705637ce8a3b55ed402112"},
}

func TestRFC2202(t *testing.T) {
	for i, v := range rfc2202 {
		got := MAC(v.key, v.data)
		if hex.EncodeToString(got[:]) != v.want {
			t.Errorf("vector %d: got %x, want %s", i, got, v.want)
		}
	}
}

func TestMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		key := make([]byte, rng.Intn(100))
		msg := make([]byte, rng.Intn(200))
		rng.Read(key)
		rng.Read(msg)
		got := MAC(key, msg)
		ref := stdhmac.New(stdsha1.New, key)
		ref.Write(msg)
		if !bytes.Equal(got[:], ref.Sum(nil)) {
			t.Fatalf("key %x msg %x: mismatch vs stdlib", key, msg)
		}
	}
}

func TestSizedWidths(t *testing.T) {
	key := []byte("k")
	msg := []byte("m")
	for _, bits := range ValidSizes {
		tag, err := Sized(key, msg, bits)
		if err != nil {
			t.Fatalf("Sized(%d): %v", bits, err)
		}
		if len(tag) != bits/8 {
			t.Errorf("Sized(%d) returned %d bytes", bits, len(tag))
		}
	}
	if _, err := Sized(key, msg, 48); err == nil {
		t.Error("Sized(48): want error")
	}
}

// TestSizedTruncationConsistent: a truncated tag must be a prefix of the
// full tag for widths <= 160.
func TestSizedTruncationConsistent(t *testing.T) {
	key := []byte("secret")
	msg := []byte("block contents")
	full := MAC(key, msg)
	for _, bits := range []int{32, 64, 128, 160} {
		tag, err := Sized(key, msg, bits)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tag, full[:bits/8]) {
			t.Errorf("Sized(%d) is not a prefix of the full MAC", bits)
		}
	}
}

// Test256DomainSeparation: the 256-bit tag must not simply repeat the
// 160-bit tag, and must differ across messages.
func Test256DomainSeparation(t *testing.T) {
	key := []byte("secret")
	t1, _ := Sized(key, []byte("a"), 256)
	t2, _ := Sized(key, []byte("b"), 256)
	if bytes.Equal(t1, t2) {
		t.Fatal("256-bit MACs collide across messages")
	}
	if bytes.Equal(t1[:20], t1[20:]) {
		t.Fatal("256-bit MAC halves are identical; domain separation broken")
	}
}

// TestTamperDetection: flipping any single bit of the message changes the MAC
// (property test over random positions).
func TestTamperDetection(t *testing.T) {
	f := func(msg []byte, pos uint16) bool {
		if len(msg) == 0 {
			return true
		}
		key := []byte("k")
		orig := MAC(key, msg)
		mut := append([]byte(nil), msg...)
		mut[int(pos)%len(mut)] ^= 1 << (pos % 8)
		tam := MAC(key, mut)
		return !bytes.Equal(orig[:], tam[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Test256WideningFrozen pins the widened construction bit-for-bit: the
// 256-bit tag must equal HMAC(key, 0x00‖msg) ‖ HMAC(key, 0x01‖msg)[:12],
// computed here with crypto/hmac over explicit prefix concatenation.
func Test256WideningFrozen(t *testing.T) {
	key := []byte("0123456789abcdef")
	msg := []byte("minor counter block contents....")
	var want []byte
	for _, prefix := range []byte{0x00, 0x01} {
		h := stdhmac.New(stdsha1.New, key)
		h.Write(append([]byte{prefix}, msg...))
		want = append(want, h.Sum(nil)...)
	}
	want = want[:32]
	got, err := Sized(key, msg, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("256-bit widening changed:\n got %x\nwant %x", got, want)
	}
}

func TestEqual(t *testing.T) {
	if !Equal([]byte{1, 2, 3}, []byte{1, 2, 3}) {
		t.Error("Equal on identical slices = false")
	}
	if Equal([]byte{1, 2, 3}, []byte{1, 2, 4}) {
		t.Error("Equal on different slices = true")
	}
	if Equal([]byte{1, 2}, []byte{1, 2, 3}) {
		t.Error("Equal on different lengths = true")
	}
}

func BenchmarkMAC64B(b *testing.B) {
	key := []byte("0123456789abcdef")
	msg := make([]byte, 64)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		MAC(key, msg)
	}
}
