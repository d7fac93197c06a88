package sha1

import (
	"bytes"
	stdsha1 "crypto/sha1"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

// FIPS 180-1 test vectors.
var knownVectors = []struct {
	in   string
	want string
}{
	{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
	{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq", "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
	{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
}

func TestKnownVectors(t *testing.T) {
	for _, v := range knownVectors {
		got := Sum160([]byte(v.in))
		if hex.EncodeToString(got[:]) != v.want {
			t.Errorf("Sum160(%q) = %x, want %s", v.in, got, v.want)
		}
	}
}

func TestMillionA(t *testing.T) {
	// FIPS 180-1: one million 'a' characters.
	d := New()
	chunk := bytes.Repeat([]byte{'a'}, 1000)
	for i := 0; i < 1000; i++ {
		d.Write(chunk)
	}
	want := "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
	if got := hex.EncodeToString(d.Sum(nil)); got != want {
		t.Errorf("million-a digest = %s, want %s", got, want)
	}
}

func TestMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		n := rng.Intn(300)
		data := make([]byte, n)
		rng.Read(data)
		got := Sum160(data)
		want := stdsha1.Sum(data)
		if got != [Size]byte(want) {
			t.Fatalf("len %d: got %x want %x", n, got, want)
		}
	}
}

// TestIncrementalWrite: writing in arbitrary fragments must equal a single
// write (property test).
func TestIncrementalWrite(t *testing.T) {
	f := func(data []byte, cut uint8) bool {
		i := 0
		if len(data) > 0 {
			i = int(cut) % len(data)
		}
		d := New()
		d.Write(data[:i])
		d.Write(data[i:])
		whole := Sum160(data)
		return bytes.Equal(d.Sum(nil), whole[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSumIdempotent: Sum must not disturb the running state.
func TestSumIdempotent(t *testing.T) {
	d := New()
	d.Write([]byte("hello "))
	first := d.Sum(nil)
	second := d.Sum(nil)
	if !bytes.Equal(first, second) {
		t.Fatalf("repeated Sum differs: %x vs %x", first, second)
	}
	d.Write([]byte("world"))
	want := Sum160([]byte("hello world"))
	if !bytes.Equal(d.Sum(nil), want[:]) {
		t.Fatalf("Write after Sum corrupted state")
	}
}

// TestZeroValueUsable: the zero Digest must behave like New().
func TestZeroValueUsable(t *testing.T) {
	var d Digest
	d.Write([]byte("abc"))
	want := Sum160([]byte("abc"))
	if !bytes.Equal(d.Sum(nil), want[:]) {
		t.Fatal("zero-value Digest gave wrong answer")
	}
}

func TestBoundaryLengths(t *testing.T) {
	// Exercise padding edge cases around the 55/56/63/64-byte boundaries.
	for _, n := range []int{54, 55, 56, 57, 63, 64, 65, 119, 120, 128} {
		data := bytes.Repeat([]byte{0xa5}, n)
		got := Sum160(data)
		want := stdsha1.Sum(data)
		if got != [Size]byte(want) {
			t.Errorf("len %d: got %x want %x", n, got, want)
		}
	}
}

// TestSumIntoMatchesSum: the allocation-free finalizer must agree with Sum
// and be idempotent.
func TestSumIntoMatchesSum(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		data := make([]byte, rng.Intn(200))
		rng.Read(data)
		d := New()
		d.Write(data)
		var out, again [Size]byte
		d.SumInto(&out)
		d.SumInto(&again)
		if out != again {
			t.Fatal("SumInto not idempotent")
		}
		if !bytes.Equal(d.Sum(nil), out[:]) {
			t.Fatalf("SumInto disagrees with Sum for len %d", len(data))
		}
	}
}

// TestSumIntoZeroAlloc pins the allocation-free contract of the hot path.
func TestSumIntoZeroAlloc(t *testing.T) {
	var d Digest
	data := make([]byte, 96)
	var out [Size]byte
	allocs := testing.AllocsPerRun(100, func() {
		d.Reset()
		d.Write(data)
		d.SumInto(&out)
	})
	if allocs != 0 {
		t.Fatalf("Write+SumInto allocates %v per op, want 0", allocs)
	}
	if a := testing.AllocsPerRun(100, func() { Sum160(data) }); a != 0 {
		t.Fatalf("Sum160 allocates %v per op, want 0", a)
	}
}

func BenchmarkSum1K(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		Sum160(data)
	}
}

// BenchmarkBlock measures one compression.
func BenchmarkBlock(b *testing.B) {
	var d Digest
	d.Reset()
	var p [BlockSize]byte
	b.SetBytes(BlockSize)
	for i := 0; i < b.N; i++ {
		d.block(p[:])
	}
}
