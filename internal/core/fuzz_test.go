package core

import (
	"bytes"
	"testing"

	"aisebmt/internal/layout"
)

// FuzzWriteRead fuzzes the byte-granular protected path: any (offset, data)
// written through the controller must read back identically, and the span
// pipeline must leave the controller where the same bytes issued one block
// at a time leave a twin.
func FuzzWriteRead(f *testing.F) {
	f.Add(uint32(0), []byte("hello"))
	f.Add(uint32(4090), []byte("crosses a page boundary right here"))
	f.Add(uint32(63), []byte{0})
	sm, err := New(Config{
		DataBytes: 64 << 10, MACBits: 128, Key: testKey,
		Encryption: AISE, Integrity: BonsaiMT,
	})
	if err != nil {
		f.Fatal(err)
	}
	twin, err := New(sm.Config())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, off uint32, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		a := layout.Addr(off) % layout.Addr(64<<10-len(data))
		if err := sm.Write(a, data, Meta{}); err != nil {
			t.Fatalf("Write(%#x, %d bytes): %v", a, len(data), err)
		}
		got := make([]byte, len(data))
		if err := sm.Read(a, got, Meta{}); err != nil {
			t.Fatalf("Read(%#x): %v", a, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip at %#x diverged", a)
		}
		if err := writeBlockwise(twin, a, data, Meta{}); err != nil {
			t.Fatalf("blockwise write(%#x, %d bytes): %v", a, len(data), err)
		}
		if !bytes.Equal(sm.Root(), twin.Root()) {
			t.Fatalf("Write(%#x, %d bytes) and the blockwise write left different roots", a, len(data))
		}
	})
}
