package counter

import (
	"testing"

	"aisebmt/internal/mem"
)

// FuzzDecodeEncode: on an arbitrary 64-byte block the codec must agree with
// the bit-serial oracle in both directions, decoding and re-encoding must
// be a fixed point (Decode∘Encode∘Decode = Decode), and minor counters
// must always fit in 7 bits.
func FuzzDecodeEncode(f *testing.F) {
	f.Add(make([]byte, 64))
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i*37 + 1)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, raw []byte) {
		var blk mem.Block
		copy(blk[:], raw)
		cb := DecodeBlock(blk)
		if want := decodeBitSerial(blk); cb != want {
			t.Fatalf("decode diverged from the bit-serial oracle: %+v vs %+v", cb, want)
		}
		// The raw bytes double as a counter block with the unused eighth
		// bit of some minors set; Encode must ignore it as the oracle does.
		loose := Block{LPID: cb.LPID}
		copy(loose.Minor[:], raw)
		if got, want := loose.Encode(), encodeBitSerial(&loose); got != want {
			t.Fatalf("encode diverged from the bit-serial oracle: %x vs %x", got, want)
		}
		for i, m := range cb.Minor {
			if m > 0x7f {
				t.Fatalf("minor[%d] = %#x exceeds 7 bits", i, m)
			}
		}
		again := DecodeBlock(cb.Encode())
		if again != cb {
			t.Fatalf("decode/encode not a fixed point: %+v vs %+v", cb, again)
		}
	})
}
