package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

// goldenImageConfig is a 16-page AISE+BMT controller with a Page Root
// Directory.
func goldenImageConfig() Config {
	return Config{
		DataBytes:  16 * layout.PageSize,
		Key:        []byte("0123456789abcdef"),
		Encryption: AISE,
		Integrity:  BonsaiMT,
		MACBits:    128,
		SwapSlots:  8,
	}
}

// TestGoldenHibernateImage pins the exact bytes of the untrusted memory
// image Hibernate writes after a deterministic history: a whole-page
// write, an unaligned span across a page boundary, single blocks, a
// minor-counter overflow that re-encrypts a page, and a swap-out that
// fills a Page Root Directory slot, with half the pages never touched.
// The hash was captured from the block-map memory model; any change to
// how untrusted memory stores or serializes blocks must leave it intact,
// so images written by earlier builds keep resuming.
func TestGoldenHibernateImage(t *testing.T) {
	s, err := New(goldenImageConfig())
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, layout.PageSize)
	for i := range page {
		page[i] = byte(i*7 + 1)
	}
	if err := s.Write(0, page, Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(2*layout.PageSize-100, page[:300], Meta{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		blk := pattern(byte(0x50 + i))
		if err := s.WriteBlock(layout.Addr(5*layout.PageSize+i*3*layout.BlockSize), &blk, Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	hot := pattern(0x90)
	for i := 0; i <= layout.MinorCounterMax; i++ {
		hot[0] = byte(i)
		if err := s.WriteBlock(6*layout.PageSize+0x40, &hot, Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().PageReencrypts == 0 {
		t.Fatal("history did not overflow a minor counter")
	}
	if _, err := s.SwapOut(layout.PageSize, 3); err != nil {
		t.Fatal(err)
	}

	var img bytes.Buffer
	chip, err := s.Hibernate(&img)
	if err != nil {
		t.Fatal(err)
	}
	const want = "84af719da13ab764f1fe5246fb51c2ed95a9197b0f776e62a83f5ac9ab42784a"
	sum := sha256.Sum256(img.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("hibernation image sha256 = %s, want %s (IMAGE FORMAT CHANGED)", got, want)
	}

	r, err := Resume(goldenImageConfig(), chip, bytes.NewReader(img.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.VerifyAll(); err != nil {
		t.Fatalf("VerifyAll after resume: %v", err)
	}
	var got mem.Block
	if err := r.ReadBlock(6*layout.PageSize+0x40, &got, Meta{}); err != nil || got != hot {
		t.Errorf("overflowed block after resume: err %v, match %v", err, got == hot)
	}
}
