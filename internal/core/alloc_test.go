package core

import (
	"bytes"
	"testing"

	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

// TestHotPathZeroAlloc pins the crypto hot-path overhaul's contract: once a
// page is initialized, the steady-state writeback and fetch paths of the
// paper's AISE+BMT configuration perform zero heap allocations — pad
// generation, data MACs and the Bonsai tree walk all run out of per-engine
// scratch, and a page span keeps its counter-cache line on the stack.
func TestHotPathZeroAlloc(t *testing.T) {
	s, err := New(Config{
		DataBytes:  1 << 20,
		Key:        []byte("0123456789abcdef"),
		Encryption: AISE,
		Integrity:  BonsaiMT,
	})
	if err != nil {
		t.Fatal(err)
	}
	var blk mem.Block
	for i := range blk {
		blk[i] = byte(i)
	}
	// Warm up: the first write allocates the page (LPID assignment, lazy
	// memory blocks); steady state begins afterwards.
	if err := s.WriteBlock(0x4000, &blk, Meta{}); err != nil {
		t.Fatal(err)
	}
	var out mem.Block
	var opErr error
	allocs := testing.AllocsPerRun(200, func() {
		if e := s.WriteBlock(0x4000, &blk, Meta{}); e != nil {
			opErr = e
		}
		if e := s.ReadBlock(0x4000, &out, Meta{}); e != nil {
			opErr = e
		}
	})
	if opErr != nil {
		t.Fatal(opErr)
	}
	if allocs != 0 {
		t.Errorf("steady-state write+read allocates %.1f times per op, want 0", allocs)
	}
	if out != blk {
		t.Error("round trip corrupted the block")
	}

	// The same contract for a whole-page span and for the sweep.
	page := bytes.Repeat(blk[:], layout.BlocksPerPage)
	got := make([]byte, layout.PageSize)
	if err := s.Write(0x8000, page, Meta{}); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(20, func() {
		if e := s.Write(0x8000, page, Meta{}); e != nil {
			opErr = e
		}
		if e := s.Read(0x8000, got, Meta{}); e != nil {
			opErr = e
		}
		if e := s.VerifyAll(); e != nil {
			opErr = e
		}
	})
	if opErr != nil {
		t.Fatal(opErr)
	}
	if allocs != 0 {
		t.Errorf("steady-state 4KiB write+read+VerifyAll allocates %.1f times per op, want 0", allocs)
	}
	if !bytes.Equal(got, page) {
		t.Error("round trip corrupted the page")
	}
}

// TestHotPathZeroAllocGlobal64 covers the global-counter baseline path,
// which fetches stored counters on every read.
func TestHotPathZeroAllocGlobal64(t *testing.T) {
	s, err := New(Config{
		DataBytes:  1 << 20,
		Key:        []byte("0123456789abcdef"),
		Encryption: CtrGlobal64,
	})
	if err != nil {
		t.Fatal(err)
	}
	var blk mem.Block
	blk[0] = 0xa5
	if err := s.WriteBlock(0x8000, &blk, Meta{}); err != nil {
		t.Fatal(err)
	}
	var out mem.Block
	var opErr error
	allocs := testing.AllocsPerRun(200, func() {
		if e := s.WriteBlock(0x8000, &blk, Meta{}); e != nil {
			opErr = e
		}
		if e := s.ReadBlock(0x8000, &out, Meta{}); e != nil {
			opErr = e
		}
	})
	if opErr != nil {
		t.Fatal(opErr)
	}
	if allocs != 0 {
		t.Errorf("global64 write+read allocates %.1f times per op, want 0", allocs)
	}
}
