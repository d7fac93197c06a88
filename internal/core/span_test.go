package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"aisebmt/internal/integrity"
	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

// readBlockwise and writeBlockwise issue a byte range one block at a time
// through ReadBlock/WriteBlock, read-modify-write on partial blocks — the
// loop Read and Write were before the page-span pipeline. They are the
// reference the span path is held to.
func readBlockwise(s *SecureMemory, a layout.Addr, dst []byte, meta Meta) error {
	for len(dst) > 0 {
		var blk mem.Block
		if err := s.ReadBlock(a, &blk, meta); err != nil {
			return err
		}
		n := copy(dst, blk[int(a)&(layout.BlockSize-1):])
		dst = dst[n:]
		a += layout.Addr(n)
	}
	return nil
}

func writeBlockwise(s *SecureMemory, a layout.Addr, src []byte, meta Meta) error {
	for len(src) > 0 {
		var blk mem.Block
		off := int(a) & (layout.BlockSize - 1)
		if off != 0 || len(src) < layout.BlockSize {
			if err := s.ReadBlock(a, &blk, meta); err != nil {
				return err
			}
		}
		n := copy(blk[off:], src)
		if err := s.WriteBlock(a, &blk, meta); err != nil {
			return err
		}
		src = src[n:]
		a += layout.Addr(n)
	}
	return nil
}

// requireTwins fails unless the two controllers are indistinguishable from
// outside: on-chip root, GPC and — after flushing cached tree nodes — every
// byte of the untrusted memory image.
func requireTwins(t *testing.T, when string, span, twin *SecureMemory) {
	t.Helper()
	if !bytes.Equal(span.Root(), twin.Root()) {
		t.Fatalf("%s: roots differ: span %x, blockwise %x", when, span.Root(), twin.Root())
	}
	if span.GPCImage() != twin.GPCImage() {
		t.Fatalf("%s: GPC differs: span %x, blockwise %x", when, span.GPCImage(), twin.GPCImage())
	}
	var a, b bytes.Buffer
	for _, p := range []struct {
		s *SecureMemory
		w *bytes.Buffer
	}{{span, &a}, {twin, &b}} {
		p.s.FlushTreeNodes()
		if err := p.s.Memory().Serialize(p.w); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("%s: memory images differ", when)
	}
}

// TestSpanMatchesBlockwise drives random unaligned, page-crossing Read and
// Write spans against one controller and the same bytes block-at-a-time
// against a twin, for every scheme family: plaintext, root, GPC and memory
// image must stay identical, inside and outside a tree-batch window, with
// one page driven through a minor-counter overflow in the middle of a span.
func TestSpanMatchesBlockwise(t *testing.T) {
	const size = 16 * layout.PageSize
	base := Config{DataBytes: size, MACBits: 128, Key: testKey, Encryption: AISE, Integrity: BonsaiMT}
	with := func(edit func(*Config)) Config {
		c := base
		edit(&c)
		return c
	}
	cases := map[string]Config{
		"AISE+BMT/32":        with(func(c *Config) { c.MACBits = 32 }),
		"AISE+BMT/64":        with(func(c *Config) { c.MACBits = 64 }),
		"AISE+BMT/128":       base,
		"AISE+BMT/256":       with(func(c *Config) { c.MACBits = 256 }),
		"AISE+BMT/cover8":    with(func(c *Config) { c.MACCoverage = 8 }),
		"AISE+BMT/cover64":   with(func(c *Config) { c.MACCoverage = 64 }),
		"AISE+BMT/nodecache": with(func(c *Config) { c.TreeNodeCacheBlocks = 8; c.TreeUpdateWorkers = 4 }),
		"AISE+MT":            with(func(c *Config) { c.Integrity = MerkleTree }),
		"AISE+MAC":           with(func(c *Config) { c.Integrity = MACOnly }),
		"AISE":               with(func(c *Config) { c.Integrity = NoIntegrity }),
		"global64+MT":        with(func(c *Config) { c.Encryption, c.Integrity = CtrGlobal64, MerkleTree }),
		"global32+MAC":       with(func(c *Config) { c.Encryption, c.Integrity = CtrGlobal32, MACOnly }),
		"phys+MT":            with(func(c *Config) { c.Encryption, c.Integrity = CtrPhys, MerkleTree }),
		"virt":               with(func(c *Config) { c.Encryption, c.Integrity = CtrVirt, NoIntegrity }),
		"direct+MT":          with(func(c *Config) { c.Encryption, c.Integrity = DirectEncryption, MerkleTree }),
		"none+MAC":           with(func(c *Config) { c.Encryption, c.Integrity = NoEncryption, MACOnly }),
	}
	for name, cfg := range cases {
		for _, window := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/window=%v", name, window), func(t *testing.T) {
				span, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				twin, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				meta := Meta{VirtAddr: 0x7000, PID: 3}
				rng := rand.New(rand.NewSource(15))
				write := func(a layout.Addr, src []byte) {
					t.Helper()
					if err := span.Write(a, src, meta); err != nil {
						t.Fatalf("Write(%#x, %d): %v", a, len(src), err)
					}
					if err := writeBlockwise(twin, a, src, meta); err != nil {
						t.Fatalf("blockwise write(%#x, %d): %v", a, len(src), err)
					}
				}
				for op := 0; op < 300; op++ {
					if window && op%5 == 0 {
						span.BeginTreeBatch()
						twin.BeginTreeBatch()
					}
					n := 1 + rng.Intn(300)
					if rng.Intn(5) == 0 {
						n = 1 + rng.Intn(3*layout.PageSize)
					}
					a := layout.Addr(rng.Intn(size - n))
					buf := make([]byte, n)
					if rng.Intn(3) > 0 {
						rng.Read(buf)
						write(a, buf)
					} else {
						want := make([]byte, n)
						if err := span.Read(a, buf, meta); err != nil {
							t.Fatalf("Read(%#x, %d): %v", a, n, err)
						}
						if err := readBlockwise(twin, a, want, meta); err != nil {
							t.Fatalf("blockwise read(%#x, %d): %v", a, n, err)
						}
						if !bytes.Equal(buf, want) {
							t.Fatalf("op %d: Read(%#x, %d) differs from the blockwise read", op, a, n)
						}
					}
					if window && op%5 == 4 {
						if err := span.EndTreeBatch(); err != nil {
							t.Fatal(err)
						}
						if err := twin.EndTreeBatch(); err != nil {
							t.Fatal(err)
						}
						requireTwins(t, fmt.Sprintf("after op %d", op), span, twin)
					}
				}
				requireTwins(t, "after the random ops", span, twin)

				// Overflow mid-span: block 3 of page 2 runs ahead of its
				// neighbours, so a span over blocks 0..5 overflows it after
				// blocks 0..2 were already sealed under the old LPID.
				hot := 2*layout.Addr(layout.PageSize) + 3*layout.BlockSize
				buf := make([]byte, 6*layout.BlockSize-7)
				before := span.Stats().PageReencrypts
				for i := 0; i < 90; i++ {
					buf[0] = byte(i)
					write(hot, buf[:layout.BlockSize])
				}
				for i := 0; i < 60; i++ {
					buf[1] = byte(i)
					write(hot-3*layout.BlockSize+7, buf)
				}
				if cfg.Encryption == AISE && span.Stats().PageReencrypts == before {
					t.Fatal("the hot page never overflowed")
				}
				requireTwins(t, "after the overflow", span, twin)
				if cfg.Encryption != CtrVirt { // a sweep has no virtual addresses to offer
					if err := span.VerifyAll(); err != nil {
						t.Fatalf("VerifyAll: %v", err)
					}
				}
			})
		}
	}
}

// blameOf extracts the integrity engine's verdict from a controller error.
func blameOf(t *testing.T, err error) integrity.Error {
	t.Helper()
	if !errors.Is(err, ErrTampered) {
		t.Fatalf("error %v does not wrap ErrTampered", err)
	}
	var ie *integrity.Error
	if !errors.As(err, &ie) {
		t.Fatalf("error %v carries no *integrity.Error", err)
	}
	return *ie
}

// firstBlockwiseFailure reads [a, a+n) one block at a time and returns the
// first error: the blame a span over the same range must reproduce.
func firstBlockwiseFailure(s *SecureMemory, a layout.Addr, n int) error {
	return readBlockwise(s, a, make([]byte, n), Meta{})
}

// TestSpanTamperMatrix flips one bit in every kind of untrusted state a
// two-page read depends on and holds the span paths — Read, the
// read-modify-write leg of a partial-block Write, VerifyAll — to the blame
// ReadBlock gives, with nothing left in the caller's buffer and nothing
// changed in memory.
func TestSpanTamperMatrix(t *testing.T) {
	const size = 8 * layout.PageSize
	s, err := New(Config{DataBytes: size, MACBits: 128, Key: testKey, Encryption: AISE, Integrity: BonsaiMT})
	if err != nil {
		t.Fatal(err)
	}
	fill := make([]byte, size)
	rand.New(rand.NewSource(4)).Read(fill)
	if err := s.Write(0, fill, Meta{}); err != nil {
		t.Fatal(err)
	}
	// Pages 3 and 4: their counter blocks are leaves 3 and 4, which sit in
	// different level-0 node blocks, so the matrix has nodes on only one
	// page's chain as well as shared ones.
	const spanAt, spanBytes = 3 * layout.Addr(layout.PageSize), 2 * layout.PageSize
	k := spanAt + layout.PageSize + 17*layout.BlockSize // block 17 of page 4

	targets := map[string]layout.Addr{
		"ciphertext": k,
		"MAC slot":   s.dataMACs.SlotAddr(k),
		"counters":   s.split.BlockAddr(k),
	}
	nodes, err := s.tree.NodeAddrs(s.split.BlockAddr(k))
	if err != nil {
		t.Fatal(err)
	}
	for li, n := range nodes {
		targets[fmt.Sprintf("tree level %d", li)] = n
	}
	for name, at := range targets {
		t.Run(name, func(t *testing.T) {
			orig := s.mem.Snapshot(at)
			bad := orig
			bad[int(at)&(layout.BlockSize-1)] ^= 0x10
			s.mem.Tamper(at, bad)
			defer s.mem.Tamper(at, orig)
			var image bytes.Buffer
			if err := s.mem.Serialize(&image); err != nil {
				t.Fatal(err)
			}
			root := s.Root()

			want := blameOf(t, firstBlockwiseFailure(s, spanAt, spanBytes))
			var blk mem.Block
			if name == "ciphertext" || name == "MAC slot" || name == "counters" {
				if got := blameOf(t, s.ReadBlock(k, &blk, Meta{})); got != want {
					t.Fatalf("first blockwise failure %+v is not ReadBlock(k)'s %+v", want, got)
				}
			}

			// Read: same blame, and the page already decrypted is gone too.
			dst := bytes.Repeat([]byte{0xaa}, spanBytes)
			if got := blameOf(t, s.Read(spanAt, dst, Meta{})); got != want {
				t.Errorf("Read blames %+v, blockwise %+v", got, want)
			}
			if !bytes.Equal(dst, make([]byte, spanBytes)) {
				t.Error("Read left bytes in dst after refusing")
			}

			// Partial-block Write into k: the read-modify-write refuses.
			wantK := blameOf(t, s.ReadBlock(k, &blk, Meta{}))
			if got := blameOf(t, s.Write(k+5, []byte("ten bytes!"), Meta{})); got != wantK {
				t.Errorf("partial Write blames %+v, ReadBlock(k) %+v", got, wantK)
			}

			// VerifyAll: the sweep's first failure is the blockwise sweep's.
			wantAll := blameOf(t, firstBlockwiseFailure(s, 0, size))
			if got := blameOf(t, s.VerifyAll()); got != wantAll {
				t.Errorf("VerifyAll blames %+v, blockwise sweep %+v", got, wantAll)
			}

			var after bytes.Buffer
			if err := s.mem.Serialize(&after); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(image.Bytes(), after.Bytes()) || !bytes.Equal(root, s.Root()) {
				t.Error("a refused access changed memory or the root")
			}
		})
	}

	// The matrix restored every flip: the region is clean again.
	if err := s.VerifyAll(); err != nil {
		t.Fatalf("VerifyAll after restoring every flip: %v", err)
	}
	got := make([]byte, size)
	if err := s.Read(0, got, Meta{}); err != nil || !bytes.Equal(got, fill) {
		t.Fatalf("contents after the matrix: err=%v, equal=%v", err, bytes.Equal(got, fill))
	}
}

// TestSpanWorkCounts pins what the counters mean now that a span walks the
// tree once: VerifyAll on a written page recomputes every data MAC, walks
// the counter block to the root once and decrypts nothing, and the
// counter-cache model still sees one access per block.
func TestSpanWorkCounts(t *testing.T) {
	s, err := New(Config{DataBytes: 4 * layout.PageSize, MACBits: 128, Key: testKey, Encryption: AISE, Integrity: BonsaiMT})
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, layout.PageSize)
	rand.New(rand.NewSource(9)).Read(page)
	if err := s.Write(layout.PageSize, page, Meta{}); err != nil {
		t.Fatal(err)
	}
	walk := uint64(1 + s.tree.Levels()) // the leaf MAC plus one node per level
	delta := func(f func()) Stats {
		before := s.Stats()
		f()
		after := s.Stats()
		return Stats{
			BlockReads:     after.BlockReads - before.BlockReads,
			PadGens:        after.PadGens - before.PadGens,
			MACOps:         after.MACOps - before.MACOps,
			TreeVerifies:   after.TreeVerifies - before.TreeVerifies,
			TreeUpdates:    after.TreeUpdates - before.TreeUpdates,
			CtrCacheHits:   after.CtrCacheHits - before.CtrCacheHits,
			CtrCacheMisses: after.CtrCacheMisses - before.CtrCacheMisses,
		}
	}

	d := delta(func() {
		if err := s.VerifyAll(); err != nil {
			t.Fatal(err)
		}
	})
	// Three vacant pages: a tree walk each. The written page: a walk plus
	// one data MAC per block.
	if want := 4*walk + layout.BlocksPerPage; d.MACOps != want || d.TreeVerifies != 4 || d.PadGens != 0 {
		t.Errorf("VerifyAll: %d MACs (want %d), %d tree walks (want 4), %d pads (want 0)", d.MACOps, want, d.TreeVerifies, d.PadGens)
	}
	if want := uint64(4 * layout.BlocksPerPage); d.BlockReads != want || d.CtrCacheHits+d.CtrCacheMisses != want {
		t.Errorf("VerifyAll: %d block reads, %d counter-cache accesses, want %d each", d.BlockReads, d.CtrCacheHits+d.CtrCacheMisses, want)
	}

	d = delta(func() {
		if err := s.Read(layout.PageSize, page, Meta{}); err != nil {
			t.Fatal(err)
		}
	})
	if want := walk + layout.BlocksPerPage; d.MACOps != want || d.TreeVerifies != 1 || d.PadGens != layout.BlocksPerPage*layout.ChunksPerBlock {
		t.Errorf("4KiB Read: %d MACs (want %d), %d tree walks (want 1), %d pads", d.MACOps, want, d.TreeVerifies, d.PadGens)
	}

	d = delta(func() {
		if err := s.Write(layout.PageSize, page, Meta{}); err != nil {
			t.Fatal(err)
		}
	})
	// A whole-block write reads nothing back: 64 data MACs, one tree update.
	if want := walk + layout.BlocksPerPage; d.MACOps != want || d.TreeVerifies != 0 || d.TreeUpdates != 1 {
		t.Errorf("4KiB Write: %d MACs (want %d), %d tree verifies (want 0), %d tree updates (want 1)", d.MACOps, want, d.TreeVerifies, d.TreeUpdates)
	}
}
