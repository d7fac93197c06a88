package aisebmt

// Microbenchmarks for the individual substrates, complementing the
// per-figure benchmarks in bench_test.go.

import (
	"testing"

	"aisebmt/internal/cache"
	"aisebmt/internal/core"
	"aisebmt/internal/counter"
	"aisebmt/internal/encrypt"
	"aisebmt/internal/integrity"
	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
	"aisebmt/internal/sim"
	"aisebmt/internal/trace"
)

// BenchmarkCacheAccess measures the tag-array model's lookup+insert path.
func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(cache.Config{Name: "L2", SizeBytes: 1 << 20, Ways: 8})
	for i := 0; i < b.N; i++ {
		a := layout.Addr(i%100000) * 64
		if !c.Access(a, i%3 == 0) {
			c.Insert(a, cache.Data, false)
		}
	}
}

// BenchmarkTreeVerify measures a functional Merkle verification (full
// chain to the root) over a 64KB region.
func BenchmarkTreeVerify(b *testing.B) {
	m := mem.New(4 << 20)
	tr, err := integrity.NewTree(m, []byte("integrity-test-k"), 128,
		[]mem.Region{{Name: "d", Base: 0, Size: 64 << 10}}, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	tr.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.VerifyBlock(layout.Addr(i%1024) * 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeUpdate measures a functional update chain to the root.
func BenchmarkTreeUpdate(b *testing.B) {
	m := mem.New(4 << 20)
	tr, err := integrity.NewTree(m, []byte("integrity-test-k"), 128,
		[]mem.Region{{Name: "d", Base: 0, Size: 64 << 10}}, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	tr.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.UpdateBlock(layout.Addr(i%1024) * 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCounterBlockCodec measures split-counter pack/unpack.
func BenchmarkCounterBlockCodec(b *testing.B) {
	cb := counter.Block{LPID: 12345}
	for i := range cb.Minor {
		cb.Minor[i] = uint8(i % 128)
	}
	b.SetBytes(layout.BlockSize)
	for i := 0; i < b.N; i++ {
		enc := cb.Encode()
		cb = counter.DecodeBlock(enc)
	}
}

// BenchmarkAESPadGen measures one pad generation (one AES block through
// the counter-mode engine) — the unit of work counter mode performs four
// times per 64-byte cache block.
func BenchmarkAESPadGen(b *testing.B) {
	e, err := encrypt.NewCounterMode([]byte("0123456789abcdef"), encrypt.AISESeed{})
	if err != nil {
		b.Fatal(err)
	}
	var pad [16]byte
	in := encrypt.SeedInput{PhysAddr: 0x4000, LPID: 42, Counter: 7}
	b.SetBytes(int64(len(pad)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.PadInto(&pad, in)
	}
}

// BenchmarkBlockEncrypt measures counter-mode encryption of one 64-byte
// block (four pad generations plus the word-wise XOR), the write path's
// crypto cost. Must run allocation-free.
func BenchmarkBlockEncrypt(b *testing.B) {
	e, err := encrypt.NewCounterMode([]byte("0123456789abcdef"), encrypt.AISESeed{})
	if err != nil {
		b.Fatal(err)
	}
	var src, dst mem.Block
	for i := range src {
		src[i] = byte(i)
	}
	in := encrypt.SeedInput{PhysAddr: 0x4000, LPID: 42, Counter: 7}
	b.SetBytes(layout.BlockSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.EncryptBlock(&dst, &src, in)
	}
}

// BenchmarkDataMACUpdate measures one Bonsai data-MAC computation and store
// (74-byte message through the midstate HMAC). Must run allocation-free.
func BenchmarkDataMACUpdate(b *testing.B) {
	m := mem.New(1 << 20)
	s, err := integrity.NewDataMACStore(m, []byte("integrity-test-k"), 128, 256<<10, 0)
	if err != nil {
		b.Fatal(err)
	}
	var ct mem.Block
	ct[0] = 0xa5
	b.SetBytes(layout.BlockSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Update(0x1040, &ct, 77, uint8(i)&0x7f)
	}
}

// BenchmarkHMACSized256 measures the widened 256-bit tag (two HMAC
// invocations) over the data-MAC message, plus its store.
func BenchmarkHMACSized256(b *testing.B) {
	m := mem.New(1 << 20)
	s, err := integrity.NewDataMACStore(m, []byte("integrity-test-k"), 256, 256<<10, 0)
	if err != nil {
		b.Fatal(err)
	}
	var ct mem.Block
	b.SetBytes(layout.BlockSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Update(0x1040, &ct, 77, uint8(i)&0x7f)
	}
}

// BenchmarkSecureWriteRead measures the full controller round trip under
// the paper's AISE+BMT configuration — every layer of the overhauled hot
// path at once. Must run allocation-free in steady state.
func BenchmarkSecureWriteRead(b *testing.B) {
	s, err := core.New(core.Config{
		DataBytes:  1 << 20,
		Key:        []byte("0123456789abcdef"),
		Encryption: core.AISE,
		Integrity:  core.BonsaiMT,
	})
	if err != nil {
		b.Fatal(err)
	}
	var blk, out mem.Block
	blk[0] = 1
	if err := s.WriteBlock(0x4000, &blk, core.Meta{}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(layout.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WriteBlock(0x4000, &blk, core.Meta{}); err != nil {
			b.Fatal(err)
		}
		if err := s.ReadBlock(0x4000, &out, core.Meta{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGeneration measures the synthetic workload generator.
func BenchmarkTraceGeneration(b *testing.B) {
	p, _ := trace.ProfileByName("mcf")
	g := trace.NewGenerator(p, 0, 1)
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// BenchmarkCMPThroughput measures 4-core simulation speed under the
// heaviest scheme.
func BenchmarkCMPThroughput(b *testing.B) {
	p, _ := trace.ProfileByName("equake")
	rsn := b.N / 4
	if rsn < 100 {
		rsn = 100
	}
	if _, err := sim.RunCMPScheme(sim.SchemeGlobal64MT(128), sim.DefaultMachine(), p, 4, 0, rsn, 3); err != nil {
		b.Fatal(err)
	}
}
