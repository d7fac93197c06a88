package mem

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"aisebmt/internal/layout"
)

// TestPageFootprint pins what a fully written memory costs: one 4096-byte
// frame per page plus the directory, within 1% of the memory size. A page
// frame even eight bytes larger lands in the 4864-byte size class (+18%).
func TestPageFootprint(t *testing.T) {
	const size = 4 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := New(size)
	var b Block
	for a := layout.Addr(0); a < size; a += layout.BlockSize {
		b[0] = byte(a / layout.BlockSize)
		m.WriteBlock(a, &b)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown, limit := int64(after.HeapAlloc)-int64(before.HeapAlloc), int64(size+size/100); grown > limit {
		t.Errorf("writing every block of a %d-byte memory grew the heap by %d bytes, limit %d", size, grown, limit)
	}
	if m.PopulatedBlocks() != size/layout.BlockSize || m.ResidentBytes() != size {
		t.Errorf("populated %d blocks, resident %d bytes; want %d, %d", m.PopulatedBlocks(), m.ResidentBytes(), size/layout.BlockSize, size)
	}
	runtime.KeepAlive(m)
}

// TestAccessesDoNotAllocate: once a page has its frame, block and byte
// accesses to it allocate nothing; reading a page never stored allocates
// nothing and stores nothing.
func TestAccessesDoNotAllocate(t *testing.T) {
	m := New(1 << 20)
	m.Write(0, make([]byte, 2*layout.PageSize))
	var b Block
	buf := make([]byte, 300)
	for name, fn := range map[string]func(){
		"ReadBlock":  func() { m.ReadBlock(0x40, &b) },
		"WriteBlock": func() { m.WriteBlock(0x1040, &b) },
		"Read":       func() { m.Read(layout.PageSize-100, buf) },
		"Write":      func() { m.Write(layout.PageSize-100, buf) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s on a touched page: %.1f allocs, want 0", name, n)
		}
	}

	populated, resident := m.PopulatedBlocks(), m.ResidentBytes()
	untouched := layout.Addr(8 * layout.PageSize)
	for name, fn := range map[string]func(){
		"ReadBlock": func() { m.ReadBlock(untouched+0x80, &b) },
		"Read":      func() { m.Read(untouched-8, buf) },
		"Snapshot":  func() { b = m.Snapshot(untouched) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s on an untouched page: %.1f allocs, want 0", name, n)
		}
	}
	if m.PopulatedBlocks() != populated || m.ResidentBytes() != resident {
		t.Errorf("reads populated blocks: %d→%d blocks, %d→%d resident bytes",
			populated, m.PopulatedBlocks(), resident, m.ResidentBytes())
	}
	if b != (Block{}) {
		t.Error("untouched page does not read as zero")
	}
}

// TestConcurrentAttackerAccess: an attacker goroutine tampers, snapshots
// and images the memory while the controller reads and writes, first
// touches of pages included. Run under -race; afterwards the image must
// still round-trip.
func TestConcurrentAttackerAccess(t *testing.T) {
	const size = 32 * layout.PageSize
	m := New(size)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(1))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a := layout.Addr(r.Intn(size - 8))
			switch i % 4 {
			case 0:
				m.Tamper(a, Block{byte(i)})
			case 1:
				m.TamperBytes(a, []byte{1, 2, 3, 4, 5, 6, 7})
			case 2:
				m.Snapshot(a)
			case 3:
				if err := m.Serialize(io.Discard); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	var b Block
	buf := make([]byte, 200)
	for pass := 0; pass < 2; pass++ {
		for a := layout.Addr(0); a < size; a += layout.BlockSize {
			b[1] = byte(a)
			m.WriteBlock(a, &b)
			m.ReadBlock(a, &b)
			if a%layout.PageSize == layout.PageSize-layout.BlockSize && a+layout.PageSize < size {
				m.Write(a+40, buf)
				m.Read(a+40, buf)
			}
		}
	}
	close(stop)
	wg.Wait()

	var img bytes.Buffer
	if err := m.Serialize(&img); err != nil {
		t.Fatal(err)
	}
	back := New(size)
	if err := back.Deserialize(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	back.Serialize(&again)
	if !bytes.Equal(img.Bytes(), again.Bytes()) || back.PopulatedBlocks() != size/layout.BlockSize {
		t.Errorf("image after concurrent access does not round-trip (populated %d)", back.PopulatedBlocks())
	}
}

// TestConcurrentSpanTransfers: an attacker goroutine tampers while the
// controller moves page spans with ReadBlocks and WriteBlocks, first
// touches of pages included. Run under -race; the traffic counters, which
// only the controller side updates, must count every block.
func TestConcurrentSpanTransfers(t *testing.T) {
	const size = 32 * layout.PageSize
	m := New(size)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(2))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a := layout.Addr(r.Intn(size - 8))
			if i%2 == 0 {
				m.Tamper(a, Block{byte(i)})
			} else {
				m.TamperBytes(a, []byte{1, 2, 3, 4, 5, 6, 7})
			}
		}
	}()
	var span [layout.BlocksPerPage]Block
	var blocks uint64
	for pass := 0; pass < 4; pass++ {
		for a := layout.Addr(0); a < size; a += layout.PageSize {
			n := 1 + int(a/layout.PageSize+layout.Addr(pass))%layout.BlocksPerPage
			for i := range span[:n] {
				span[i] = Block{0: byte(pass), 1: byte(i)}
			}
			first := a + layout.Addr((layout.BlocksPerPage-n)*layout.BlockSize)
			m.WriteBlocks(first, span[:n])
			m.ReadBlocks(first, span[:n])
			blocks += uint64(n)
		}
	}
	close(stop)
	wg.Wait()
	if m.Reads != blocks || m.Writes != blocks {
		t.Errorf("traffic %d reads, %d writes; want %d each", m.Reads, m.Writes, blocks)
	}
}

// blockStore is what the benchmarks drive, so each runs against the page
// directory and the map reference in one binary.
type blockStore interface {
	ReadBlock(layout.Addr, *Block)
	WriteBlock(layout.Addr, *Block)
	Serialize(io.Writer) error
}

// benchStores returns a page directory and a map reference, both with
// every block of a 4MiB memory written.
func benchStores() map[string]blockStore {
	const size = 4 << 20
	stores := map[string]blockStore{"pagedir": New(size), "map": newMapMemory(size)}
	for _, s := range stores {
		var b Block
		for a := layout.Addr(0); a < size; a += layout.BlockSize {
			b[0] = byte(a / layout.BlockSize)
			s.WriteBlock(a, &b)
		}
	}
	return stores
}

// benchAddr strides through the memory so successive accesses hit
// different pages, as the controller's data, counter, MAC and tree
// fetches do.
func benchAddr(i int) layout.Addr {
	return layout.Addr(uint64(i)*(layout.PageSize+layout.BlockSize)) % (4 << 20)
}

func BenchmarkReadBlock(b *testing.B) {
	for name, s := range benchStores() {
		b.Run(name, func(b *testing.B) {
			var blk Block
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.ReadBlock(benchAddr(i), &blk)
			}
		})
	}
}

func BenchmarkWriteBlock(b *testing.B) {
	for name, s := range benchStores() {
		b.Run(name, func(b *testing.B) {
			var blk Block
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				blk[0] = byte(i)
				s.WriteBlock(benchAddr(i), &blk)
			}
		})
	}
}

func BenchmarkSerialize(b *testing.B) {
	for name, s := range benchStores() {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(4 << 20)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := s.Serialize(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
