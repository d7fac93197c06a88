package core

import (
	"math/rand"
	"testing"

	"aisebmt/internal/counter"
	"aisebmt/internal/integrity"
	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

// seedKey is what fixes a data block's pads under AISE.
type seedKey struct {
	lpid  uint64
	minor uint8
	block layout.Addr
}

// reuseWatch is a bus analyzer with the processor key: it recovers the
// seed every data block was sealed under and fails on keystream reuse —
// one (LPID, minor, block) sealing two different ciphertexts, that is two
// different plaintexts under one pad. A sealed block's seed is found from
// its data MAC, which binds ciphertext, LPID and minor: when the MAC slot
// that follows a data write reaches memory, the watch tries every minor
// under every LPID the page can have held during the op.
type reuseWatch struct {
	t      *testing.T
	s      *SecureMemory
	shadow *integrity.DataMACStore // recomputes a tag from a copied slot
	shMem  *mem.Memory

	sealed   map[seedKey]mem.Block
	pending  map[layout.Addr]mem.Block // data writes awaiting their MAC
	held     map[layout.Addr]uint64    // each page's LPID when the op began
	gpcStart uint64                    // the GPC when the op began
	writes   int
}

func newReuseWatch(t *testing.T, s *SecureMemory) *reuseWatch {
	w := &reuseWatch{t: t, s: s, sealed: map[seedKey]mem.Block{}, pending: map[layout.Addr]mem.Block{}, held: map[layout.Addr]uint64{}}
	w.shMem = mem.New(s.macRegion.Size)
	var err error
	if w.shadow, err = integrity.NewDataMACStore(w.shMem, testKey, s.cfg.MACBits, 0, 0); err != nil {
		t.Fatal(err)
	}
	s.mem.Observer = w.observe
	return w
}

// counters returns the counter block of a's page as memory holds it.
func (w *reuseWatch) counters(a layout.Addr) counter.Block {
	return counter.DecodeBlock(w.s.mem.Snapshot(w.s.split.BlockAddr(a)))
}

// begin opens an op: a page's LPID now, and every LPID the GPC issues
// until end, are the candidates for the seeds its blocks are sealed under.
func (w *reuseWatch) begin() {
	for page := layout.Addr(0); page < layout.Addr(w.s.cfg.DataBytes); page += layout.PageSize {
		w.held[page] = w.counters(page).LPID
	}
	w.gpcStart = w.s.gpc.Value()
}

func (w *reuseWatch) observe(op string, a layout.Addr) {
	if op != "write" {
		return
	}
	if w.s.dataRegion.Contains(a) {
		w.pending[a] = w.s.mem.Snapshot(a)
		return
	}
	if !w.s.macRegion.Contains(a) {
		return
	}
	macBytes := w.s.cfg.MACBits / 8
	for b, ct := range w.pending {
		slot := w.s.dataMACs.SlotAddr(b)
		if slot.BlockAddr() != a {
			continue
		}
		delete(w.pending, b)
		tag := w.s.mem.Snapshot(a)
		off := int(slot - a)
		w.shMem.Write(w.shadow.SlotAddr(b), tag[off:off+macBytes])
		w.record(b, ct)
	}
}

// record finds the seed ct was sealed under and checks it against every
// earlier seal under that seed.
func (w *reuseWatch) record(b layout.Addr, ct mem.Block) {
	w.writes++
	lpid := w.held[b.PageAddr()]
	for next := w.gpcStart; ; lpid, next = next, next+1 {
		for m := 0; m <= layout.MinorCounterMax; m++ {
			if w.shadow.Verify(b, &ct, lpid, uint8(m)) == nil {
				w.check(seedKey{lpid, uint8(m), b}, ct, "sealed")
				return
			}
		}
		if next == w.s.gpc.Value() {
			break
		}
	}
	w.t.Fatalf("block %#x was stored with a MAC under no seed its page could hold", b)
}

func (w *reuseWatch) check(k seedKey, ct mem.Block, how string) {
	if prev, ok := w.sealed[k]; ok && prev != ct {
		w.t.Fatalf("keystream reuse: block %#x %s under LPID %d minor %d twice, with different plaintexts", k.block, how, k.lpid, k.minor)
	}
	w.sealed[k] = ct
}

// end closes an op: every data write was matched to its MAC, and every
// block of the region at rest agrees with the seals seen on the bus.
func (w *reuseWatch) end() {
	if len(w.pending) != 0 {
		w.t.Fatalf("%d data writes were never followed by their MAC", len(w.pending))
	}
	for page := layout.Addr(0); page < layout.Addr(w.s.cfg.DataBytes); page += layout.PageSize {
		cb := w.counters(page)
		if cb.LPID == 0 {
			continue
		}
		for i := 0; i < layout.BlocksPerPage; i++ {
			b := page + layout.Addr(i*layout.BlockSize)
			w.check(seedKey{cb.LPID, cb.Minor[i], b}, w.s.mem.Snapshot(b), "at rest")
		}
	}
}

// TestNoKeystreamReuseAcrossOverflow drives random span writes over a
// small region and steers minor-counter overflows into the first, a middle
// and the last block of a span, watching every seal on the bus for
// keystream reuse. A pipeline that bumped a whole span before sealing it
// would seal the blocks ahead of the overflow twice under the new LPID at
// minor 0: once from their old contents during re-encryption, once from
// their new ones.
func TestNoKeystreamReuseAcrossOverflow(t *testing.T) {
	const size = 4 * layout.PageSize
	s, err := New(Config{DataBytes: size, MACBits: 128, Key: testKey, Encryption: AISE, Integrity: BonsaiMT})
	if err != nil {
		t.Fatal(err)
	}
	w := newReuseWatch(t, s)
	rng := rand.New(rand.NewSource(36))
	write := func(a layout.Addr, n int) {
		t.Helper()
		buf := make([]byte, n)
		rng.Read(buf)
		w.begin()
		if err := s.Write(a, buf, Meta{}); err != nil {
			t.Fatalf("Write(%#x, %d): %v", a, n, err)
		}
		w.end()
	}
	// spanAround writes a span of the hot block's page that puts the hot
	// block at the given position, with unaligned ends.
	spanAround := func(hot layout.Addr, pos string) {
		bip := hot.BlockInPage()
		lo, hi := bip, bip
		switch pos {
		case "first":
			hi = bip + 1 + rng.Intn(layout.BlocksPerPage-bip-1)
		case "middle":
			lo, hi = bip-1-rng.Intn(bip), bip+1+rng.Intn(layout.BlocksPerPage-bip-1)
		case "last":
			lo = bip - 1 - rng.Intn(bip)
		}
		page := hot.PageAddr()
		from := page + layout.Addr(lo*layout.BlockSize+rng.Intn(layout.BlockSize))
		to := page + layout.Addr(hi*layout.BlockSize+1+rng.Intn(layout.BlockSize))
		if pos == "first" {
			from = page + layout.Addr(lo*layout.BlockSize) // the hot block must be in the span
		}
		write(from, int(to-from))
	}

	overflows := map[string]int{}
	for round := 0; round < 12; round++ {
		for i := 0; i < 10; i++ {
			n := 1 + rng.Intn(2*layout.PageSize)
			write(layout.Addr(rng.Intn(size-n)), n)
		}
		pos := []string{"first", "middle", "last"}[round%3]
		page := layout.Addr(rng.Intn(size/layout.PageSize)) * layout.PageSize
		hot := page + layout.Addr((1+rng.Intn(layout.BlocksPerPage-2))*layout.BlockSize)
		for w.counters(hot).Minor[hot.BlockInPage()] < layout.MinorCounterMax {
			write(hot, layout.BlockSize)
		}
		before := s.Stats().PageReencrypts
		spanAround(hot, pos)
		if s.Stats().PageReencrypts != before+1 {
			t.Fatalf("round %d: a span with the hot block %s did not overflow", round, pos)
		}
		overflows[pos]++
	}
	t.Logf("%d seals watched; overflows by position %v", w.writes, overflows)
	if err := s.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}
