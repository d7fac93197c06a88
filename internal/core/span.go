package core

import (
	"fmt"

	"aisebmt/internal/counter"
	"aisebmt/internal/encrypt"
	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

// The page span is the controller's unit of work. Read, Write and VerifyAll
// cut a request at page boundaries and run each piece — a run of blocks
// inside one page — through one pipeline pass. Under AISE the page's
// counter block is fetched once per span into a counter.Block on the stack
// that plays the on-chip counter-cache line: a fetch span authenticates
// the fetched bytes leaf-to-root against the on-chip root once, then every
// block of the span is MAC-checked and decrypted against that trusted
// copy; a writeback span bumps minors in the copy, seals each block, then
// encodes and stores the counter block once and queues one tree update.
// ReadBlock and WriteBlock are the one-block span.
//
// The line never outlives the call. Every call starts from untrusted
// memory, so a tampered counter block, MAC or tree node is refused by the
// next access that depends on it, exactly as when each block walked the
// tree itself: the controller is one serialized pipeline, nobody else
// touches memory between two blocks of a span, and the per-block walks the
// span drops re-verified the same bytes against the same root.

func (s *SecureMemory) checkData(a layout.Addr) error {
	if !s.dataRegion.Contains(a) {
		return fmt.Errorf("core: %#x outside data region", a)
	}
	return nil
}

// checkRange refuses a byte range that leaves the data region, naming the
// first address outside it.
func (s *SecureMemory) checkRange(a layout.Addr, n int) error {
	if n == 0 {
		return nil
	}
	if err := s.checkData(a); err != nil {
		return err
	}
	if room := s.cfg.DataBytes - uint64(a); uint64(n) > room {
		return s.checkData(a + layout.Addr(room))
	}
	return nil
}

// spanLen returns how many of the n bytes starting at a fall in a's page.
func spanLen(a layout.Addr, n int) int {
	return min(n, layout.PageSize-int(a.PageOffset()))
}

// tampered wraps an integrity engine's verdict so that errors.Is matches
// ErrTampered and errors.As still reaches the *integrity.Error blame.
func tampered(what string, err error) error {
	return fmt.Errorf("%w: %s%w", ErrTampered, what, err)
}

// Read copies len(dst) plaintext bytes starting at address a, verifying and
// decrypting every touched block. It fails closed as a whole: on any error
// no plaintext is left in dst.
func (s *SecureMemory) Read(a layout.Addr, dst []byte, meta Meta) error {
	if err := s.checkRange(a, len(dst)); err != nil {
		return err
	}
	for done := 0; done < len(dst); {
		n := spanLen(a, len(dst)-done)
		if err := s.readSpan(a, n, dst[done:done+n], meta); err != nil {
			clear(dst)
			return err
		}
		done += n
		a += layout.Addr(n)
	}
	return nil
}

// Write stores len(src) plaintext bytes starting at address a, performing a
// verified read-modify-write on partially covered blocks.
func (s *SecureMemory) Write(a layout.Addr, src []byte, meta Meta) error {
	if err := s.checkRange(a, len(src)); err != nil {
		return err
	}
	for len(src) > 0 {
		n := spanLen(a, len(src))
		if err := s.writeSpan(a, src[:n], meta); err != nil {
			return err
		}
		src = src[n:]
		a += layout.Addr(n)
	}
	return nil
}

// ReadBlock is the fetch path: the controller fetches ciphertext, verifies
// integrity according to the configured scheme, decrypts, and hands the
// plaintext to the processor. Integrity violations are reported wrapping
// ErrTampered and leave dst zeroed.
func (s *SecureMemory) ReadBlock(a layout.Addr, dst *mem.Block, meta Meta) error {
	return s.Read(a.BlockAddr(), dst[:], meta)
}

// WriteBlock is the writeback path: the processor evicts a dirty plaintext
// block, the controller encrypts it under a fresh counter, stores it, and
// updates integrity metadata. For CtrVirt the caller must supply the
// virtual address and PID in meta.
func (s *SecureMemory) WriteBlock(a layout.Addr, plain *mem.Block, meta Meta) error {
	return s.Write(a.BlockAddr(), plain[:], meta)
}

// VerifyAll sweeps the entire data region through the verification path,
// returning the first integrity violation found (or nil). It models a
// background scrubber and is the library's recovery-time audit: every
// page's counter block is walked to the root and every data MAC recomputed,
// but nothing is decrypted.
func (s *SecureMemory) VerifyAll() error {
	for page := layout.Addr(0); page < layout.Addr(s.cfg.DataBytes); page += layout.PageSize {
		if err := s.readSpan(page, layout.PageSize, nil, Meta{}); err != nil {
			return err
		}
	}
	return nil
}

// fetchCounters brings the counter block of a's page on chip for a span of
// nblk blocks. With verify set, the fetched bytes are authenticated through
// the tree (when one covers the counters) before they are decoded, after
// committing whatever tree updates an open batch window has deferred.
func (s *SecureMemory) fetchCounters(a layout.Addr, nblk int, verify bool) (counter.Block, error) {
	if verify {
		// Verification reads tree state: commit any updates the open batch
		// window has deferred (no-op outside a window).
		if err := s.treeBarrier(); err != nil {
			return counter.Block{}, err
		}
	}
	if s.split == nil {
		return counter.Block{}, nil
	}
	ctrAddr := s.split.BlockAddr(a)
	var raw mem.Block
	s.mem.ReadBlock(ctrAddr, &raw)
	s.touchCtrSpan(ctrAddr, nblk)
	if verify && s.tree != nil {
		s.stats.TreeVerifies++
		s.touchTreeWalk(ctrAddr)
		if err := s.tree.VerifyContent(ctrAddr, &raw); err != nil {
			return counter.Block{}, tampered("counter ", err)
		}
	}
	return counter.DecodeBlock(raw), nil
}

// readSpan runs the n bytes at a, all inside one page, through the fetch
// pipeline and copies their plaintext to dst. A nil dst verifies without
// decrypting.
func (s *SecureMemory) readSpan(a layout.Addr, n int, dst []byte, meta Meta) error {
	off := int(a - a.BlockAddr())
	cb, err := s.fetchCounters(a, (off+n+layout.BlockSize-1)/layout.BlockSize, true)
	if err != nil {
		return err
	}
	for done := 0; done < n; {
		ba := (a + layout.Addr(done)).BlockAddr()
		take := min(n-done, layout.BlockSize-off)
		switch {
		case dst == nil:
			err = s.openBlock(ba, nil, &cb, meta)
		case take == layout.BlockSize:
			err = s.openBlock(ba, (*mem.Block)(dst[done:done+take]), &cb, meta)
		default:
			var blk mem.Block
			err = s.openBlock(ba, &blk, &cb, meta)
			copy(dst[done:done+take], blk[off:])
		}
		if err != nil {
			return err
		}
		done, off = done+take, 0
	}
	return nil
}

// openBlock fetches the data block at a, verifies it under the configured
// scheme — for AISE against cb, the span's trusted counter copy — and
// decrypts it into dst (nil: verify only).
func (s *SecureMemory) openBlock(a layout.Addr, dst *mem.Block, cb *counter.Block, meta Meta) error {
	var ct mem.Block
	s.mem.ReadBlock(a, &ct)
	s.stats.BlockReads++
	if s.split == nil && s.ctrRegion.Size > 0 {
		s.touchCtr(s.ctrSlotBlock(a))
	}
	minor := cb.Minor[a.BlockInPage()]
	if s.split != nil && cb.LPID == 0 {
		// Vacant page: LPID 0 is the tamper-evident free state, and the
		// span already verified the claim. The processor gets zeros.
		if dst != nil {
			*dst = mem.Block{}
		}
		return nil
	}

	switch s.cfg.Integrity {
	case MACOnly:
		if err := s.macOnly.Verify(a, &ct); err != nil {
			return tampered("", err)
		}
	case MerkleTree:
		s.stats.TreeVerifies++
		s.touchTreeWalk(a)
		if err := s.tree.VerifyContent(a, &ct); err != nil {
			return tampered("", err)
		}
		// The per-block counter fetched to decrypt is a memory read too; it
		// is covered by the tree and verified with the data block. (An AISE
		// span verified its one counter block up front.)
		if s.split == nil && s.ctrRegion.Size > 0 {
			if err := s.tree.VerifyBlock(s.ctrSlotBlock(a)); err != nil {
				return tampered("counter ", err)
			}
		}
	case BonsaiMT:
		// The data MAC against the guaranteed-fresh counter (§5.2).
		var err error
		if s.groupMACs != nil {
			err = s.groupMACs.Verify(a, *cb)
		} else {
			err = s.dataMACs.Verify(a, &ct, cb.LPID, minor)
		}
		if err != nil {
			return tampered("", err)
		}
	}
	if dst == nil {
		return nil
	}

	switch s.cfg.Encryption {
	case NoEncryption:
		*dst = ct
	case DirectEncryption:
		s.direct.DecryptBlock(dst, &ct)
	case AISE:
		s.ctrMode.DecryptBlock(dst, &ct, s.seedFor(a, meta, uint64(minor), cb.LPID))
	case CtrPhys, CtrVirt:
		s.ctrMode.DecryptBlock(dst, &ct, s.seedFor(a, meta, s.perBlock.Get(a), 0))
	case CtrGlobal32, CtrGlobal64:
		s.ctrMode.DecryptBlock(dst, &ct, s.seedFor(a, meta, s.global.Stored(a), 0))
	}
	return nil
}

// writeSpan runs src, which lands at a and stays inside one page, through
// the writeback pipeline.
func (s *SecureMemory) writeSpan(a layout.Addr, src []byte, meta Meta) error {
	first := a.BlockAddr()
	page := first.PageAddr()
	off := int(a - first)
	end := off + len(src)
	nblk := (end + layout.BlockSize - 1) / layout.BlockSize
	last := first + layout.Addr((nblk-1)*layout.BlockSize)
	partialHead := off != 0 || end < layout.BlockSize
	partialTail := nblk > 1 && end%layout.BlockSize != 0

	// A partially covered block is a read-modify-write, and what it reads
	// must be verified: the span's counter copy is then authenticated up
	// front, and the old plaintext is opened against it before anything is
	// bumped.
	cb, err := s.fetchCounters(first, nblk, partialHead || partialTail)
	if err != nil {
		return err
	}
	var head, tail mem.Block
	if partialHead {
		if err := s.openBlock(first, &head, &cb, meta); err != nil {
			return err
		}
	}
	if partialTail {
		if err := s.openBlock(last, &tail, &cb, meta); err != nil {
			return err
		}
	}

	// resealed: the whole page, not just the span, was sealed afresh.
	resealed := false
	if s.split != nil && cb.LPID == 0 {
		if err := s.initializePage(page, &cb, first.BlockInPage(), nblk); err != nil {
			return err
		}
		resealed = true
	}
	for i := 0; i < nblk; i++ {
		ba := first + layout.Addr(i*layout.BlockSize)
		var plain *mem.Block
		switch {
		case i == 0 && partialHead:
			copy(head[off:], src)
			plain = &head
		case i == nblk-1 && partialTail:
			copy(tail[:], src[i*layout.BlockSize-off:])
			plain = &tail
		default:
			plain = (*mem.Block)(src[i*layout.BlockSize-off:])
		}
		if s.split != nil {
			old := cb
			if cb.Bump(ba.BlockInPage(), s.gpc) {
				if err := s.reencryptPage(page, &old, &cb, ba.BlockInPage()); err != nil {
					return err
				}
				resealed = true
			}
		}
		if err := s.sealBlock(ba, plain, &cb, meta); err != nil {
			return err
		}
		s.stats.BlockWrites++
	}
	if s.split == nil {
		return nil
	}

	if s.groupMACs != nil {
		from, to := first, last
		if resealed {
			from, to = page, page+layout.PageSize-layout.BlockSize
		}
		step := layout.Addr(s.groupMACs.Coverage() * layout.BlockSize)
		for g := from &^ (step - 1); g <= to; g += step {
			s.groupMACs.Update(g, cb)
		}
	}
	s.split.Store(page, cb)
	if s.tree != nil {
		ctrAddr := s.split.BlockAddr(page)
		if err := s.treeUpdate(ctrAddr); err != nil {
			return err
		}
		s.stats.TreeUpdates++
		s.touchTreeWalk(ctrAddr)
	}
	return nil
}

// sealBlock is one block's writeback: encrypt plain under the block's
// current counter (for AISE the one in cb, which the caller has bumped),
// store the ciphertext, refresh the block's own integrity metadata. Group
// MACs and the AISE counter block are the span's to refresh, once.
func (s *SecureMemory) sealBlock(a layout.Addr, plain *mem.Block, cb *counter.Block, meta Meta) error {
	if s.split == nil && s.ctrRegion.Size > 0 {
		s.touchCtr(s.ctrSlotBlock(a))
	}
	var ct mem.Block
	minor := cb.Minor[a.BlockInPage()]
	switch s.cfg.Encryption {
	case NoEncryption:
		ct = *plain
	case DirectEncryption:
		s.direct.EncryptBlock(&ct, plain)
	case AISE:
		s.ctrMode.EncryptBlock(&ct, plain, s.seedFor(a, meta, uint64(minor), cb.LPID))
	case CtrPhys, CtrVirt:
		v, _ := s.perBlock.Increment(a)
		s.ctrMode.EncryptBlock(&ct, plain, s.seedFor(a, meta, v, 0))
	case CtrGlobal32, CtrGlobal64:
		v, wrapped := s.global.Next()
		if wrapped {
			if err := s.reencryptAllGlobal(); err != nil {
				return err
			}
			v, _ = s.global.Next()
		}
		s.global.SetStored(a, v)
		s.ctrMode.EncryptBlock(&ct, plain, s.seedFor(a, meta, v, 0))
	}
	s.mem.WriteBlock(a, &ct)

	switch s.cfg.Integrity {
	case MACOnly:
		s.macOnly.Update(a, &ct)
	case BonsaiMT:
		if s.dataMACs != nil {
			s.dataMACs.Update(a, &ct, cb.LPID, minor)
		}
	case MerkleTree:
		if err := s.treeUpdate(a); err != nil {
			return err
		}
		s.stats.TreeUpdates++
		s.touchTreeWalk(a)
		// Per-block counter storage written by the encryption step is
		// covered too. (An AISE span refreshes its one counter block.)
		if s.split == nil && s.ctrRegion.Size > 0 {
			if err := s.treeUpdate(s.ctrSlotBlock(a)); err != nil {
				return err
			}
			s.stats.TreeUpdates++
			s.touchTreeWalk(s.ctrSlotBlock(a))
		}
	}
	return nil
}

// initializePage gives a vacant page a fresh LPID in cb and an
// encrypted-zero image with matching integrity metadata — the secure
// analogue of the OS zeroing a frame at allocation. The n blocks from
// block index skip on are left out: the allocating span is about to seal
// them itself. Cost: up to one page of pad generation and MAC work,
// charged to the allocating write, never to page movement.
func (s *SecureMemory) initializePage(page layout.Addr, cb *counter.Block, skip, n int) error {
	*cb = counter.Block{LPID: s.gpc.Next()}
	var zero mem.Block
	for i := 0; i < layout.BlocksPerPage; i++ {
		if i >= skip && i < skip+n {
			continue
		}
		if err := s.sealBlock(page+layout.Addr(i*layout.BlockSize), &zero, cb, Meta{}); err != nil {
			return err
		}
	}
	return nil
}

// reencryptPage re-encrypts a whole page after a minor-counter overflow:
// every block is decrypted under the old counter block and sealed under
// the fresh LPID in new (§4.3). Blocks keep their data; integrity metadata
// is refreshed. The overflowing block itself (index except) is skipped:
// the span seals its new contents next, and its old contents must not meet
// the pad its new contents are about to use.
func (s *SecureMemory) reencryptPage(page layout.Addr, old, new *counter.Block, except int) error {
	s.stats.PageReencrypts++
	for i := 0; i < layout.BlocksPerPage; i++ {
		if i == except {
			continue
		}
		a := page + layout.Addr(i*layout.BlockSize)
		var ct, plain mem.Block
		s.mem.ReadBlock(a, &ct)
		s.ctrMode.DecryptBlock(&plain, &ct, encrypt.SeedInput{PhysAddr: a, LPID: old.LPID, Counter: uint64(old.Minor[i])})
		if err := s.sealBlock(a, &plain, new, Meta{}); err != nil {
			return err
		}
	}
	return nil
}
