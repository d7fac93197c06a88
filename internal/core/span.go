package core

import (
	"fmt"

	"aisebmt/internal/counter"
	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

// The page span is the controller's unit of work. Read, Write and VerifyAll
// cut a request at page boundaries and run each piece — a run of blocks
// inside one page — through one pipeline pass. ReadBlock and WriteBlock are
// the one-block span.
//
// Under AISE the span is also the unit of pad generation and of transfer.
// The page's counter block is fetched once per span into a counter.Block on
// the stack that plays the on-chip counter-cache line, and it alone fixes
// every pad of the span: the seed is LPID ‖ minor ‖ block-in-page ‖ chunk,
// all known before any ciphertext arrives (the paper's "latency hiding:
// good"). So a span opens in one pass (openSpan): one transfer of its data
// blocks, one check of their MACs — one transfer of their contiguous MAC
// slots under Bonsai — and all their pads in one kernel call, XORed in
// place. It seals in one pass the other way (sealRun): pads, XOR, one
// transfer of the ciphertext, one MAC-slot transfer. A fetch span
// authenticates the counter block leaf-to-root once; a writeback span bumps
// minors in its copy, seals, then encodes and stores the counter block once
// and queues one tree update.
//
// Overflow ordering. A minor that overflows mid-span re-keys the page:
// fresh LPID, every minor cleared, every other block re-sealed from memory
// by reencryptPage. The span's blocks before the overflowing one are sealed
// under the old counter block before reencryptPage runs (sealSpan).
// Otherwise reencryptPage would seal their old contents under the new LPID
// at minor 0 and the span its new contents under the same seed: one pad
// over two plaintexts, the keystream reuse AISE exists to prevent.
//
// The other seed schemes have no counter block to batch under; their spans
// open and seal block by block (openBlock, sealBlock).
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
// page's counter block is authenticated against the root and every data
// MAC of a written page recomputed, but nothing is decrypted.
//
// The pages go in address order inside one tree sweep: pending updates are
// committed first, and each walk then stops at the first node storage
// block an earlier walk of the sweep authenticated. Every interior node is
// MAC'd at most once per call, a tamper is blamed exactly as a walk to the
// root would blame it, and nothing verified outlives the call. Identical
// blocks at a tree level share one tag, so the vacant pages of a sweep cost
// one counter-block MAC, not one each.
func (s *SecureMemory) VerifyAll() error {
	if s.tree != nil {
		if err := s.treeBarrier(); err != nil {
			return err
		}
		s.tree.BeginSweep()
		defer s.tree.EndSweep()
	}
	for page := layout.Addr(0); page < layout.Addr(s.cfg.DataBytes); page += layout.PageSize {
		if err := s.verifyPage(page); err != nil {
			return err
		}
	}
	return nil
}

// verifyPage is VerifyAll's span: one whole page through the fetch
// pipeline, verified and not decrypted. A vacant AISE page (LPID 0) ends
// with its counter block's walk: nothing is sealed under LPID 0, so there
// is no data or data MAC to transfer and no minor counter to decode. A Read
// of the same page still transfers its blocks (openSpan), so what crosses
// the bus on the request path does not depend on vacancy.
func (s *SecureMemory) verifyPage(page layout.Addr) error {
	if s.split == nil {
		return s.readSpan(page, layout.PageSize, nil, Meta{})
	}
	blocks := s.spanBlocks[:layout.BlocksPerPage]
	raw, err := s.fetchCounterBlock(page, len(blocks), true)
	if err != nil || counter.Vacant(&raw) {
		return err
	}
	cb := counter.DecodeBlock(raw)
	return s.openSpan(page, blocks, &cb, false, Meta{})
}

// fetchCounters brings the counter block of a's page on chip for a span of
// nblk blocks (fetchCounterBlock) and decodes it.
func (s *SecureMemory) fetchCounters(a layout.Addr, nblk int, verify bool) (counter.Block, error) {
	raw, err := s.fetchCounterBlock(a, nblk, verify)
	if err != nil || s.split == nil {
		return counter.Block{}, err
	}
	return counter.DecodeBlock(raw), nil
}

// fetchCounterBlock fetches the encoded counter block of a's page for a
// span of nblk blocks (a zero block without split counters). With verify
// set, the fetched bytes are authenticated through the tree (when one
// covers the counters) before they are returned, after committing whatever
// tree updates an open batch window has deferred.
func (s *SecureMemory) fetchCounterBlock(a layout.Addr, nblk int, verify bool) (mem.Block, error) {
	var raw mem.Block
	if verify {
		// Verification reads tree state: commit any updates the open batch
		// window has deferred (no-op outside a window).
		if err := s.treeBarrier(); err != nil {
			return raw, err
		}
	}
	if s.split == nil {
		return raw, nil
	}
	ctrAddr := s.split.BlockAddr(a)
	s.mem.ReadBlock(ctrAddr, &raw)
	s.touchCtrSpan(ctrAddr, nblk)
	if verify && s.tree != nil {
		s.stats.TreeVerifies++
		s.touchTreeWalk(ctrAddr)
		if err := s.tree.VerifyContent(ctrAddr, &raw); err != nil {
			return raw, tampered("counter ", err)
		}
	}
	return raw, nil
}

// readSpan runs the n bytes at a, all inside one page, through the fetch
// pipeline and copies their plaintext to dst. A nil dst verifies without
// decrypting.
func (s *SecureMemory) readSpan(a layout.Addr, n int, dst []byte, meta Meta) error {
	first := a.BlockAddr()
	off := int(a - first)
	blocks := s.spanBlocks[:(off+n+layout.BlockSize-1)/layout.BlockSize]
	cb, err := s.fetchCounters(first, len(blocks), true)
	if err != nil {
		return err
	}
	if err := s.openSpan(first, blocks, &cb, dst != nil, meta); err != nil {
		return err
	}
	if dst != nil {
		gather(dst, blocks, off)
	}
	return nil
}

// openSpan fetches a run of consecutive blocks of one page, starting at
// first, into blocks, verifies them under the configured scheme — for AISE
// against cb, the span's trusted counter copy — and, with decrypt set,
// decrypts them in place. Under AISE nothing is decrypted before every
// block of the run has verified.
func (s *SecureMemory) openSpan(first layout.Addr, blocks []mem.Block, cb *counter.Block, decrypt bool, meta Meta) error {
	if s.split == nil {
		for i := range blocks {
			var dst *mem.Block
			if decrypt {
				dst = &blocks[i]
			}
			if err := s.openBlock(first+layout.Addr(i*layout.BlockSize), dst, meta); err != nil {
				return err
			}
		}
		return nil
	}
	s.mem.ReadBlocks(first, blocks)
	s.stats.BlockReads += uint64(len(blocks))
	if cb.LPID == 0 {
		// Vacant page: LPID 0 is the tamper-evident free state, and the
		// span already verified the claim. The processor gets zeros.
		clear(blocks)
		return nil
	}
	if err := s.verifyRun(first, blocks, cb); err != nil {
		return err
	}
	if decrypt {
		s.ctrMode.DecryptSpan(blocks, blocks, cb.LPID, &cb.Minor, first.BlockInPage())
	}
	return nil
}

// verifyRun checks a run of AISE ciphertext blocks from first under the
// configured integrity scheme, in address order, so the first failure is
// the one a block-at-a-time read would report.
func (s *SecureMemory) verifyRun(first layout.Addr, cts []mem.Block, cb *counter.Block) error {
	if s.dataMACs != nil {
		// The data MACs against the guaranteed-fresh counters (§5.2).
		if err := s.dataMACs.VerifySpan(first, cts, cb.LPID, &cb.Minor); err != nil {
			return tampered("", err)
		}
		return nil
	}
	for i := range cts {
		a := first + layout.Addr(i*layout.BlockSize)
		if s.groupMACs != nil {
			if err := s.groupMACs.Verify(a, *cb); err != nil {
				return tampered("", err)
			}
			continue
		}
		if err := s.checkBlock(a, &cts[i]); err != nil {
			return err
		}
	}
	return nil
}

// checkBlock verifies one data block's ciphertext ct under the MAC-only
// and Merkle tree schemes; the others keep no per-block check.
func (s *SecureMemory) checkBlock(a layout.Addr, ct *mem.Block) error {
	var err error
	switch s.cfg.Integrity {
	case MACOnly:
		err = s.macOnly.Verify(a, ct)
	case MerkleTree:
		s.stats.TreeVerifies++
		s.touchTreeWalk(a)
		err = s.tree.VerifyContent(a, ct)
	}
	if err != nil {
		return tampered("", err)
	}
	return nil
}

// openBlock is one block's fetch under a scheme without AISE counter
// blocks: fetch the data block at a, verify it, decrypt it into dst (nil:
// verify only).
func (s *SecureMemory) openBlock(a layout.Addr, dst *mem.Block, meta Meta) error {
	var ct mem.Block
	s.mem.ReadBlock(a, &ct)
	s.stats.BlockReads++
	if s.ctrRegion.Size > 0 {
		s.touchCtr(s.ctrSlotBlock(a))
	}
	if err := s.checkBlock(a, &ct); err != nil {
		return err
	}
	// The per-block counter fetched to decrypt is a memory read too; it is
	// covered by the tree and verified with the data block.
	if s.cfg.Integrity == MerkleTree && s.ctrRegion.Size > 0 {
		if err := s.tree.VerifyBlock(s.ctrSlotBlock(a)); err != nil {
			return tampered("counter ", err)
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
	off := int(a - first)
	end := off + len(src)
	blocks := s.spanBlocks[:(end+layout.BlockSize-1)/layout.BlockSize]
	n := len(blocks)
	partialHead := off != 0 || end < layout.BlockSize
	partialTail := n > 1 && end%layout.BlockSize != 0

	// A partially covered block is a read-modify-write, and what it reads
	// must be verified: the span's counter copy is then authenticated up
	// front, and the old plaintext is opened against it before anything is
	// bumped.
	cb, err := s.fetchCounters(first, n, partialHead || partialTail)
	if err != nil {
		return err
	}
	if partialHead {
		if err := s.openSpan(first, blocks[:1], &cb, true, meta); err != nil {
			return err
		}
	}
	if partialTail {
		last := first + layout.Addr((n-1)*layout.BlockSize)
		if err := s.openSpan(last, blocks[n-1:], &cb, true, meta); err != nil {
			return err
		}
	}
	scatter(blocks, off, src)

	if s.split == nil {
		for i := range blocks {
			if err := s.sealBlock(first+layout.Addr(i*layout.BlockSize), &blocks[i], meta); err != nil {
				return err
			}
			s.stats.BlockWrites++
		}
		return nil
	}

	// resealed: the whole page, not just the span, was sealed afresh.
	page := first.PageAddr()
	resealed := false
	if cb.LPID == 0 {
		if err := s.initializePage(page, &cb, first.BlockInPage(), n); err != nil {
			return err
		}
		resealed = true
	}
	overflowed, err := s.sealSpan(first, blocks, &cb)
	if err != nil {
		return err
	}
	s.stats.BlockWrites += uint64(n)
	resealed = resealed || overflowed

	if s.groupMACs != nil {
		from, to := first, first+layout.Addr((n-1)*layout.BlockSize)
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

// sealSpan bumps the minor counter of each block of an AISE span in cb and
// seals the span's plaintext, in blocks, under the result. It reports
// whether a minor overflowed and the page was re-encrypted. On overflow the
// blocks bumped so far are sealed under the old counter block first, and
// only then is the page re-encrypted (the overflow ordering rule above).
func (s *SecureMemory) sealSpan(first layout.Addr, blocks []mem.Block, cb *counter.Block) (overflowed bool, err error) {
	b0, start := first.BlockInPage(), 0
	for i := range blocks {
		if cb.Minor[b0+i] < layout.MinorCounterMax {
			cb.Bump(b0+i, s.gpc)
			continue
		}
		if err := s.sealRun(first+layout.Addr(start*layout.BlockSize), blocks[start:i], cb); err != nil {
			return false, err
		}
		old := *cb
		cb.Bump(b0+i, s.gpc)
		if err := s.reencryptPage(first.PageAddr(), &old, cb, b0+i); err != nil {
			return true, err
		}
		start, overflowed = i, true
	}
	return overflowed, s.sealRun(first+layout.Addr(start*layout.BlockSize), blocks[start:], cb)
}

// sealRun is the writeback of a run of consecutive blocks of one page under
// cb as it stands: encrypt the plaintext in blocks in place, store the run
// in one transfer, refresh the blocks' own integrity metadata. Group MACs
// and the counter block are the span's to refresh, once.
func (s *SecureMemory) sealRun(first layout.Addr, blocks []mem.Block, cb *counter.Block) error {
	s.ctrMode.EncryptSpan(blocks, blocks, cb.LPID, &cb.Minor, first.BlockInPage())
	s.mem.WriteBlocks(first, blocks)
	if s.dataMACs != nil {
		s.dataMACs.UpdateSpan(first, blocks, cb.LPID, &cb.Minor)
		return nil
	}
	for i := range blocks {
		if err := s.refreshBlock(first+layout.Addr(i*layout.BlockSize), &blocks[i]); err != nil {
			return err
		}
	}
	return nil
}

// refreshBlock refreshes one stored data block's integrity metadata under
// the MAC-only and Merkle tree schemes; the others keep none per block.
func (s *SecureMemory) refreshBlock(a layout.Addr, ct *mem.Block) error {
	switch s.cfg.Integrity {
	case MACOnly:
		s.macOnly.Update(a, ct)
	case MerkleTree:
		if err := s.treeUpdate(a); err != nil {
			return err
		}
		s.stats.TreeUpdates++
		s.touchTreeWalk(a)
	}
	return nil
}

// sealBlock is one block's writeback under a scheme without AISE counter
// blocks: encrypt plain under a fresh counter, store the ciphertext,
// refresh the block's integrity metadata.
func (s *SecureMemory) sealBlock(a layout.Addr, plain *mem.Block, meta Meta) error {
	if s.ctrRegion.Size > 0 {
		s.touchCtr(s.ctrSlotBlock(a))
	}
	var ct mem.Block
	switch s.cfg.Encryption {
	case NoEncryption:
		ct = *plain
	case DirectEncryption:
		s.direct.EncryptBlock(&ct, plain)
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
	if err := s.refreshBlock(a, &ct); err != nil {
		return err
	}
	// Per-block counter storage written by the encryption step is covered
	// too.
	if s.cfg.Integrity == MerkleTree && s.ctrRegion.Size > 0 {
		if err := s.treeUpdate(s.ctrSlotBlock(a)); err != nil {
			return err
		}
		s.stats.TreeUpdates++
		s.touchTreeWalk(s.ctrSlotBlock(a))
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
	zero := s.pageBlocks[:]
	clear(zero)
	if err := s.sealRun(page, zero[:skip], cb); err != nil {
		return err
	}
	return s.sealRun(page+layout.Addr((skip+n)*layout.BlockSize), zero[skip+n:], cb)
}

// reencryptPage re-encrypts a whole page after a minor-counter overflow:
// every block is decrypted under the old counter block and sealed under
// the fresh LPID in new (§4.3), in two runs around the overflowing block.
// Blocks keep their data; integrity metadata is refreshed. The overflowing
// block itself (index except) is skipped: the span seals its new contents
// next, and its old contents must not meet the pad its new contents are
// about to use.
func (s *SecureMemory) reencryptPage(page layout.Addr, old, new *counter.Block, except int) error {
	s.stats.PageReencrypts++
	for _, run := range [2][2]int{{0, except}, {except + 1, layout.BlocksPerPage}} {
		a := page + layout.Addr(run[0]*layout.BlockSize)
		blocks := s.pageBlocks[run[0]:run[1]]
		s.mem.ReadBlocks(a, blocks)
		s.ctrMode.DecryptSpan(blocks, blocks, old.LPID, &old.Minor, run[0])
		if err := s.sealRun(a, blocks, new); err != nil {
			return err
		}
	}
	return nil
}

// gather copies the bytes of blocks from offset off of the first one into
// dst, until dst is full.
func gather(dst []byte, blocks []mem.Block, off int) {
	for i := range blocks {
		n := copy(dst, blocks[i][off:])
		dst, off = dst[n:], 0
	}
}

// scatter copies src into blocks from offset off of the first one on.
func scatter(blocks []mem.Block, off int, src []byte) {
	for i := range blocks {
		n := copy(blocks[i][off:], src)
		src, off = src[n:], 0
	}
}
