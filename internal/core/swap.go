package core

import (
	"fmt"

	"aisebmt/internal/counter"
	"aisebmt/internal/encrypt"
	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

// PageImage is a swapped-out page as it exists on the untrusted disk: the
// page's ciphertext, its counter block (LPID plus minor counters) and its
// per-block data MACs travel together, exactly as §4.4 prescribes ("moving
// the page in and out of the disk can be accomplished with or without the
// involvement of the processor"). Every byte is attacker-accessible.
type PageImage struct {
	Data     [layout.BlocksPerPage]mem.Block
	Counters mem.Block
	MACs     []byte
}

// Clone returns a deep copy (attackers snapshot images for replay).
func (p *PageImage) Clone() *PageImage {
	cp := *p
	cp.MACs = append([]byte(nil), p.MACs...)
	return &cp
}

// swapSupported reports whether the configured schemes can move pages to
// disk without re-encryption and with integrity intact.
func (s *SecureMemory) swapSupported() error {
	if s.rootDir == nil {
		return fmt.Errorf("%w: no Page Root Directory configured (SwapSlots=0)", ErrUnsupported)
	}
	if s.cfg.Encryption != AISE {
		return fmt.Errorf("%w: %v seeds are address-dependent or lack per-page counters; pages cannot be swapped without re-encryption (§4.2)", ErrUnsupported, s.cfg.Encryption)
	}
	if s.cfg.Integrity != BonsaiMT {
		return fmt.Errorf("%w: extended swap protection is implemented for Bonsai Merkle Trees (§5.1); configured integrity is %v", ErrUnsupported, s.cfg.Integrity)
	}
	return nil
}

// SwapOut removes the page at pageAddr from physical memory into a
// PageImage, installing its page root (the Bonsai tree's MAC over the
// page's counter block) in the Page Root Directory at the given slot. No
// decryption or re-encryption takes place. The vacated frame is marked
// vacant (LPID 0) and reads as zeros until its next allocation.
func (s *SecureMemory) SwapOut(pageAddr layout.Addr, slot int) (*PageImage, error) {
	if err := s.swapSupported(); err != nil {
		return nil, err
	}
	pageAddr = pageAddr.PageAddr()
	if err := s.checkData(pageAddr); err != nil {
		return nil, err
	}
	// The walk below reads tree state; commit any deferred batch first.
	if err := s.treeBarrier(); err != nil {
		return nil, err
	}
	ctrAddr := s.split.BlockAddr(pageAddr)

	// Authenticate the page root before publishing it to the directory.
	if err := s.tree.VerifyBlock(ctrAddr); err != nil {
		return nil, fmt.Errorf("%w: page %#x counters: %v", ErrTampered, pageAddr, err)
	}
	root, err := s.tree.LeafMAC(ctrAddr)
	if err != nil {
		return nil, err
	}
	if err := s.rootDir.Install(slot, root); err != nil {
		return nil, err
	}
	// The directory is a processor-visible write inside tree-covered
	// memory: update its chain.
	if err := s.tree.UpdateBlock(s.rootDir.SlotAddr(slot)); err != nil {
		return nil, err
	}

	img := &PageImage{}
	for i := 0; i < layout.BlocksPerPage; i++ {
		s.mem.ReadBlock(pageAddr+layout.Addr(i*layout.BlockSize), &img.Data[i])
	}
	macBase, macLen := s.pageMACSpan(pageAddr)
	img.MACs = make([]byte, macLen)
	s.mem.Read(macBase, img.MACs)
	s.mem.ReadBlock(ctrAddr, &img.Counters)

	// Vacate the frame: re-initialize it as encrypted zeros under a fresh
	// LPID with matching MACs, so the frame reads as zeroed memory and is
	// ready for its next tenant.
	if err := s.vacateFrame(pageAddr); err != nil {
		return nil, err
	}
	s.stats.SwapOuts++
	return img, nil
}

// pageMACSpan returns the base address and byte length of the contiguous
// MAC storage covering one data page under the configured Bonsai store.
func (s *SecureMemory) pageMACSpan(page layout.Addr) (layout.Addr, int) {
	macBytes := s.cfg.MACBits / 8
	if s.groupMACs != nil {
		return s.groupMACs.SlotAddr(page), layout.BlocksPerPage / s.groupMACs.Coverage() * macBytes
	}
	return s.dataMACs.SlotAddr(page), layout.BlocksPerPage * macBytes
}

// vacateFrame marks a physical frame vacant: its counter block is cleared
// to LPID 0, the tamper-evident "this page is free and reads as zeros"
// state (the tree covers the counter block, so an attacker cannot forge
// vacancy). No cryptographic work happens here; the frame's next tenant is
// initialized lazily on first write, like an OS zeroing pages at
// allocation.
func (s *SecureMemory) vacateFrame(pageAddr layout.Addr) error {
	s.split.Store(pageAddr, counter.Block{})
	if s.tree != nil {
		return s.tree.UpdateBlock(s.split.BlockAddr(pageAddr))
	}
	return nil
}

// SwapIn installs a PageImage into the physical frame at pageAddr,
// verifying the image's counter block against the page root stored in the
// directory slot before any of its contents become reachable (§5.1's
// five-step sequence). The directory slot is cleared on success.
func (s *SecureMemory) SwapIn(img *PageImage, pageAddr layout.Addr, slot int) error {
	if err := s.swapSupported(); err != nil {
		return err
	}
	pageAddr = pageAddr.PageAddr()
	if err := s.checkData(pageAddr); err != nil {
		return err
	}
	if err := s.treeBarrier(); err != nil {
		return err
	}
	// Step 1: fetch the page root through a regular (tree-verified) read.
	if err := s.tree.VerifyBlock(s.rootDir.SlotAddr(slot)); err != nil {
		return fmt.Errorf("%w: page root directory: %v", ErrTampered, err)
	}
	root, err := s.rootDir.Lookup(slot)
	if err != nil {
		return err
	}
	// Step 2: the image's counter block must match the stored page root.
	ctrAddr := s.split.BlockAddr(pageAddr)
	probe := img.Counters
	s.mem.WriteBlock(ctrAddr, &probe)
	if err := s.tree.InstallLeafMAC(ctrAddr, root); err != nil {
		return err
	}
	if err := s.tree.VerifyBlock(ctrAddr); err != nil {
		// Tampered image: restore an empty frame before failing.
		var zero mem.Block
		s.mem.WriteBlock(ctrAddr, &zero)
		if uerr := s.tree.UpdateBlock(ctrAddr); uerr != nil {
			return uerr
		}
		return fmt.Errorf("%w: page %#x: %v", ErrImageMismatch, pageAddr, err)
	}
	// Steps 3-5: install data, MACs; per-block verification happens lazily
	// on each future read against the now-trusted counters.
	for i := 0; i < layout.BlocksPerPage; i++ {
		blk := img.Data[i]
		s.mem.WriteBlock(pageAddr+layout.Addr(i*layout.BlockSize), &blk)
	}
	macBase, macLen := s.pageMACSpan(pageAddr)
	if len(img.MACs) != macLen {
		return fmt.Errorf("%w: swap image MAC section is %d bytes, want %d", ErrTampered, len(img.MACs), macLen)
	}
	s.mem.Write(macBase, img.MACs)
	// Clear the slot; its page root is back in the live tree.
	if err := s.rootDir.Install(slot, make([]byte, s.cfg.MACBits/8)); err != nil {
		return err
	}
	if err := s.tree.UpdateBlock(s.rootDir.SlotAddr(slot)); err != nil {
		return err
	}
	s.stats.SwapIns++
	return nil
}

// MovePage relocates a page from one physical frame to another, modeling a
// virtual-memory remap. Under AISE the page's ciphertext, counter block and
// MACs are copied verbatim — no cryptographic work. Under CtrPhys every
// block must be decrypted with the old frame address and re-encrypted with
// the new one (§4.2's complexity), which the stats expose as pad
// generations and a PageReencrypts tick. Other schemes: global counters
// move freely; CtrVirt cannot be moved by physical address at all.
func (s *SecureMemory) MovePage(oldPage, newPage layout.Addr) error {
	oldPage, newPage = oldPage.PageAddr(), newPage.PageAddr()
	if err := s.checkData(oldPage); err != nil {
		return err
	}
	if err := s.checkData(newPage); err != nil {
		return err
	}
	if err := s.treeBarrier(); err != nil {
		return err
	}
	switch s.cfg.Encryption {
	case AISE:
		var cb mem.Block
		s.mem.ReadBlock(s.split.BlockAddr(oldPage), &cb)
		s.mem.WriteBlock(s.split.BlockAddr(newPage), &cb)
		if s.tree != nil {
			if err := s.tree.UpdateBlock(s.split.BlockAddr(newPage)); err != nil {
				return err
			}
		}
		for i := 0; i < layout.BlocksPerPage; i++ {
			oa := oldPage + layout.Addr(i*layout.BlockSize)
			na := newPage + layout.Addr(i*layout.BlockSize)
			var blk mem.Block
			s.mem.ReadBlock(oa, &blk)
			s.mem.WriteBlock(na, &blk)
			if s.cfg.Integrity == MerkleTree {
				if err := s.tree.UpdateBlock(na); err != nil {
					return err
				}
			}
		}
		if s.cfg.Integrity == BonsaiMT {
			oldBase, macLen := s.pageMACSpan(oldPage)
			newBase, _ := s.pageMACSpan(newPage)
			macs := make([]byte, macLen)
			s.mem.Read(oldBase, macs)
			s.mem.Write(newBase, macs)
		}
		// The source frame is vacated: re-initialized as encrypted zeros
		// under a fresh LPID with consistent metadata.
		return s.vacateFrame(oldPage)
	case CtrPhys:
		s.stats.PageReencrypts++
		for i := 0; i < layout.BlocksPerPage; i++ {
			oa := oldPage + layout.Addr(i*layout.BlockSize)
			na := newPage + layout.Addr(i*layout.BlockSize)
			var ct, plain, nct mem.Block
			s.mem.ReadBlock(oa, &ct)
			s.ctrMode.DecryptBlock(&plain, &ct, encrypt.SeedInput{PhysAddr: oa, Counter: s.perBlock.Get(oa)})
			v, _ := s.perBlock.Increment(na)
			s.ctrMode.EncryptBlock(&nct, &plain, encrypt.SeedInput{PhysAddr: na, Counter: v})
			s.mem.WriteBlock(na, &nct)
		}
		return nil
	case NoEncryption, DirectEncryption, CtrGlobal32, CtrGlobal64:
		for i := 0; i < layout.BlocksPerPage; i++ {
			oa := oldPage + layout.Addr(i*layout.BlockSize)
			na := newPage + layout.Addr(i*layout.BlockSize)
			var blk mem.Block
			s.mem.ReadBlock(oa, &blk)
			s.mem.WriteBlock(na, &blk)
			if s.global != nil {
				s.global.SetStored(na, s.global.Stored(oa))
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: %v pages cannot be relocated by physical address", ErrUnsupported, s.cfg.Encryption)
	}
}

// CounterBlockOf returns the split counter block covering a page, for
// examples and the VM substrate. It is only meaningful under AISE.
func (s *SecureMemory) CounterBlockOf(a layout.Addr) (counter.Block, error) {
	if s.split == nil {
		return counter.Block{}, fmt.Errorf("%w: %v has no per-page counter blocks", ErrUnsupported, s.cfg.Encryption)
	}
	return s.split.Load(a), nil
}
