package core

import (
	"fmt"

	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

// RotateKey re-encrypts the entire data region under a new processor key,
// the operation a global-counter wrap forces (§4.1) and a sound hygiene
// operation for any long-lived system. All plaintext passes through the
// chip: the old key decrypts and verifies every block, the new key
// re-encrypts it, and all integrity metadata is rebuilt. CtrVirt cannot be
// rotated (the controller does not retain per-block virtual-address
// metadata to reconstruct seeds).
func (s *SecureMemory) RotateKey(newKey []byte) error {
	if len(newKey) != 16 {
		return fmt.Errorf("core: new key must be 16 bytes, got %d", len(newKey))
	}
	if s.cfg.Encryption == CtrVirt {
		return fmt.Errorf("%w: CtrVirt seeds need per-access virtual addresses; bulk re-encryption is impossible", ErrUnsupported)
	}
	// Read the whole region through the verified path.
	plain := make([]byte, s.cfg.DataBytes)
	if err := s.Read(0, plain, Meta{}); err != nil {
		return fmt.Errorf("core: key rotation aborted, pre-rotation verification failed: %w", err)
	}
	// Build the successor controller: same configuration, new key, and the
	// GPC carried over so LPIDs never repeat across the rotation.
	cfg := s.cfg
	cfg.Key = append([]byte(nil), newKey...)
	img := s.gpc.Save()
	cfg.GPCImage = &img
	fresh, err := New(cfg)
	if err != nil {
		return err
	}
	// Write each run of non-zero blocks back as one span; vacant/zero
	// blocks need no write.
	zero := func(a uint64) bool { return mem.Block(plain[a:a+layout.BlockSize]) == (mem.Block{}) }
	for a := uint64(0); a < s.cfg.DataBytes; {
		if zero(a) {
			a += layout.BlockSize
			continue
		}
		end := a + layout.BlockSize
		for end < s.cfg.DataBytes && !zero(end) {
			end += layout.BlockSize
		}
		if err := fresh.Write(layout.Addr(a), plain[a:end], Meta{}); err != nil {
			return err
		}
		a = end
	}
	// Adopt the successor's state; accumulate prior work counters.
	stats := s.stats
	stats.FullReencrypts++
	*s = *fresh
	s.stats.BlockReads += stats.BlockReads
	s.stats.BlockWrites += stats.BlockWrites
	s.stats.PageReencrypts += stats.PageReencrypts
	s.stats.FullReencrypts += stats.FullReencrypts
	s.stats.SwapOuts += stats.SwapOuts
	s.stats.SwapIns += stats.SwapIns
	return nil
}
