package core

import (
	"fmt"
	"io"
)

// ChipState is the trusted, non-volatile on-chip state that survives a
// power cycle: the Global Page Counter and the Merkle tree root. The secret
// key is supplied again through Config at resume (it lives in on-chip fuses
// in the paper's model, not in the hibernation image). Everything else —
// ciphertext, counters, MACs, tree nodes — travels in the untrusted memory
// image and is re-verified against Root on use.
type ChipState struct {
	GPC  [8]byte
	Root []byte
}

// Hibernate writes the untrusted memory image to w and returns the trusted
// chip state the caller must keep in (simulated) on-chip non-volatile
// storage. The controller remains usable afterwards.
//
// Flush-before-seal invariant: any deferred batched tree updates are
// committed and every dirty cached tree node is written back BEFORE the
// memory is serialized, so the image always matches the root it is sealed
// against. (Checkpointing goes through here, so snapshot seals inherit the
// invariant.)
func (s *SecureMemory) Hibernate(w io.Writer) (ChipState, error) { return s.hibernate(w, false) }

// HibernateSection is Hibernate with the image written as one
// length-prefixed section (mem.SerializeSection), the unit a pool
// checkpoint streams per shard.
func (s *SecureMemory) HibernateSection(w io.Writer) (ChipState, error) { return s.hibernate(w, true) }

func (s *SecureMemory) hibernate(w io.Writer, section bool) (ChipState, error) {
	if err := s.treeBarrier(); err != nil {
		return ChipState{}, fmt.Errorf("core: hibernate: %w", err)
	}
	s.FlushTreeNodes()
	serialize := s.mem.Serialize
	if section {
		serialize = s.mem.SerializeSection
	}
	if err := serialize(w); err != nil {
		return ChipState{}, fmt.Errorf("core: hibernate: %w", err)
	}
	return ChipState{GPC: s.gpc.Save(), Root: s.Root()}, nil
}

// Resume reconstructs a controller from a hibernation image read from r
// and the trusted chip state. cfg must match the hibernated controller's
// configuration (the same key, schemes, sizes); the memory image is
// untrusted, so any tampering with it while the system was off is
// detected on first use by verification against the restored root. The
// image is decoded as it is read (mem.Deserialize), never held whole.
func Resume(cfg Config, chip ChipState, r io.Reader) (*SecureMemory, error) {
	cfg.GPCImage = nil // restored from chip state below
	s, err := newController(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.mem.Deserialize(r); err != nil {
		return nil, fmt.Errorf("core: resume: %w", err)
	}
	s.gpc.Restore(chip.GPC)
	if s.tree != nil {
		if err := s.tree.Restore(chip.Root); err != nil {
			return nil, fmt.Errorf("core: resume: %w", err)
		}
	}
	return s, nil
}
