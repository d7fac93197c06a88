package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"aisebmt/internal/core"
)

// hibMagic heads a pool hibernation stream.
var hibMagic = [8]byte{'S', 'H', 'R', 'D', 'H', 'I', 'B', '1'}

// Hibernate writes every shard's untrusted memory image to w as one
// length-prefixed stream and returns the trusted per-shard chip states
// (GPC + tree root) the caller must keep in simulated on-chip storage.
// All shard locks are taken for the duration, so the image is a
// pool-consistent cut: requests already executed are included, queued
// ones are not. The pool remains usable afterwards.
func (p *Pool) Hibernate(w io.Writer) ([]core.ChipState, error) {
	return p.Checkpoint(w, nil)
}

// Checkpoint is Hibernate with a commit phase: after the image is written
// it invokes commit(chips) while the pool-wide freeze is still held, so a
// durability layer can seal the chip states and cut its write-ahead logs
// in the same consistent instant — no batch can commit between the
// snapshot cut and the log reset. A commit error is returned as-is; the
// pool itself is unaffected either way.
//
// Checkpoint refuses with ErrPoolDegraded while any shard is latched: a
// snapshot cut then would bake unverified (possibly tampered) memory into
// the new epoch and destroy the very state a repair needs, so the
// previous epoch stays authoritative until the pool heals.
func (p *Pool) Checkpoint(w io.Writer, commit func(chips []core.ChipState) error) ([]core.ChipState, error) {
	for _, sh := range p.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range p.shards {
			sh.mu.Unlock()
		}
	}()
	for i, sh := range p.shards {
		if st := sh.fault.load(); st != StateServing {
			return nil, fmt.Errorf("%w: shard %d is %s", ErrPoolDegraded, i, st)
		}
	}

	if _, err := w.Write(hibMagic[:]); err != nil {
		return nil, err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(p.shards))); err != nil {
		return nil, err
	}
	chips := make([]core.ChipState, len(p.shards))
	for i, sh := range p.shards {
		// The memory serializer buffers its reader, so each shard image is
		// length-prefixed to keep stream positions exact.
		var img bytes.Buffer
		chip, err := sh.sm.Hibernate(&img)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		chips[i] = chip
		if err := binary.Write(w, binary.LittleEndian, uint64(img.Len())); err != nil {
			return nil, err
		}
		if _, err := w.Write(img.Bytes()); err != nil {
			return nil, err
		}
	}
	if commit != nil {
		if err := commit(chips); err != nil {
			return nil, err
		}
	}
	return chips, nil
}

// SplitImage validates cfg and splits a hibernation stream of a pool of
// cfg's shape into its per-shard memory images, in place: each image is a
// sub-slice of b. It also returns the controller configuration each image
// resumes under. The stream is untrusted; only its framing is checked
// here, and the caller must verify each resumed controller against its
// sealed chip state before trusting it.
func SplitImage(cfg Config, b []byte) (core.Config, [][]byte, error) {
	cfg, ccfg, err := cfg.resolve()
	if err != nil {
		return core.Config{}, nil, err
	}
	if len(b) < 12 || [8]byte(b[:8]) != hibMagic {
		return core.Config{}, nil, fmt.Errorf("shard: image: bad hibernation header")
	}
	if n := int(binary.LittleEndian.Uint32(b[8:12])); n != cfg.Shards {
		return core.Config{}, nil, fmt.Errorf("shard: image has %d shards, config has %d", n, cfg.Shards)
	}
	imgs := make([][]byte, cfg.Shards)
	b = b[12:]
	for i := range imgs {
		if len(b) < 8 {
			return core.Config{}, nil, fmt.Errorf("shard %d: image: truncated length", i)
		}
		n := binary.LittleEndian.Uint64(b)
		b = b[8:]
		if uint64(len(b)) < n {
			return core.Config{}, nil, fmt.Errorf("shard %d: image: truncated", i)
		}
		imgs[i], b = b[:n:n], b[n:]
	}
	return ccfg, imgs, nil
}

// Resume reconstructs a pool from a hibernation stream and the trusted
// chip states. cfg must match the hibernated pool's configuration; the
// stream is untrusted, so offline tampering is detected on first use by
// verification against the restored per-shard roots.
func Resume(cfg Config, chips []core.ChipState, r io.Reader) (*Pool, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("shard: resume: %w", err)
	}
	ccfg, imgs, err := SplitImage(cfg, b)
	if err != nil {
		return nil, fmt.Errorf("shard: resume: %w", err)
	}
	if len(chips) != len(imgs) {
		return nil, fmt.Errorf("shard: resume: %d chip states for %d shards", len(chips), len(imgs))
	}
	sms := make([]*core.SecureMemory, len(imgs))
	for i, img := range imgs {
		if sms[i], err = core.ResumeImage(ccfg, chips[i], img); err != nil {
			return nil, fmt.Errorf("shard %d: resume: %w", i, err)
		}
	}
	return Assemble(cfg, sms)
}
