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
		// Each shard image goes straight to w as one length-prefixed
		// section, so a reader can find every section without decoding.
		chip, err := sh.sm.HibernateSection(w)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		chips[i] = chip
	}
	if commit != nil {
		if err := commit(chips); err != nil {
			return nil, err
		}
	}
	return chips, nil
}

// Sections validates cfg and walks the framing of a hibernation stream of
// a pool of cfg's shape, the size bytes of r, returning one reader per
// shard over its memory image. It reads only the header and the section
// lengths, checking each against size, so a stream cut short or claiming
// a section past its end is refused before any image is read. It also
// returns the controller configuration each image resumes under. The
// stream is untrusted; only its framing is checked here, and the caller
// must verify each resumed controller against its sealed chip state
// before trusting it.
func Sections(cfg Config, r io.ReaderAt, size int64) (core.Config, []*io.SectionReader, error) {
	cfg, ccfg, err := cfg.resolve()
	if err != nil {
		return core.Config{}, nil, err
	}
	var hdr [12]byte
	if size < int64(len(hdr)) || readAt(r, hdr[:], 0) != nil || [8]byte(hdr[:8]) != hibMagic {
		return core.Config{}, nil, fmt.Errorf("shard: image: bad hibernation header")
	}
	if n := int(binary.LittleEndian.Uint32(hdr[8:12])); n != cfg.Shards {
		return core.Config{}, nil, fmt.Errorf("shard: image has %d shards, config has %d", n, cfg.Shards)
	}
	secs := make([]*io.SectionReader, cfg.Shards)
	off := int64(len(hdr))
	for i := range secs {
		var lb [8]byte
		if size-off < int64(len(lb)) {
			return core.Config{}, nil, fmt.Errorf("shard %d: image: truncated length", i)
		}
		if err := readAt(r, lb[:], off); err != nil {
			return core.Config{}, nil, fmt.Errorf("shard %d: image: %w", i, err)
		}
		off += int64(len(lb))
		n := binary.LittleEndian.Uint64(lb[:])
		if uint64(size-off) < n {
			return core.Config{}, nil, fmt.Errorf("shard %d: image: truncated", i)
		}
		secs[i] = io.NewSectionReader(r, off, int64(n))
		off += int64(n)
	}
	return ccfg, secs, nil
}

// readAt fills p from r at off.
func readAt(r io.ReaderAt, p []byte, off int64) error {
	n, err := r.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
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
	ccfg, secs, err := Sections(cfg, bytes.NewReader(b), int64(len(b)))
	if err != nil {
		return nil, fmt.Errorf("shard: resume: %w", err)
	}
	if len(chips) != len(secs) {
		return nil, fmt.Errorf("shard: resume: %d chip states for %d shards", len(chips), len(secs))
	}
	sms := make([]*core.SecureMemory, len(secs))
	for i, sec := range secs {
		if sms[i], err = core.Resume(ccfg, chips[i], sec); err != nil {
			return nil, fmt.Errorf("shard %d: resume: %w", i, err)
		}
	}
	return Assemble(cfg, sms)
}
