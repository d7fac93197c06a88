package persist

// Replication segments and baselines: the export/import surface the
// cluster layer uses to keep a warm standby of a peer's durable state.
//
// A Segment is one committed batch's WAL frames, lifted verbatim from the
// owner's log together with the MAC-chain positions on either side of it.
// The receiver replays segments through a SegmentCursor, which enforces
// the same continuity the recovery scan enforces on disk: no gaps, no
// rollback, no cross-epoch splices, and every frame's chain MAC must
// verify. A Baseline is the full state a standby starts from — sealed
// anchor, snapshot, and each shard's log tail — after which segments keep
// it current. Both are sealed under the at-rest key, so a forged or
// replayed stream is rejected even if the transport is compromised.

import (
	"bytes"
	"crypto/hmac"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"aisebmt/internal/shard"
)

// Typed continuity errors. The receiver maps them to different recoveries:
// a gap or epoch change means it missed traffic (or the owner checkpointed)
// and must request a fresh baseline; a rollback means the sender is behind
// the state this standby already holds — a restarted owner that lost an
// unsynced tail, or a deposed owner replaying old traffic — and must not
// be applied.
var (
	// ErrSegmentGap: the segment starts past the cursor; records are missing.
	ErrSegmentGap = errors.New("persist: segment gap")
	// ErrSegmentRollback: the segment starts before the cursor.
	ErrSegmentRollback = errors.New("persist: segment rollback")
	// ErrSegmentEpoch: the segment belongs to a different log epoch.
	ErrSegmentEpoch = errors.New("persist: segment epoch mismatch")
)

const (
	segMagic  = "SMSEGM01"
	baseMagic = "SMBASE01"

	// maxSegRecords bounds a decoded segment's record bytes: one group
	// commit is a handful of page-sized operations, so anything near this
	// is garbage or an attack.
	maxSegRecords = 8 << 20
)

// Segment is one committed batch of a shard's WAL, as shipped to the
// designated follower. Records holds the framed record bytes exactly as
// appended to the owner's log (payloads stay encrypted; the chain MACs
// ride along). FromSeq/FromChain are the log position the batch extends,
// ToSeq/ToChain the position it reaches; Fence is the owner's fencing
// epoch at commit time, letting the receiver refuse a deposed owner.
type Segment struct {
	Epoch     uint64
	Fence     uint64
	Shard     uint32
	FromSeq   uint64
	FromChain [sealSize]byte
	ToSeq     uint64
	ToChain   [sealSize]byte
	Records   []byte
}

// EncodeSegment serializes and seals a segment for the wire.
func EncodeSegment(processorKey []byte, s *Segment) []byte {
	k := sealKey(processorKey)
	b := make([]byte, 0, len(segMagic)+8+8+4+8+sealSize+8+sealSize+4+len(s.Records)+sealSize)
	b = append(b, segMagic...)
	b = binary.LittleEndian.AppendUint64(b, s.Epoch)
	b = binary.LittleEndian.AppendUint64(b, s.Fence)
	b = binary.LittleEndian.AppendUint32(b, s.Shard)
	b = binary.LittleEndian.AppendUint64(b, s.FromSeq)
	b = append(b, s.FromChain[:]...)
	b = binary.LittleEndian.AppendUint64(b, s.ToSeq)
	b = append(b, s.ToChain[:]...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Records)))
	b = append(b, s.Records...)
	mac := seal(k, b)
	return append(b, mac[:]...)
}

// DecodeSegment verifies and parses a wire segment. Any structural or
// seal failure is ErrWALTampered: segments are log material, and a bad
// one means the stream was forged or corrupted.
func DecodeSegment(processorKey, b []byte) (*Segment, error) {
	k := sealKey(processorKey)
	fixed := len(segMagic) + 8 + 8 + 4 + 8 + sealSize + 8 + sealSize + 4
	if len(b) < fixed+sealSize {
		return nil, fmt.Errorf("%w: segment too short (%d bytes)", ErrWALTampered, len(b))
	}
	body, mac := b[:len(b)-sealSize], b[len(b)-sealSize:]
	want := seal(k, body)
	if !hmac.Equal(mac, want[:]) {
		return nil, fmt.Errorf("%w: segment seal mismatch", ErrWALTampered)
	}
	if string(body[:8]) != segMagic {
		return nil, fmt.Errorf("%w: segment bad magic", ErrWALTampered)
	}
	s := &Segment{
		Epoch:   binary.LittleEndian.Uint64(body[8:16]),
		Fence:   binary.LittleEndian.Uint64(body[16:24]),
		Shard:   binary.LittleEndian.Uint32(body[24:28]),
		FromSeq: binary.LittleEndian.Uint64(body[28:36]),
	}
	off := 36
	copy(s.FromChain[:], body[off:off+sealSize])
	off += sealSize
	s.ToSeq = binary.LittleEndian.Uint64(body[off : off+8])
	off += 8
	copy(s.ToChain[:], body[off:off+sealSize])
	off += sealSize
	rl := binary.LittleEndian.Uint32(body[off : off+4])
	off += 4
	if rl > maxSegRecords || int(rl) != len(body)-off {
		return nil, fmt.Errorf("%w: segment record length %d does not match body", ErrWALTampered, rl)
	}
	if rl > 0 {
		s.Records = append([]byte(nil), body[off:]...)
	}
	return s, nil
}

// SegmentCursor is a standby's replay position in one shard of a peer's
// log: the next segment must extend exactly (Epoch, Seq, Chain). It is
// primed by ImportBaseline and advanced by Apply.
type SegmentCursor struct {
	codec *walCodec
	Epoch uint64
	Shard uint32
	Seq   uint64
	Chain [sealSize]byte
}

// NewSegmentCursor primes a cursor at an explicit position (tests; the
// cluster layer gets cursors from ImportBaseline).
func NewSegmentCursor(processorKey []byte, epoch uint64, shardIdx uint32, seq uint64, chain [sealSize]byte) *SegmentCursor {
	return &SegmentCursor{
		codec: newWALCodec(sealKey(processorKey), walDataKey(processorKey), epoch, shardIdx),
		Epoch: epoch,
		Shard: shardIdx,
		Seq:   seq,
		Chain: chain,
	}
}

// Apply validates s against the cursor and decodes its mutations. The
// segment must continue the cursor exactly: same epoch and shard, FromSeq
// equal to the cursor's Seq, FromChain equal to the cursor's Chain, and
// every frame's chain MAC verifying through to ToSeq/ToChain. On success
// the cursor advances and the batch's operations are returned in log
// order; on any error the cursor is unchanged and nothing may be applied.
func (c *SegmentCursor) Apply(s *Segment) ([]shard.MutOp, error) {
	if s.Shard != c.Shard {
		return nil, fmt.Errorf("%w: segment for shard %d on cursor for shard %d", ErrWALTampered, s.Shard, c.Shard)
	}
	if s.Epoch != c.Epoch {
		return nil, fmt.Errorf("%w: segment epoch %d, cursor epoch %d", ErrSegmentEpoch, s.Epoch, c.Epoch)
	}
	if s.FromSeq > c.Seq {
		return nil, fmt.Errorf("%w: segment starts at seq %d, cursor at %d", ErrSegmentGap, s.FromSeq, c.Seq)
	}
	if s.FromSeq < c.Seq {
		return nil, fmt.Errorf("%w: segment starts at seq %d, cursor already at %d", ErrSegmentRollback, s.FromSeq, c.Seq)
	}
	if !hmac.Equal(s.FromChain[:], c.Chain[:]) {
		// Same position, different history: a splice from another log (or a
		// restarted owner whose log diverged below the cursor).
		return nil, fmt.Errorf("%w: segment chain break at seq %d", ErrWALTampered, s.FromSeq)
	}
	recs, seq, chain, err := walkSegmentFrames(c.codec, c.Seq, c.Chain, s.Records)
	if err != nil {
		return nil, err
	}
	if seq != s.ToSeq || !hmac.Equal(chain[:], s.ToChain[:]) {
		return nil, fmt.Errorf("%w: segment frames end at seq %d, header claims %d", ErrWALTampered, seq, s.ToSeq)
	}
	ops := make([]shard.MutOp, len(recs))
	for i, r := range recs {
		op, cerr := recToOp(r)
		if cerr != nil {
			return nil, fmt.Errorf("%w: segment record %d: %v", ErrWALTampered, s.FromSeq+uint64(i)+1, cerr)
		}
		ops[i] = op
	}
	c.Seq, c.Chain = seq, chain
	return ops, nil
}

// walkSegmentFrames validates framed record bytes with the recovery
// scan's checks, but strictly: a segment is complete log material shipped
// by a live process, so a torn or trailing frame is forgery, not a crash
// artifact. Returns the decoded records and the position reached.
func walkSegmentFrames(codec *walCodec, seq uint64, chain [sealSize]byte, frames []byte) ([]walRec, uint64, [sealSize]byte, error) {
	var recs []walRec
	off := 0
	for off < len(frames) {
		rest := frames[off:]
		if len(rest) < recFrameLen {
			return nil, 0, chain, fmt.Errorf("%w: segment frame truncated at record %d", ErrWALTampered, seq+1)
		}
		plen := binary.LittleEndian.Uint32(rest[:4])
		if plen < recFixedLen || plen > maxRecPayload {
			return nil, 0, chain, fmt.Errorf("%w: segment record %d bad length %d", ErrWALTampered, seq+1, plen)
		}
		total := recFrameLen + int(plen) + sealSize
		if len(rest) < total {
			return nil, 0, chain, fmt.Errorf("%w: segment record %d truncated", ErrWALTampered, seq+1)
		}
		payload := rest[recFrameLen : recFrameLen+int(plen)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:8]) {
			return nil, 0, chain, fmt.Errorf("%w: segment record %d CRC mismatch", ErrWALTampered, seq+1)
		}
		next := codec.chainNext(chain, payload)
		if !hmac.Equal(next[:], rest[recFrameLen+int(plen):total]) {
			return nil, 0, chain, fmt.Errorf("%w: segment record %d chain MAC mismatch", ErrWALTampered, seq+1)
		}
		plain := append([]byte(nil), payload...)
		codec.xor(seq+1, plain)
		rec, perr := parseRecPayload(plain)
		if perr != nil {
			return nil, 0, chain, fmt.Errorf("%w: segment record %d: %v", ErrWALTampered, seq+1, perr)
		}
		chain = next
		seq++
		recs = append(recs, rec)
		off += total
	}
	return recs, seq, chain, nil
}

// BaselineShard is one shard's slice of a baseline: the log tail past the
// snapshot and the position it reaches.
type BaselineShard struct {
	Seq   uint64
	Chain [sealSize]byte
	WAL   []byte // full WAL file bytes (header + frames), ending exactly at Seq
}

// Baseline is a standby's starting state for one peer: the peer's sealed
// anchor, the matching snapshot, and each shard's WAL up to its current
// position. Fence is the peer's live fencing epoch (which may be ahead of
// the anchored one if it was raised since the last checkpoint).
type Baseline struct {
	Epoch    uint64
	Fence    uint64
	Anchor   []byte
	Snapshot []byte
	Shards   []BaselineShard
}

// EncodeBaseline serializes and seals a baseline for the wire.
func EncodeBaseline(processorKey []byte, b *Baseline) []byte {
	k := sealKey(processorKey)
	out := make([]byte, 0, 64+len(b.Anchor)+len(b.Snapshot))
	out = append(out, baseMagic...)
	out = binary.LittleEndian.AppendUint64(out, b.Epoch)
	out = binary.LittleEndian.AppendUint64(out, b.Fence)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.Anchor)))
	out = append(out, b.Anchor...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(b.Snapshot)))
	out = append(out, b.Snapshot...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.Shards)))
	for _, sh := range b.Shards {
		out = binary.LittleEndian.AppendUint64(out, sh.Seq)
		out = append(out, sh.Chain[:]...)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(sh.WAL)))
		out = append(out, sh.WAL...)
	}
	mac := seal(k, out)
	return append(out, mac[:]...)
}

// DecodeBaseline verifies and parses a wire baseline.
func DecodeBaseline(processorKey, b []byte) (*Baseline, error) {
	k := sealKey(processorKey)
	if len(b) < len(baseMagic)+8+8+4+sealSize {
		return nil, fmt.Errorf("%w: baseline too short (%d bytes)", ErrTrustTampered, len(b))
	}
	body, mac := b[:len(b)-sealSize], b[len(b)-sealSize:]
	want := seal(k, body)
	if !hmac.Equal(mac, want[:]) {
		return nil, fmt.Errorf("%w: baseline seal mismatch", ErrTrustTampered)
	}
	if string(body[:8]) != baseMagic {
		return nil, fmt.Errorf("%w: baseline bad magic", ErrTrustTampered)
	}
	bad := func(what string) error {
		return fmt.Errorf("%w: baseline truncated at %s", ErrTrustTampered, what)
	}
	bl := &Baseline{
		Epoch: binary.LittleEndian.Uint64(body[8:16]),
		Fence: binary.LittleEndian.Uint64(body[16:24]),
	}
	off := 24
	al := int(binary.LittleEndian.Uint32(body[off : off+4]))
	off += 4
	if len(body)-off < al {
		return nil, bad("anchor")
	}
	bl.Anchor = append([]byte(nil), body[off:off+al]...)
	off += al
	if len(body)-off < 8 {
		return nil, bad("snapshot length")
	}
	sl := binary.LittleEndian.Uint64(body[off : off+8])
	off += 8
	if uint64(len(body)-off) < sl {
		return nil, bad("snapshot")
	}
	bl.Snapshot = append([]byte(nil), body[off:off+int(sl)]...)
	off += int(sl)
	if len(body)-off < 4 {
		return nil, bad("shard count")
	}
	n := binary.LittleEndian.Uint32(body[off : off+4])
	off += 4
	for i := uint32(0); i < n; i++ {
		if len(body)-off < 8+sealSize+8 {
			return nil, bad(fmt.Sprintf("shard %d header", i))
		}
		var sh BaselineShard
		sh.Seq = binary.LittleEndian.Uint64(body[off : off+8])
		off += 8
		copy(sh.Chain[:], body[off:off+sealSize])
		off += sealSize
		wl := binary.LittleEndian.Uint64(body[off : off+8])
		off += 8
		if uint64(len(body)-off) < wl {
			return nil, bad(fmt.Sprintf("shard %d WAL", i))
		}
		sh.WAL = append([]byte(nil), body[off:off+int(wl)]...)
		off += int(wl)
		bl.Shards = append(bl.Shards, sh)
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: baseline has %d trailing bytes", ErrTrustTampered, len(body)-off)
	}
	return bl, nil
}

// ExportBaseline captures the store's current durable state for shipping
// to a standby. Checkpoints are held off for the duration, so the anchor,
// snapshot and log epoch stay mutually consistent; each shard's log tail
// is captured under its writer lock, so (WAL, Seq, Chain) agree per shard
// even while other shards keep committing.
func (st *Store) ExportBaseline() (*Baseline, error) {
	st.ckptMu.Lock()
	defer st.ckptMu.Unlock()
	if st.closed {
		return nil, ErrClosed
	}
	if err := st.failedErr(); err != nil {
		return nil, err
	}
	if st.pool == nil {
		return nil, errors.New("persist: ExportBaseline before Recover")
	}
	ab, err := st.fs.ReadFile(st.anchorPath())
	if err != nil {
		return nil, fmt.Errorf("persist: export anchor: %w", err)
	}
	snapB, err := st.fs.ReadFile(st.snapPath(st.epoch))
	if err != nil {
		return nil, fmt.Errorf("persist: export snapshot: %w", err)
	}
	b := &Baseline{
		Epoch:    st.epoch,
		Fence:    st.fence.Load(),
		Anchor:   ab,
		Snapshot: snapB,
		Shards:   make([]BaselineShard, len(st.wals)),
	}
	for i, w := range st.wals {
		w.mu.Lock()
		if w.poisoned {
			w.mu.Unlock()
			return nil, fmt.Errorf("persist: export: shard %d WAL is poisoned", i)
		}
		wb, rerr := st.fs.ReadFile(w.path)
		if rerr == nil && int64(len(wb)) < w.off {
			rerr = fmt.Errorf("WAL file shorter (%d) than writer offset (%d)", len(wb), w.off)
		}
		if rerr != nil {
			w.mu.Unlock()
			return nil, fmt.Errorf("persist: export shard %d WAL: %w", i, rerr)
		}
		b.Shards[i] = BaselineShard{Seq: w.seq, Chain: w.chain, WAL: wb[:w.off]}
		w.mu.Unlock()
	}
	return b, nil
}

// ImportBaseline verifies a baseline end to end and builds the standby
// pool it describes: the anchor must seal-verify, the snapshot must match
// the anchor, every shard's WAL must replay cleanly against its claimed
// position, and the resulting pool must pass a full integrity sweep. It
// returns the pool plus one primed SegmentCursor per shard, ready for the
// peer's segment stream. cfg must match the peer's configuration.
func ImportBaseline(processorKey []byte, cfg shard.Config, b *Baseline) (*shard.Pool, []*SegmentCursor, error) {
	key := sealKey(processorKey)
	dataKey := walDataKey(processorKey)
	anc, err := parseAnchor(key, b.Anchor)
	if err != nil {
		return nil, nil, err
	}
	if anc.Epoch != b.Epoch {
		return nil, nil, fmt.Errorf("%w: baseline epoch %d does not match anchor epoch %d", ErrTrustTampered, b.Epoch, anc.Epoch)
	}
	if len(b.Shards) != len(anc.Chips) {
		return nil, nil, fmt.Errorf("%w: baseline has %d WALs, anchor %d shards", ErrSnapshotTampered, len(b.Shards), len(anc.Chips))
	}
	ccfg, secs, err := snapshotSections(cfg, anc, bytes.NewReader(b.Snapshot), int64(len(b.Snapshot)))
	if err != nil {
		return nil, nil, err
	}
	recs := make([][]walRec, len(b.Shards))
	cursors := make([]*SegmentCursor, len(b.Shards))
	for i, sh := range b.Shards {
		head := walHead{Epoch: anc.Epoch, Shard: uint32(i), Seq: sh.Seq, Chain: sh.Chain}
		r, seq, chain, validLen, serr := scanWAL(key, dataKey, sh.WAL, head)
		if serr != nil {
			return nil, nil, serr
		}
		// The exporter captured the log under its writer lock, so the bytes
		// end exactly at the claimed position; a live log may run ahead of
		// its durable head, but a baseline must not.
		if seq != sh.Seq || validLen != int64(len(sh.WAL)) {
			return nil, nil, fmt.Errorf("%w: baseline shard %d WAL ends at seq %d (%d of %d bytes valid), claimed %d",
				ErrWALTampered, i, seq, validLen, len(sh.WAL), sh.Seq)
		}
		recs[i] = r
		cursors[i] = &SegmentCursor{codec: newWALCodec(key, dataKey, anc.Epoch, uint32(i)), Epoch: anc.Epoch, Shard: uint32(i), Seq: seq, Chain: chain}
	}
	pool, _, err := restorePool(cfg, ccfg, anc, secs, recs)
	if err != nil {
		return nil, nil, err
	}
	return pool, cursors, nil
}

// Adopt binds a store on a fresh data directory to an already-built pool
// (a promoted standby) and makes it durable: an initial checkpoint seals
// the pool's state — and the store's fencing epoch, set before this call —
// into the new directory, then the commit hook and background tasks are
// installed exactly as after Recover. The caller must not have called
// Recover on this store.
func (st *Store) Adopt(pool *shard.Pool) error {
	start := time.Now()
	st.ckptMu.Lock()
	if st.closed {
		st.ckptMu.Unlock()
		return ErrClosed
	}
	if st.pool != nil {
		st.ckptMu.Unlock()
		return errors.New("persist: Adopt after Recover")
	}
	names, _ := st.fs.ReadDir(st.opts.Dir)
	for _, n := range names {
		if ownFile(n) && n != "snap.tmp" && n != "anchor.tmp" {
			st.ckptMu.Unlock()
			return fmt.Errorf("persist: Adopt needs a fresh directory, found %s", n)
		}
	}
	st.pool = pool
	st.epoch = 0
	st.ckptMu.Unlock()
	st.initWriters(pool.Shards())
	if err := st.Checkpoint(); err != nil {
		return err
	}
	pool.SetCommitHook(st)
	st.startBackground()
	if st.opts.Logf != nil {
		st.opts.Logf("adopted promoted pool: epoch 1, %d shards, fence %d (%s)",
			pool.Shards(), st.fence.Load(), time.Since(start).Round(time.Millisecond))
	}
	return nil
}
