package persist

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"sync"

	"aisebmt/internal/layout"
	"aisebmt/internal/shard"
)

// WAL file layout:
//
//	header:  magic(8) "SMWAL001" | epoch u64 | shard u32 | crc u32
//	record:  len u32 | crc u32 | payload | chain[32]
//	payload: AES-CTR( kind u8 | addr u64 | virt u64 | pid u32 | slot u32 | data… )
//
// The log sits on the same untrusted storage as the snapshot body, so a
// record's payload — which carries write plaintext — is encrypted before
// it is framed: AES-256-CTR under a key derived from the processor key
// per (epoch, shard), with the record's 1-based sequence number as the
// nonce (encrypt-then-MAC; CRC and chain both cover the ciphertext).
//
// len covers the payload only; crc (IEEE) covers the payload; chain is
// HMAC(sealKey, prevChain ‖ payload), seeded per (epoch, shard). The CRC
// distinguishes accidental damage (torn final record → truncate) from the
// MAC's job of detecting deliberate damage (any complete record whose
// chain value does not verify → fail closed). The chain also pins order
// and position: records cannot be reordered, substituted or injected, and
// deleting a committed tail is caught against the sealed head's Seq.

const (
	walMagic      = "SMWAL001"
	walHeaderLen  = 8 + 8 + 4 + 4
	recFixedLen   = 1 + 8 + 8 + 4 + 4 // kind, addr, virt, pid, slot
	recFrameLen   = 4 + 4             // len, crc
	maxRecPayload = 1 << 20
)

// encodeWALHeader builds a WAL file header.
func encodeWALHeader(epoch uint64, shardIdx uint32) [walHeaderLen]byte {
	var b [walHeaderLen]byte
	copy(b[:8], walMagic)
	binary.LittleEndian.PutUint64(b[8:16], epoch)
	binary.LittleEndian.PutUint32(b[16:20], shardIdx)
	binary.LittleEndian.PutUint32(b[20:24], crc32.ChecksumIEEE(b[:20]))
	return b
}

// parseWALHeader validates a WAL file header.
func parseWALHeader(b []byte) (epoch uint64, shardIdx uint32, err error) {
	if len(b) < walHeaderLen {
		return 0, 0, fmt.Errorf("persist: WAL header truncated (%d bytes)", len(b))
	}
	if string(b[:8]) != walMagic {
		return 0, 0, errors.New("persist: WAL bad magic")
	}
	if crc32.ChecksumIEEE(b[:20]) != binary.LittleEndian.Uint32(b[20:24]) {
		return 0, 0, errors.New("persist: WAL header CRC mismatch")
	}
	return binary.LittleEndian.Uint64(b[8:16]), binary.LittleEndian.Uint32(b[16:20]), nil
}

// chainSeed derives the MAC chain's initial value for (epoch, shard).
func chainSeed(k []byte, epoch uint64, shardIdx uint32) [sealSize]byte {
	var b [12]byte
	binary.LittleEndian.PutUint64(b[:8], epoch)
	binary.LittleEndian.PutUint32(b[8:12], shardIdx)
	m := hmac.New(sha256.New, k)
	m.Write([]byte("wal-seed"))
	m.Write(b[:])
	var out [sealSize]byte
	copy(out[:], m.Sum(nil))
	return out
}

// walDataKey derives the WAL payload encryption key from the processor
// key, on a separate branch from the sealing (authentication) key.
func walDataKey(processorKey []byte) []byte {
	m := hmac.New(sha256.New, processorKey)
	m.Write([]byte("aisebmt/persist/wal-data/v1"))
	return m.Sum(nil)
}

// walCodec seals record payloads for one (epoch, shard) log generation:
// it encrypts them and advances the MAC chain over the ciphertext. Each
// generation gets its own AES-256 key, so the record sequence number alone
// is a safe CTR nonce: the seq fills the IV's high half, leaving a 64-bit
// block counter — far beyond maxRecPayload — so keystreams of distinct
// records never overlap. The one caveat is a record that is appended and
// then torn away (crash truncation, commit rewind): its replacement reuses
// the seq's keystream, which only aids an attacker who also captured the
// disk before the truncation — the live file never holds both.
//
// One codec serves every record of a writer, scan or cursor: the keyed
// HMAC is reset between records and the keystream is built in a reused
// buffer, so a record costs no crypto allocation. A codec is not safe for
// concurrent use; its owner's lock (writer, standby) or scope (scan)
// serializes it.
type walCodec struct {
	blk cipher.Block
	ks  []byte    // keystream scratch
	mac hash.Hash // HMAC(sealKey), reset per record
	sum []byte    // mac.Sum scratch
}

// newWALCodec derives the (epoch, shard) generation cipher and keys the
// chain MAC with the sealing key k.
func newWALCodec(k, dataKey []byte, epoch uint64, shardIdx uint32) *walCodec {
	var b [12]byte
	binary.LittleEndian.PutUint64(b[:8], epoch)
	binary.LittleEndian.PutUint32(b[8:12], shardIdx)
	m := hmac.New(sha256.New, dataKey)
	m.Write([]byte("wal-epoch"))
	m.Write(b[:])
	blk, err := aes.NewCipher(m.Sum(nil))
	if err != nil {
		panic("persist: walCodec key derivation: " + err.Error()) // 32-byte key; unreachable
	}
	return &walCodec{blk: blk, mac: hmac.New(sha256.New, k), sum: make([]byte, 0, sealSize)}
}

// xor applies record seq's CTR keystream to p in place: block j of the
// keystream is AES(seq ‖ j), both big-endian, as cipher.NewCTR with IV
// seq ‖ 0 would produce it.
func (c *walCodec) xor(seq uint64, p []byte) {
	n := (len(p) + aes.BlockSize - 1) &^ (aes.BlockSize - 1)
	if cap(c.ks) < n {
		c.ks = make([]byte, n)
	}
	ks := c.ks[:n]
	for off := 0; off < n; off += aes.BlockSize {
		blk := ks[off : off+aes.BlockSize]
		binary.BigEndian.PutUint64(blk[:8], seq)
		binary.BigEndian.PutUint64(blk[8:], uint64(off/aes.BlockSize))
		c.blk.Encrypt(blk, blk)
	}
	subtle.XORBytes(p, p, ks)
}

// chainNext advances the MAC chain over one record payload.
func (c *walCodec) chainNext(prev [sealSize]byte, payload []byte) [sealSize]byte {
	c.mac.Reset()
	c.sum = append(c.sum[:0], prev[:]...) // prev itself would escape through the interface call
	c.mac.Write(c.sum)
	c.mac.Write(payload)
	c.sum = c.mac.Sum(c.sum[:0])
	var out [sealSize]byte
	copy(out[:], c.sum)
	return out
}

// walRec is one decoded record payload. Data is the write plaintext or,
// for swap-in, the wire-encoded page image.
type walRec struct {
	Kind shard.MutKind
	Addr layout.Addr
	Virt uint64
	PID  uint32
	Slot uint32
	Data []byte
}

// encodeRecPayload serializes rec's plaintext payload onto b.
func encodeRecPayload(b []byte, rec walRec) []byte {
	b = append(b, byte(rec.Kind))
	b = binary.LittleEndian.AppendUint64(b, uint64(rec.Addr))
	b = binary.LittleEndian.AppendUint64(b, rec.Virt)
	b = binary.LittleEndian.AppendUint32(b, rec.PID)
	b = binary.LittleEndian.AppendUint32(b, rec.Slot)
	return append(b, rec.Data...)
}

// appendRecord encrypts and frames rec — taking sequence number seq — onto
// b and returns the new chain value.
func appendRecord(b []byte, c *walCodec, prev [sealSize]byte, seq uint64, rec walRec) ([]byte, [sealSize]byte) {
	plen := recFixedLen + len(rec.Data)
	b = binary.LittleEndian.AppendUint32(b, uint32(plen))
	crcAt := len(b)
	b = binary.LittleEndian.AppendUint32(b, 0) // CRC backfilled below
	payAt := len(b)
	b = encodeRecPayload(b, rec)
	payload := b[payAt:]
	c.xor(seq, payload) // only ciphertext reaches untrusted storage
	binary.LittleEndian.PutUint32(b[crcAt:], crc32.ChecksumIEEE(payload))
	next := c.chainNext(prev, payload)
	b = append(b, next[:]...)
	return b, next
}

// parseRecPayload decodes a record payload (after frame and CRC checks).
func parseRecPayload(p []byte) (walRec, error) {
	if len(p) < recFixedLen {
		return walRec{}, fmt.Errorf("persist: WAL record payload of %d bytes shorter than %d-byte header", len(p), recFixedLen)
	}
	r := walRec{
		Kind: shard.MutKind(p[0]),
		Addr: layout.Addr(binary.LittleEndian.Uint64(p[1:9])),
		Virt: binary.LittleEndian.Uint64(p[9:17]),
		PID:  binary.LittleEndian.Uint32(p[17:21]),
		Slot: binary.LittleEndian.Uint32(p[21:25]),
	}
	if (r.Kind < shard.MutWrite || r.Kind > shard.MutMove) && r.Kind != recKindAux && r.Kind != recKindAuxBarrier {
		return walRec{}, fmt.Errorf("persist: WAL record has unknown kind %d", p[0])
	}
	if len(p) > recFixedLen {
		r.Data = p[recFixedLen:]
	}
	return r, nil
}

// scanWAL walks a WAL file body against its trusted head. It returns the
// decoded records (committed ones plus any validly-chained records beyond
// the head, which are durable but unacknowledged), the sequence number and
// chain value reached, and how many bytes of the file were valid. Damage
// past the last committed record that looks like a torn append
// (truncation, CRC failure) is tolerated — recovery truncates it; every
// other mismatch fails closed.
func scanWAL(k, dataKey []byte, file []byte, head walHead) (recs []walRec, seq uint64, chain [sealSize]byte, validLen int64, err error) {
	if len(file) < walHeaderLen {
		if head.Seq == 0 {
			return nil, 0, chain, 0, nil // pre-reset file; nothing committed to it
		}
		return nil, 0, chain, 0, fmt.Errorf("%w: shard %d WAL missing %d committed records", ErrWALTampered, head.Shard, head.Seq)
	}
	epoch, shardIdx, herr := parseWALHeader(file)
	if herr != nil || epoch != head.Epoch || shardIdx != head.Shard {
		if head.Seq == 0 {
			return nil, 0, chain, 0, nil // stale file from before an interrupted log reset
		}
		return nil, 0, chain, 0, fmt.Errorf("%w: shard %d WAL header does not match its head (epoch %d)", ErrWALTampered, head.Shard, head.Epoch)
	}
	chain = chainSeed(k, epoch, shardIdx)
	codec := newWALCodec(k, dataKey, epoch, shardIdx)
	off := walHeaderLen
	for off < len(file) {
		// A damaged frame is a torn tail only if it sits entirely beyond
		// the committed sequence; before that it is missing durability.
		torn := func(what string) error {
			if seq >= head.Seq {
				return nil
			}
			return fmt.Errorf("%w: shard %d WAL %s at record %d, before committed seq %d",
				ErrWALTampered, head.Shard, what, seq+1, head.Seq)
		}
		rest := file[off:]
		if len(rest) < recFrameLen {
			if e := torn("truncated frame"); e != nil {
				return nil, 0, chain, 0, e
			}
			break
		}
		plen := binary.LittleEndian.Uint32(rest[:4])
		if plen < recFixedLen || plen > maxRecPayload {
			if e := torn("bad record length"); e != nil {
				return nil, 0, chain, 0, e
			}
			break
		}
		total := recFrameLen + int(plen) + sealSize
		if len(rest) < total {
			if e := torn("truncated record"); e != nil {
				return nil, 0, chain, 0, e
			}
			break
		}
		payload := rest[recFrameLen : recFrameLen+int(plen)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:8]) {
			if e := torn("CRC mismatch"); e != nil {
				return nil, 0, chain, 0, e
			}
			break
		}
		// Complete, CRC-clean record: its chain value must verify. A
		// mismatch here is forgery or modification, never a torn write,
		// so it fails closed even beyond the committed sequence.
		next := codec.chainNext(chain, payload)
		if !hmac.Equal(next[:], rest[recFrameLen+int(plen):total]) {
			return nil, 0, chain, 0, fmt.Errorf("%w: shard %d WAL record %d chain MAC mismatch", ErrWALTampered, head.Shard, seq+1)
		}
		plain := append([]byte(nil), payload...)
		codec.xor(seq+1, plain)
		rec, perr := parseRecPayload(plain)
		if perr != nil {
			return nil, 0, chain, 0, fmt.Errorf("%w: shard %d WAL record %d: %v", ErrWALTampered, head.Shard, seq+1, perr)
		}
		chain = next
		seq++
		recs = append(recs, rec)
		off += total
		if seq == head.Seq && !hmac.Equal(chain[:], head.Chain[:]) {
			return nil, 0, chain, 0, fmt.Errorf("%w: shard %d WAL chain at committed seq %d does not match sealed head", ErrWALTampered, head.Shard, seq)
		}
	}
	if seq < head.Seq {
		return nil, 0, chain, 0, fmt.Errorf("%w: shard %d WAL ends at record %d but head committed %d (tail deleted?)",
			ErrWALTampered, head.Shard, seq, head.Seq)
	}
	return recs, seq, chain, int64(off), nil
}

// walPrefix returns the length and chain value of the first n records of
// a log scanWAL has accepted against head (n at most the records it
// returned), so recovery can cut the log there.
func walPrefix(k []byte, file []byte, head walHead, n uint64) (int64, [sealSize]byte) {
	off := walHeaderLen
	chain := chainSeed(k, head.Epoch, head.Shard)
	for i := uint64(0); i < n; i++ {
		end := off + recFrameLen + int(binary.LittleEndian.Uint32(file[off:])) + sealSize
		copy(chain[:], file[end-sealSize:end])
		off = end
	}
	return int64(off), chain
}

// walPos is a position in one log: a sequence number and the chain value
// the log reaches there.
type walPos struct {
	seq   uint64
	chain [sealSize]byte
}

// walWriter is one shard's live log: an open WAL file plus its head file.
// The shard worker appends through it (under the shard lock), the
// background flusher syncs it, and checkpoints reset it; its own mutex
// orders those three.
type walWriter struct {
	mu       sync.Mutex
	fs       FS
	key      []byte
	dataKey  []byte
	shardIdx uint32
	path     string
	headPath string

	f     File
	headF File
	off   int64 // next append offset
	epoch uint64
	seq   uint64
	chain [sealSize]byte
	codec *walCodec // payload cipher and chain MAC for the current epoch

	syncedSeq  uint64 // last seq covered by a durable head
	flushedSeq uint64 // last seq covered by a data sync (at or past syncedSeq)
	headSlot   int    // slot the next head write targets
	scratch    []byte

	// poisoned marks a writer whose in-memory position no longer matches
	// the file (a rewind failed). Nothing may be published from it until a
	// shard repair re-primes it from the durable state.
	poisoned bool
}

// append frames recs onto the file and returns the framed bytes (valid
// until the writer's next append — callers that retain them, e.g. to
// build a replication segment, must copy). Callers holding the batch are
// responsible for calling syncAndPublish (always policy) or leaving it to
// the flusher (batch policy).
func (w *walWriter) append(recs []walRec) ([]byte, error) {
	b := w.scratch[:0]
	chain := w.chain
	seq := w.seq
	for _, r := range recs {
		seq++
		b, chain = appendRecord(b, w.codec, chain, seq, r)
	}
	if _, err := w.f.WriteAt(b, w.off); err != nil {
		return nil, err
	}
	w.scratch = b[:0]
	w.off += int64(len(b))
	w.chain = chain
	w.seq = seq
	return b, nil
}

// rewind durably removes appended-but-unpublished records after a failed
// commit, restoring the writer to the batch's start position. The batch
// was failed unexecuted and unacknowledged, so its records must not stay
// in the log: later batches would chain past them and recovery would
// replay operations the live process never performed. The truncation is
// synced so a crash cannot resurrect the removed bytes.
func (w *walWriter) rewind(off int64, seq uint64, chain [sealSize]byte) error {
	if err := w.f.Truncate(off); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.off, w.seq, w.chain = off, seq, chain
	w.flushedSeq = seq
	return nil
}

// syncAndPublish makes appended records durable and seals the new
// committed position into the head file. WAL data is always synced before
// the head, so the sealed head never claims records the log lost.
func (w *walWriter) syncAndPublish() error {
	if w.poisoned {
		// The in-memory position is a lie; sealing a head from it could
		// commit records of a batch the pool refused. The shard is
		// quarantined and repair will re-prime this writer.
		return nil
	}
	if w.seq == w.syncedSeq {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.flushedSeq = w.seq
	if err := w.writeHead(w.seq, w.chain); err != nil {
		return err
	}
	w.syncedSeq = w.seq
	return nil
}

// syncTo makes every appended record durable and, when pos is non-nil and
// ahead of the sealed head, seals the head at pos — a position at or
// behind the writer's own, which lets the aux journal's flusher keep shard
// heads within what a durable barrier covers (see flushAux).
func (w *walWriter) syncTo(pos *walPos) error {
	if w.poisoned {
		return nil // see syncAndPublish
	}
	if w.seq != w.flushedSeq {
		if err := w.f.Sync(); err != nil {
			return err
		}
		w.flushedSeq = w.seq
	}
	if pos == nil || pos.seq <= w.syncedSeq {
		return nil
	}
	if err := w.writeHead(pos.seq, pos.chain); err != nil {
		return err
	}
	w.syncedSeq = pos.seq
	return nil
}

// writeHead seals position (seq, chain) into the next head slot.
func (w *walWriter) writeHead(seq uint64, chain [sealSize]byte) error {
	slot := encodeHead(w.key, walHead{Epoch: w.epoch, Shard: w.shardIdx, Seq: seq, Chain: chain})
	if _, err := w.headF.WriteAt(slot[:], int64(w.headSlot)*headSlotSize); err != nil {
		return err
	}
	if err := w.headF.Sync(); err != nil {
		return err
	}
	w.headSlot ^= 1
	return nil
}

// reset starts a fresh epoch: truncate the log, write its header, and
// seal a zero-sequence head. Called with the pool frozen (checkpoint) or
// before the pool serves traffic (recovery).
func (w *walWriter) reset(epoch uint64) error {
	if err := w.reopen(); err != nil {
		return err
	}
	hdr := encodeWALHeader(epoch, w.shardIdx)
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.WriteAt(hdr[:], 0); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.off = walHeaderLen
	w.epoch = epoch
	w.seq = 0
	w.syncedSeq = 0
	w.flushedSeq = 0
	w.chain = chainSeed(w.key, epoch, w.shardIdx)
	w.codec = newWALCodec(w.key, w.dataKey, epoch, w.shardIdx)
	w.poisoned = false
	return w.writeHead(0, w.chain)
}

// name labels the log in errors.
func (w *walWriter) name() string {
	if w.shardIdx == auxShardIdx {
		return "aux WAL"
	}
	return fmt.Sprintf("shard %d WAL", w.shardIdx)
}

// reopen ensures both file handles exist, creating the files if needed.
func (w *walWriter) reopen() error {
	if w.f == nil {
		f, err := w.fs.OpenFile(w.path)
		if err != nil {
			if f, err = w.fs.Create(w.path); err != nil {
				return err
			}
		}
		w.f = f
	}
	if w.headF == nil {
		f, err := w.fs.OpenFile(w.headPath)
		if err != nil {
			if f, err = w.fs.Create(w.headPath); err != nil {
				return err
			}
		}
		w.headF = f
	}
	return nil
}

// close releases the file handles.
func (w *walWriter) close() error {
	var first error
	if w.f != nil {
		if err := w.f.Close(); err != nil {
			first = err
		}
		w.f = nil
	}
	if w.headF != nil {
		if err := w.headF.Close(); err != nil && first == nil {
			first = err
		}
		w.headF = nil
	}
	return first
}
