// Package journal makes tenant address spaces crash-recoverable. The
// tenant layer's structural history — every mutation of page-table shape,
// frame ownership, swap-directory assignment or the tenant table itself —
// is encoded as compact records appended to the persist layer's
// auxiliary journal (HMAC-chained, encrypted, sealed under its own head
// alongside the shard WALs), and the full tenant state is serialized into
// the checkpoint section whose digest the anchor seals. Recovery replays
// the checkpoint plus the journal suffix, reconciling each swap/move
// record against the structural events the shard-WAL replay regenerated,
// and rolls the durable-but-unacknowledged leftover events forward — so
// a recovered service serves every acknowledged tenant byte bit-exact
// and refuses tampered or rolled-back tenant state fail-closed.
package journal

import (
	"encoding/binary"
	"fmt"
	"sync"

	"aisebmt/internal/vm"
)

// Store is the slice of the persistence layer the journal writes through
// (implemented by *persist.Store).
type Store interface {
	// AppendAux buffers one opaque record in append order.
	AppendAux(rec []byte) error
	// SyncAux binds every buffered record to the pool history it
	// describes, under the store's fsync policy (persist.Store.SyncAux).
	SyncAux() error
}

// Record kinds. 1–11 mirror vm.Sink one-to-one; 12–15 are tenant-table
// events the service layer emits around the vm mutations.
const (
	recProcCreated byte = iota + 1
	recMapped
	recUnmapped
	recProcExited
	recForked
	recShared
	recProtected
	recSwappedOut
	recSwappedIn
	recCOWBroken
	recMigrated
	recTenantCreated
	recTenantDestroyed
	recTenantForked
	recTenantResized
)

// Log implements vm.Sink over a Store: every structural mutation becomes
// one buffered journal record, in emission order (the vm manager's mutex
// already serializes emissions; the store's buffer preserves arrival
// order). A failed append is latched — the journal can no longer promise
// to describe the live history, so Sync reports the failure to every
// subsequent acknowledgement until the process restarts and recovers.
type Log struct {
	st Store

	mu      sync.Mutex
	err     error
	pending uint64 // records appended since the last Sync
}

// NewLog builds a journal log over a store.
func NewLog(st Store) *Log { return &Log{st: st} }

func (l *Log) append(rec []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	if err := l.st.AppendAux(rec); err != nil {
		l.err = err
		return
	}
	l.pending++
}

// Dirty reports whether records were appended since the last Sync — the
// service syncs before acknowledging any operation that journaled.
func (l *Log) Dirty() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pending > 0 || l.err != nil
}

// Sync hands every appended record to the store's SyncAux. It must
// succeed before the operation that emitted the records is acknowledged.
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return fmt.Errorf("tenant journal poisoned: %w", err)
	}
	l.pending = 0
	l.mu.Unlock()
	return l.st.SyncAux()
}

// vm.Sink implementation — called under the vm manager's mutex.

func (l *Log) ProcCreated(pid vm.PID) {
	l.append(u32(nil, recProcCreated, uint32(pid)))
}

func (l *Log) Mapped(pid vm.PID, baseVPN uint64, frames []int) {
	b := u32(nil, recMapped, uint32(pid))
	b = binary.LittleEndian.AppendUint64(b, baseVPN)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(frames)))
	for _, f := range frames {
		b = binary.LittleEndian.AppendUint64(b, uint64(f))
	}
	l.append(b)
}

func (l *Log) Unmapped(pid vm.PID, baseVPN uint64, npages int) {
	b := u32(nil, recUnmapped, uint32(pid))
	b = binary.LittleEndian.AppendUint64(b, baseVPN)
	b = binary.LittleEndian.AppendUint32(b, uint32(npages))
	l.append(b)
}

func (l *Log) ProcExited(pid vm.PID) {
	l.append(u32(nil, recProcExited, uint32(pid)))
}

func (l *Log) Forked(parent, child vm.PID) {
	b := u32(nil, recForked, uint32(parent))
	b = binary.LittleEndian.AppendUint32(b, uint32(child))
	l.append(b)
}

func (l *Log) Shared(src vm.PID, srcVPN uint64, dst vm.PID, dstVPN uint64) {
	b := u32(nil, recShared, uint32(src))
	b = binary.LittleEndian.AppendUint64(b, srcVPN)
	b = binary.LittleEndian.AppendUint32(b, uint32(dst))
	b = binary.LittleEndian.AppendUint64(b, dstVPN)
	l.append(b)
}

func (l *Log) Protected(pid vm.PID, vpn uint64, writable bool) {
	b := u32(nil, recProtected, uint32(pid))
	b = binary.LittleEndian.AppendUint64(b, vpn)
	if writable {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	l.append(b)
}

func (l *Log) SwappedOut(frame, slot int) {
	b := append([]byte{recSwappedOut}, pair64(frame, slot)...)
	l.append(b)
}

func (l *Log) SwappedIn(slot, frame int) {
	b := append([]byte{recSwappedIn}, pair64(slot, frame)...)
	l.append(b)
}

func (l *Log) COWBroken(pid vm.PID, vpn uint64, newFrame int) {
	b := u32(nil, recCOWBroken, uint32(pid))
	b = binary.LittleEndian.AppendUint64(b, vpn)
	b = binary.LittleEndian.AppendUint64(b, uint64(newFrame))
	l.append(b)
}

func (l *Log) Migrated(oldFrame, newFrame int) {
	b := append([]byte{recMigrated}, pair64(oldFrame, newFrame)...)
	l.append(b)
}

// Tenant-table events — emitted by the service after the vm mutations of
// the operation they describe, under that tenant's lock.

// TenantCreated registers id with an npages address space.
func (l *Log) TenantCreated(id uint32, npages int) {
	b := u32(nil, recTenantCreated, id)
	b = binary.LittleEndian.AppendUint64(b, uint64(npages))
	l.append(b)
}

// TenantDestroyed removes id from the tenant table.
func (l *Log) TenantDestroyed(id uint32) {
	l.append(u32(nil, recTenantDestroyed, id))
}

// TenantForked registers child with parent's address-space size.
func (l *Log) TenantForked(parent, child uint32) {
	b := u32(nil, recTenantForked, parent)
	b = binary.LittleEndian.AppendUint32(b, child)
	l.append(b)
}

// TenantResized records id's address space growing to npages (a shared
// mapping landing beyond the previous end).
func (l *Log) TenantResized(id uint32, npages int) {
	b := u32(nil, recTenantResized, id)
	b = binary.LittleEndian.AppendUint64(b, uint64(npages))
	l.append(b)
}

func u32(b []byte, kind byte, v uint32) []byte {
	b = append(b, kind)
	return binary.LittleEndian.AppendUint32(b, v)
}

func pair64(a, b int) []byte {
	out := binary.LittleEndian.AppendUint64(nil, uint64(a))
	return binary.LittleEndian.AppendUint64(out, uint64(b))
}

// recReader decodes one record with bounds latching.
type recReader struct {
	b   []byte
	off int
	bad bool
}

func (r *recReader) u8() byte {
	if r.bad || r.off+1 > len(r.b) {
		r.bad = true
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *recReader) u32() uint32 {
	if r.bad || r.off+4 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *recReader) u64() uint64 {
	if r.bad || r.off+8 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *recReader) done() bool { return !r.bad && r.off == len(r.b) }
