package integrity

import (
	"encoding/binary"

	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

// LogHash is the related-work baseline of Suh et al. (MICRO 2003): instead
// of verifying every fetch against a tree, the processor maintains two
// incremental multiset hashes — one over values written to memory, one over
// values read — plus a per-block version counter. At a checkpoint the
// processor sweeps the protected region, reading every block a final time;
// if memory behaved (every read returned the most recent write), the two
// multisets are equal.
//
// The multiset hash here is XOR-aggregated HMAC(addr ‖ version ‖ value),
// an xor-MSet construction. The scheme's weakness, which the paper notes
// (§2), is the detection *latency*: tampering is only discovered at the
// next checkpoint, leaving a window the attacker can exploit.
type LogHash struct {
	m        *mem.Memory
	mac      *macEngine
	region   mem.Region
	writeLog [20]byte
	readLog  [20]byte
	version  map[layout.Addr]uint64

	// msg is per-verifier scratch for entry assembly (zero allocations on
	// the read/write log paths).
	msg [layout.BlockSize + 16]byte

	// Ops counts HMAC computations for the experiment harness.
	Ops uint64
}

// NewLogHash creates a log-hash verifier over one protected region. Every
// block starts at version 0 with its current (zero) memory content recorded
// as the initial write.
func NewLogHash(m *mem.Memory, key []byte, region mem.Region) *LogHash {
	l := &LogHash{m: m, region: region, version: make(map[layout.Addr]uint64)}
	l.mac = newMACEngine(key)
	// Record the initial contents as writes at version 0 so the first
	// checkpoint balances. The sweep is set-up, not program traffic, so it
	// reads without touching the bus counters or the observer.
	for a := region.Base; a < region.Base+layout.Addr(region.Size); a += layout.BlockSize {
		blk := m.Snapshot(a)
		xorInto(&l.writeLog, l.entry(a, 0, &blk))
	}
	return l
}

func (l *LogHash) entry(a layout.Addr, version uint64, blk *mem.Block) [20]byte {
	binary.BigEndian.PutUint64(l.msg[:8], uint64(a))
	binary.BigEndian.PutUint64(l.msg[8:16], version)
	copy(l.msg[16:], blk[:])
	l.Ops++
	return *l.mac.tag(nil, l.msg[:])
}

func xorInto(dst *[20]byte, src [20]byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// OnRead records a processor read of the block at a with the observed
// contents, and immediately re-writes the block at the next version (the
// read-verify-write discipline the scheme requires so each version is read
// exactly once).
func (l *LogHash) OnRead(a layout.Addr, blk *mem.Block) {
	a = a.BlockAddr()
	v := l.version[a]
	xorInto(&l.readLog, l.entry(a, v, blk))
	l.version[a] = v + 1
	xorInto(&l.writeLog, l.entry(a, v+1, blk))
}

// OnWrite records a processor writeback of new contents to the block at a.
// The scheme first consumes the old value as a read (every written version
// must eventually be read exactly once), then logs the new version.
func (l *LogHash) OnWrite(a layout.Addr, old, new *mem.Block) {
	a = a.BlockAddr()
	v := l.version[a]
	xorInto(&l.readLog, l.entry(a, v, old))
	l.version[a] = v + 1
	xorInto(&l.writeLog, l.entry(a, v+1, new))
}

// Checkpoint sweeps the region, consuming every block's latest version as a
// final read, and reports whether the read and write logs balance. After a
// successful checkpoint the logs are reset and versions restart from a
// clean epoch. A false result means some read returned data that was never
// correctly written — tampering occurred since the last checkpoint.
func (l *LogHash) Checkpoint() bool {
	read := l.readLog
	for a := l.region.Base; a < l.region.Base+layout.Addr(l.region.Size); a += layout.BlockSize {
		var blk mem.Block
		l.m.ReadBlock(a, &blk)
		xorInto(&read, l.entry(a, l.version[a], &blk))
	}
	ok := read == l.writeLog
	if ok {
		// Re-seed the logs from current memory for the next epoch.
		l.readLog = [20]byte{}
		l.writeLog = [20]byte{}
		l.version = make(map[layout.Addr]uint64)
		for a := l.region.Base; a < l.region.Base+layout.Addr(l.region.Size); a += layout.BlockSize {
			var blk mem.Block
			l.m.ReadBlock(a, &blk)
			xorInto(&l.writeLog, l.entry(a, 0, &blk))
		}
	}
	return ok
}
