package persist

import "encoding/binary"

// Bridges for the external-package tests in this directory
// (tenant_crash_test.go is `package persist_test` so it can import the
// tenant layer, which itself imports persist). Only the crash-injecting
// filesystem crosses the boundary; everything here compiles into test
// binaries exclusively.

// CrashFS is the in-memory power-loss filesystem used by the crash
// matrix, exported for the tenant-layer sweeps.
type CrashFS = crashFS

// NewCrashFS returns a fresh CrashFS with fault injection disarmed.
func NewCrashFS() *CrashFS { return newCrashFS() }

// ArmFail makes the n-th mutating operation from now (1-based) and every
// operation after it fail, simulating the instant the power goes out.
func (c *crashFS) ArmFail(n int) { c.armFail(n) }

// Crash applies the power-loss model (un-synced writes and directory
// operations are dropped) and disarms injection so recovery can run.
func (c *crashFS) Crash() { c.crash() }

// Mutate edits a file's durable content in place (tamper simulation).
func (c *crashFS) Mutate(name string, fn func([]byte) []byte) { c.mutate(name, fn) }

// PowerCut applies the independent-writeback loss model (each file keeps
// a seeded random prefix of its unsynced writes) and kills every handle
// the crashed process held. It returns how many unsynced writes were lost.
func (c *crashFS) PowerCut(seed int64) int { return c.writeback(seed) }

// FlushAux runs one FsyncBatch flusher tick with the aux journal on.
func (st *Store) FlushAux() error { return st.flushAux(false) }

// WALFrames returns the [start, end) byte range of every record frame in a
// WAL file, stopping at the first frame that does not fit.
func WALFrames(file []byte) [][2]int {
	var out [][2]int
	for off := walHeaderLen; off+recFrameLen <= len(file); {
		end := off + recFrameLen + int(binary.LittleEndian.Uint32(file[off:])) + sealSize
		if end > len(file) {
			break
		}
		out = append(out, [2]int{off, end})
		off = end
	}
	return out
}

// AuxBarrierFrames returns the frames of an aux log that are barriers of a
// pool with the given shard count (their payload length is unique among
// aux records).
func AuxBarrierFrames(file []byte, shards int) [][2]int {
	var out [][2]int
	for _, fr := range WALFrames(file) {
		if fr[1]-fr[0] == recFrameLen+recFixedLen+8*shards+sealSize {
			out = append(out, fr)
		}
	}
	return out
}

// Clone returns an independent copy of the durable state.
func (c *crashFS) Clone() *CrashFS { return c.clone() }

// CheckAgainstSerial recovers two copies of cfs's durable state under
// opts, one with Recover and one with the serial reference, and fails the
// test unless they agree (recover_oracle_test.go).
var CheckAgainstSerial = checkAgainstSerial
