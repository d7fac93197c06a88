package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"aisebmt/internal/persist"
)

const (
	pageSize  = 4096
	blockSize = 64
	// nConns is the closed-loop client count: the box has two cores and the
	// daemon's callers are synchronous, so two connections that each wait
	// for their reply are the honest model (see README, "Limits").
	nConns = 2
)

// fsyncPolicy is the WAL sync policy of the durable workloads, for the
// daemon and for the in-process persist rung alike. The commit path runs
// in full (encode, encrypt, HMAC chain, append) but the device flush is
// left out: on this sandbox its latency is the host disk's, and with it
// the same code moved 25-32% between runs (README, "Limits").
const fsyncPolicy = persist.FsyncOff

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opFork       // fork → write to the child (COW break) → read it back → destroy
	opCheckpoint // the background work: connection 0 issues one per slice on durable workloads
)

// op is one generated request. unit is a pool page on the flat workloads
// and tenant*pagesPerTenant+page on the tenant workload; the shadow is
// indexed by it either way.
type op struct {
	kind opKind
	unit uint32
	off  uint32
	n    uint32
	seq  uint64 // position in its connection's stream; write payloads derive from it
}

// workload is one traffic mix plus the daemon configuration it runs
// against. The daemon sees only the ops; every property below is applied
// in the harness.
type workload struct {
	name string

	memMiB         int
	durable        bool
	tenants        int // 0 = flat pool ops
	pagesPerTenant int

	opBytes   int
	readFrac  float64
	forkFrac  float64
	zipfS     float64 // 0 = uniform
	ladderOps int     // ops the traced ladder replays per rung
}

// workloads, in run order. BENCHMARK.json records why each exists; the
// README says which layer each one loads and which it bypasses.
var workloads = []*workload{
	{
		name:   "mem_point",
		memMiB: 16, opBytes: 64, readFrac: 0.95, zipfS: 1.2, ladderOps: 20000,
	},
	{
		name:   "mem_bulk",
		memMiB: 32, opBytes: 4096, readFrac: 0.5, ladderOps: 3000,
	},
	{
		name:   "durable_mixed",
		memMiB: 16, durable: true, opBytes: 256, readFrac: 0.5, zipfS: 1.2, ladderOps: 20000,
	},
	{
		name:   "tenant_churn",
		memMiB: 16, durable: true, tenants: 8, pagesPerTenant: 32,
		opBytes: 256, readFrac: 0.6, forkFrac: 0.1, zipfS: 1.5, ladderOps: 4000,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// units is the number of shadowed 4KiB units the stream addresses.
func (w *workload) units() int {
	if w.tenants > 0 {
		return w.tenants * w.pagesPerTenant
	}
	return w.memMiB << 20 / pageSize
}

// daemonArgs are the secmemd flags of this workload: defaults except for
// the memory size, the data dir, the sync policy, no timer-triggered
// snapshots (the harness issues the checkpoints), and a tenant resident
// budget smaller than the working set.
func (w *workload) daemonArgs(listen, dataDir string) []string {
	args := []string{"-listen", listen, "-mem", fmt.Sprintf("%dMiB", w.memMiB)}
	if w.tenants > 0 {
		args = append(args, "-swapslots", "64", "-resident-pages", "64")
	}
	if w.durable {
		args = append(args, "-data-dir", dataDir, "-fsync", fsyncPolicy.String(), "-snapshot-every", "0")
	}
	return args
}

// stream generates one connection's ops. The same (workload, seed, conn,
// nconn) always yields the same sequence. Connection conn addresses only
// units ≡ conn (mod nconn), so it reads only its own writes and the shadow
// check is exact without cross-connection ordering.
type stream struct {
	w      *workload
	rng    *rand.Rand
	zipf   *rand.Zipf
	conn   int
	nconn  int
	owned  uint64
	stride uint64 // odd, so rank → owned index is a bijection on the power-of-two unit counts
	shift  uint64
	seq    uint64
}

func newStream(w *workload, seed int64, conn, nconn int) *stream {
	// Connections draw from distinct generators; the hot set is the same
	// ranks scattered by a seed-derived stride, so a new seed moves the hot
	// pages as well as the op order.
	rng := rand.New(rand.NewSource(seed*1000003 + int64(conn)*7919 + int64(nconn)))
	s := &stream{
		w: w, rng: rng, conn: conn, nconn: nconn,
		owned:  uint64((w.units() + nconn - 1 - conn) / nconn),
		stride: uint64(rng.Int63()) | 1,
		shift:  uint64(rng.Int63()),
	}
	if w.zipfS > 0 {
		s.zipf = rand.NewZipf(rng, w.zipfS, 1, s.owned-1)
	}
	return s
}

func (s *stream) next() op {
	o := op{seq: s.seq, n: uint32(s.w.opBytes)}
	s.seq++
	switch r := s.rng.Float64(); {
	case r < s.w.forkFrac:
		o.kind = opFork
	case r < s.w.forkFrac+s.w.readFrac:
		o.kind = opRead
	default:
		o.kind = opWrite
	}
	var rank uint64
	if s.zipf != nil {
		rank = s.zipf.Uint64()
	} else {
		rank = uint64(s.rng.Int63n(int64(s.owned)))
	}
	k := (rank*(s.stride%s.owned) + s.shift%s.owned) % s.owned
	o.unit = uint32(k)*uint32(s.nconn) + uint32(s.conn)
	o.off = uint32(s.rng.Intn((pageSize-s.w.opBytes)/blockSize+1)) * blockSize
	return o
}

// payloadKey keys the write payloads of connection conn under seed.
func payloadKey(seed int64, conn int) uint64 { return uint64(seed)<<20 ^ uint64(conn+1)<<56 }

// prefillKey keys the prefill payloads; they depend on the seed and the
// unit only, so the shadow after prefill is the same however many
// connections shared the work.
func prefillKey(seed int64) uint64 { return uint64(seed)<<20 ^ 0xfeed<<40 }

// fillPayload expands (key, seq) into len(dst) bytes of splitmix64 output;
// len(dst) is a multiple of 8 on every workload.
func fillPayload(dst []byte, key, seq uint64) {
	x := key + seq*0x9e3779b97f4a7c15
	for i := 0; i+8 <= len(dst); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(dst[i:], z^z>>31)
	}
}

// shadow is the harness's model of what the daemon must hold: every
// acknowledged write is applied to it, every reply is compared against it.
// Connections touch disjoint units, so they share one array without locks.
type shadow struct{ mem []byte }

func newShadow(units int) *shadow { return &shadow{mem: make([]byte, units*pageSize)} }

func (sh *shadow) span(o op) []byte {
	base := int(o.unit)*pageSize + int(o.off)
	return sh.mem[base : base+int(o.n)]
}

func (sh *shadow) apply(o op, data []byte) { copy(sh.span(o), data) }

// check reports whether got is exactly what the shadow holds for o.
func (sh *shadow) check(o op, got []byte) bool {
	return bytes.Equal(sh.span(o), got)
}
