// Package core is the paper's contribution as a library: a functional
// secure memory controller that combines counter-mode memory encryption
// (with a configurable seed scheme, including AISE) and memory integrity
// verification (per-block MACs, a standard Merkle tree, or Bonsai Merkle
// Trees with extended swap protection) over an untrusted physical memory.
//
// The controller sits at the processor's chip boundary, exactly where the
// paper draws the trust line: plaintext exists only inside calls to
// ReadBlock/WriteBlock (the L2 miss/writeback path), while the mem.Memory
// behind it holds only ciphertext and tamper-evident metadata. Swap-out
// produces relocatable, attacker-visible page images; swap-in verifies them
// through the Page Root Directory before their contents can reach the
// processor.
//
// # Concurrency
//
// SecureMemory is NOT safe for concurrent use. It models one memory
// controller pipeline: counters, MACs and the Merkle tree are mutated
// non-atomically on every access, so callers must serialize all calls on a
// given instance (including read-only-looking ones — ReadBlock bumps
// statistics and walks shared tree state). Concurrent serving is a
// service-layer concern: internal/shard provides a page-sharded pool of
// independent, mutex-guarded controllers behind per-shard worker queues,
// and internal/server puts a network front-end over it.
package core

import (
	"errors"
	"fmt"

	"aisebmt/internal/counter"
	"aisebmt/internal/encrypt"
	"aisebmt/internal/integrity"
	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

// EncryptionScheme selects how blocks are encrypted.
type EncryptionScheme int

// Encryption schemes, in the order the paper discusses them.
const (
	// NoEncryption stores plaintext (the unprotected baseline).
	NoEncryption EncryptionScheme = iota
	// DirectEncryption applies AES directly to each chunk (early schemes).
	DirectEncryption
	// CtrGlobal32 and CtrGlobal64 use a global counter of the given width.
	CtrGlobal32
	CtrGlobal64
	// CtrPhys seeds with physical address plus a per-block counter.
	CtrPhys
	// CtrVirt seeds with virtual address, PID and a per-block counter.
	CtrVirt
	// AISE seeds with logical page identifiers (the paper's proposal).
	AISE
)

func (e EncryptionScheme) String() string {
	switch e {
	case NoEncryption:
		return "none"
	case DirectEncryption:
		return "direct"
	case CtrGlobal32:
		return "global32"
	case CtrGlobal64:
		return "global64"
	case CtrPhys:
		return "ctr-phys"
	case CtrVirt:
		return "ctr-virt"
	case AISE:
		return "AISE"
	default:
		return fmt.Sprintf("EncryptionScheme(%d)", int(e))
	}
}

// IntegrityScheme selects how fetched blocks are verified.
type IntegrityScheme int

// Integrity schemes.
const (
	// NoIntegrity performs no verification.
	NoIntegrity IntegrityScheme = iota
	// MACOnly stores one address-bound MAC per block (no replay detection).
	MACOnly
	// MerkleTree builds the standard tree over data (and counter) memory.
	MerkleTree
	// BonsaiMT uses per-block counter-bound data MACs plus a Merkle tree
	// over the counter region only (the paper's proposal).
	BonsaiMT
)

func (i IntegrityScheme) String() string {
	switch i {
	case NoIntegrity:
		return "none"
	case MACOnly:
		return "mac-only"
	case MerkleTree:
		return "MT"
	case BonsaiMT:
		return "BMT"
	default:
		return fmt.Sprintf("IntegrityScheme(%d)", int(i))
	}
}

// Config describes a secure memory controller instance.
type Config struct {
	// DataBytes is the size of the protected data region (page aligned).
	DataBytes uint64
	// MACBits is the MAC width: 32, 64, 128 (default) or 256.
	MACBits int
	// Key is the processor's 16-byte secret key.
	Key []byte
	// Encryption and Integrity select the schemes.
	Encryption EncryptionScheme
	Integrity  IntegrityScheme
	// SwapSlots sizes the Page Root Directory (0 disables swap support).
	SwapSlots int
	// MACCoverage is the number of consecutive data blocks one BMT MAC
	// covers (the §7.4 storage optimization). 0 or 1 keeps per-block MACs;
	// larger powers of two shrink MAC storage proportionally at the price
	// of reading the whole group on every verification and update.
	MACCoverage int
	// GPCImage, when non-nil, restores the Global Page Counter from a prior
	// Save — the non-volatile register surviving a reboot.
	GPCImage *[8]byte
	// TreeUpdateWorkers bounds the hash fan-out of the batched Merkle tree
	// update engine per level (see BeginTreeBatch). 0 or 1 hashes on the
	// calling goroutine; coalescing happens either way.
	TreeUpdateWorkers int
	// TreeNodeCacheBlocks sizes the write-back cache of tree node storage
	// blocks (0 disables). Dirty nodes reach memory on eviction or at the
	// flush before any hibernate/checkpoint seal.
	TreeNodeCacheBlocks int
	// TreeSerialRef routes every tree update through the frozen serial
	// reference walk (integrity.Tree.UpdateBlockRef) instead of the batched
	// engine — the benchmark "before" configuration. Incompatible with
	// TreeNodeCacheBlocks.
	TreeSerialRef bool
}

// Stats counts the controller's work for experiments and examples.
// PadGens, MACOps, TreeUpdates and TreeVerifies count work actually
// performed — a page span walks the Bonsai tree once however many blocks it
// covers, and a verification sweep generates no pads — while BlockReads,
// BlockWrites and the metadata-cache model stay per block.
type Stats struct {
	BlockReads     uint64
	BlockWrites    uint64
	PadGens        uint64
	MACOps         uint64
	TreeUpdates    uint64
	TreeVerifies   uint64
	PageReencrypts uint64 // minor-counter overflow re-encryptions
	FullReencrypts uint64 // global-counter wrap re-encryptions
	SwapOuts       uint64
	SwapIns        uint64

	// Metadata-cache model counters (see metacache.go): how often the
	// counter block / tree node a verification needs would have been
	// resident in a small on-chip cache. The observability layer surfaces
	// these as hit rates.
	CtrCacheHits      uint64
	CtrCacheMisses    uint64
	TreeNodeCacheHits uint64
	TreeNodeCacheMiss uint64

	// Batched tree-update engine counters (integrity.UpdateStats): what the
	// level-ordered pass did and saved, and the write-back node cache's
	// real (not modeled) traffic. TreeWB* are zero with the cache disabled.
	TreeBatches        uint64
	TreeBatchedLeaves  uint64
	TreeNodesHashed    uint64
	TreeNodesCoalesced uint64
	TreeWBHits         uint64
	TreeWBMisses       uint64
	TreeWBWritebacks   uint64
	TreeWBFlushes      uint64
}

// String renders the counters compactly for logs and examples.
func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d pads=%d MAC ops=%d tree upd/ver=%d/%d reenc page/full=%d/%d swap out/in=%d/%d",
		s.BlockReads, s.BlockWrites, s.PadGens, s.MACOps, s.TreeUpdates, s.TreeVerifies,
		s.PageReencrypts, s.FullReencrypts, s.SwapOuts, s.SwapIns)
}

// Meta carries the per-access context some seed schemes need, plus the
// wire-level trace identifier. Trace is opaque to the controller — it
// rides through so the service layers above can attribute per-stage
// spans to a request without allocating a context.
type Meta struct {
	VirtAddr uint64
	PID      uint32
	Trace    uint64
}

// SecureMemory is a functional secure memory controller. Instances are
// not safe for concurrent use; see the package comment's concurrency
// contract (internal/shard provides the concurrent front-end).
type SecureMemory struct {
	cfg Config
	mem *mem.Memory

	dataRegion mem.Region
	ctrRegion  mem.Region
	macRegion  mem.Region
	dirRegion  mem.Region

	ctrMode  *encrypt.CounterMode
	direct   *encrypt.Direct
	split    *counter.SplitStore
	global   *counter.GlobalStore
	perBlock *counter.PerBlockStore
	gpc      *counter.GPC

	tree      *integrity.Tree
	dataMACs  *integrity.DataMACStore
	groupMACs *integrity.GroupMACStore
	macOnly   *integrity.MACOnlyStore
	rootDir   *integrity.PageRootDirectory

	mcache metaCache
	stats  Stats

	// Deferred tree updates of the open batch window (see treebatch.go).
	treeDepth int
	treeDirty []layout.Addr
}

// Errors returned by the controller.
var (
	// ErrTampered wraps integrity violations (errors.Is matches it).
	ErrTampered = errors.New("core: integrity verification failed")
	// ErrUnsupported reports an operation the configured scheme cannot
	// perform (the paper's qualitative incompatibilities).
	ErrUnsupported = errors.New("core: operation unsupported by configured scheme")
)

// newController performs the scheme-independent setup shared by New and
// Resume: validation, region placement, engine construction. It leaves the
// data region uninitialized and the tree unbuilt.
func newController(cfg Config) (*SecureMemory, error) {
	if cfg.MACBits == 0 {
		cfg.MACBits = 128
	}
	g, err := layout.Geometry(cfg.MACBits)
	if err != nil {
		return nil, err
	}
	if cfg.DataBytes == 0 || cfg.DataBytes%layout.PageSize != 0 {
		return nil, fmt.Errorf("core: DataBytes %d must be a positive multiple of the page size", cfg.DataBytes)
	}
	if len(cfg.Key) != 16 {
		return nil, fmt.Errorf("core: key must be 16 bytes, got %d", len(cfg.Key))
	}
	if cfg.TreeSerialRef && cfg.TreeNodeCacheBlocks > 0 {
		return nil, fmt.Errorf("core: TreeSerialRef bypasses the node cache; TreeNodeCacheBlocks must be 0")
	}
	s := &SecureMemory{cfg: cfg}
	dataBlocks := cfg.DataBytes / layout.BlockSize

	// Region placement: data, counters, MACs, directory, tree storage.
	next := layout.Addr(cfg.DataBytes)
	s.dataRegion = mem.Region{Name: "data", Base: 0, Size: cfg.DataBytes}
	alloc := func(name string, bytes uint64) mem.Region {
		bytes = (bytes + layout.BlockSize - 1) &^ (layout.BlockSize - 1)
		r := mem.Region{Name: name, Base: next, Size: bytes}
		next += layout.Addr(bytes)
		return r
	}

	switch cfg.Encryption {
	case AISE:
		s.ctrRegion = alloc("counters", cfg.DataBytes/layout.BlocksPerPage)
	case CtrVirt, CtrPhys:
		s.ctrRegion = alloc("counters", dataBlocks*8)
	case CtrGlobal32:
		s.ctrRegion = alloc("counters", dataBlocks*4)
	case CtrGlobal64:
		s.ctrRegion = alloc("counters", dataBlocks*8)
	case NoEncryption, DirectEncryption:
		// no counter storage
	default:
		return nil, fmt.Errorf("core: unknown encryption scheme %v", cfg.Encryption)
	}

	if cfg.MACCoverage == 0 {
		cfg.MACCoverage = 1
	}
	if cfg.MACCoverage > 1 && cfg.Integrity != BonsaiMT {
		return nil, fmt.Errorf("%w: MAC coverage applies to Bonsai data MACs only", ErrUnsupported)
	}
	switch cfg.Integrity {
	case BonsaiMT, MACOnly:
		s.macRegion = alloc("datamacs", dataBlocks*uint64(g.MACBytes)/uint64(cfg.MACCoverage))
	case MerkleTree, NoIntegrity:
		// MT level-0 MACs live inside the tree storage region.
	default:
		return nil, fmt.Errorf("core: unknown integrity scheme %v", cfg.Integrity)
	}

	if cfg.SwapSlots > 0 {
		s.dirRegion = alloc("rootdir", uint64(cfg.SwapSlots*g.MACBytes))
	}

	// Tree storage is placed last, sized from its protected regions.
	var treeRegions []mem.Region
	switch cfg.Integrity {
	case MerkleTree:
		treeRegions = append(treeRegions, s.dataRegion)
		if s.ctrRegion.Size > 0 {
			treeRegions = append(treeRegions, s.ctrRegion)
		}
		if s.dirRegion.Size > 0 {
			treeRegions = append(treeRegions, s.dirRegion)
		}
	case BonsaiMT:
		if cfg.Encryption != AISE {
			return nil, fmt.Errorf("%w: Bonsai Merkle Trees bind data MACs to per-block counters and require AISE encryption (got %v)", ErrUnsupported, cfg.Encryption)
		}
		treeRegions = append(treeRegions, s.ctrRegion)
		if s.dirRegion.Size > 0 {
			treeRegions = append(treeRegions, s.dirRegion)
		}
	}
	var treeBase layout.Addr
	var treeBytes uint64
	if len(treeRegions) > 0 {
		var leaves uint64
		for _, r := range treeRegions {
			leaves += r.Size / layout.BlockSize
		}
		treeBytes, err = integrity.TreeStorageBytes(leaves, cfg.MACBits)
		if err != nil {
			return nil, err
		}
		treeBase = next
		next += layout.Addr(treeBytes)
	}

	s.mem = mem.New(uint64(next))
	s.mem.AddRegion(s.dataRegion)
	for _, r := range []mem.Region{s.ctrRegion, s.macRegion, s.dirRegion} {
		if r.Size > 0 {
			s.mem.AddRegion(r)
		}
	}
	if treeBytes > 0 {
		s.mem.AddRegion(mem.Region{Name: "tree", Base: treeBase, Size: treeBytes})
	}

	// Encryption engines.
	s.gpc = counter.NewGPC()
	if cfg.GPCImage != nil {
		s.gpc.Restore(*cfg.GPCImage)
	}
	regs := layout.Regions{CtrBase: s.ctrRegion.Base, CtrBytes: s.ctrRegion.Size}
	switch cfg.Encryption {
	case AISE:
		s.split = counter.NewSplitStore(s.mem, regs, s.gpc)
		s.ctrMode, err = encrypt.NewCounterMode(cfg.Key, encrypt.AISESeed{})
	case CtrPhys:
		s.perBlock, err = counter.NewPerBlockStore(s.mem, s.ctrRegion.Base, 64)
		if err == nil {
			s.ctrMode, err = encrypt.NewCounterMode(cfg.Key, encrypt.PhysSeed{})
		}
	case CtrVirt:
		s.perBlock, err = counter.NewPerBlockStore(s.mem, s.ctrRegion.Base, 64)
		if err == nil {
			s.ctrMode, err = encrypt.NewCounterMode(cfg.Key, encrypt.VirtSeed{})
		}
	case CtrGlobal32:
		s.global, err = counter.NewGlobalStore(s.mem, s.ctrRegion.Base, 32)
		if err == nil {
			s.ctrMode, err = encrypt.NewCounterMode(cfg.Key, encrypt.GlobalSeed{Bits: 32})
		}
	case CtrGlobal64:
		s.global, err = counter.NewGlobalStore(s.mem, s.ctrRegion.Base, 64)
		if err == nil {
			s.ctrMode, err = encrypt.NewCounterMode(cfg.Key, encrypt.GlobalSeed{Bits: 64})
		}
	case DirectEncryption:
		s.direct, err = encrypt.NewDirect(cfg.Key)
	}
	if err != nil {
		return nil, err
	}

	// Integrity engines.
	switch cfg.Integrity {
	case MACOnly:
		s.macOnly, err = integrity.NewMACOnlyStore(s.mem, cfg.Key, cfg.MACBits, s.macRegion.Base, 0)
	case BonsaiMT:
		if cfg.MACCoverage > 1 {
			s.groupMACs, err = integrity.NewGroupMACStore(s.mem, cfg.Key, cfg.MACBits, s.macRegion.Base, 0, cfg.MACCoverage)
		} else {
			s.dataMACs, err = integrity.NewDataMACStore(s.mem, cfg.Key, cfg.MACBits, s.macRegion.Base, 0)
		}
	}
	if err != nil {
		return nil, err
	}
	if len(treeRegions) > 0 {
		s.tree, err = integrity.NewTree(s.mem, cfg.Key, cfg.MACBits, treeRegions, treeBase)
		if err != nil {
			return nil, err
		}
		if cfg.TreeNodeCacheBlocks > 0 {
			s.tree.EnableNodeCache(cfg.TreeNodeCacheBlocks)
		}
	}
	if cfg.SwapSlots > 0 {
		s.rootDir, err = integrity.NewPageRootDirectory(s.mem, s.dirRegion.Base, cfg.MACBits, cfg.SwapSlots)
		if err != nil {
			return nil, err
		}
	}

	return s, nil
}

// New builds a secure memory controller. The physical memory is sized
// automatically: data region first, then counter storage, per-block MACs,
// the page root directory, and Merkle tree nodes. Boot-time initialization
// (§3 assumes the processor constructs the initial state) writes every
// data block as encrypted zeros under its initial counters with MACs to
// match (AISE pages initialize lazily), and captures the Merkle tree root
// on chip.
func New(cfg Config) (*SecureMemory, error) {
	s, err := newController(cfg)
	if err != nil {
		return nil, err
	}
	s.initializeDataRegion()
	if s.tree != nil {
		s.tree.Build()
	}
	return s, nil
}

// initializeDataRegion stores the encrypted image of an all-zero data
// region plus matching MACs, so that the first read of any block verifies
// and decrypts to zeros. Under CtrVirt, seeds fold in the virtual address,
// which is unknown at boot; reads of never-written blocks under that scheme
// return unspecified plaintext (real systems zero such pages through the
// processor at allocation).
func (s *SecureMemory) initializeDataRegion() {
	if s.cfg.Encryption == AISE {
		// AISE pages start vacant (LPID 0): reads return verified zeros and
		// the first write to a page initializes it. Nothing to precompute.
		return
	}
	var zero mem.Block
	for page := layout.Addr(0); page < layout.Addr(s.cfg.DataBytes); page += layout.PageSize {
		for i := 0; i < layout.BlocksPerPage; i++ {
			a := page + layout.Addr(i*layout.BlockSize)
			var ct mem.Block
			switch s.cfg.Encryption {
			case NoEncryption:
				ct = zero
			case DirectEncryption:
				s.direct.EncryptBlock(&ct, &zero)
			default: // global and per-block counter schemes start at counter 0
				s.ctrMode.EncryptBlock(&ct, &zero, s.seedFor(a, Meta{}, 0, 0))
			}
			s.mem.WriteBlock(a, &ct)
			if s.macOnly != nil {
				s.macOnly.Update(a, &ct)
			}
		}
	}
	// Initialization is setup, not workload traffic.
	s.mem.Reads = 0
	s.mem.Writes = 0
}

// Config returns the controller's configuration.
func (s *SecureMemory) Config() Config { return s.cfg }

// Memory exposes the untrusted physical memory (the attack surface).
func (s *SecureMemory) Memory() *mem.Memory { return s.mem }

// Stats returns a copy of the controller's counters.
func (s *SecureMemory) Stats() Stats {
	st := s.stats
	if s.ctrMode != nil {
		st.PadGens = s.ctrMode.Pads()
	}
	if s.tree != nil {
		st.MACOps += s.tree.MACOps
		us := s.tree.UpdateStats()
		st.TreeBatches = us.Batches
		st.TreeBatchedLeaves = us.BatchedLeaves
		st.TreeNodesHashed = us.NodesHashed
		st.TreeNodesCoalesced = us.NodesCoalesced
		st.TreeWBHits = us.CacheHits
		st.TreeWBMisses = us.CacheMisses
		st.TreeWBWritebacks = us.Writebacks
		st.TreeWBFlushes = us.Flushes
	}
	if s.dataMACs != nil {
		st.MACOps += s.dataMACs.MACOps
	}
	if s.macOnly != nil {
		st.MACOps += s.macOnly.MACOps
	}
	return st
}

// AgeGlobalCounter advances the global counter toward its wrap point,
// simulating long uptime for the schemes that have one (§4.1's
// entire-memory re-encryption trigger). It is a no-op for other schemes.
func (s *SecureMemory) AgeGlobalCounter(to uint64) {
	if s.global != nil {
		s.global.Jump(to)
	}
}

// GPCImage returns the Global Page Counter's non-volatile image, for
// carrying across a simulated reboot.
func (s *SecureMemory) GPCImage() [8]byte { return s.gpc.Save() }

// DataBytes returns the size of the protected data region.
func (s *SecureMemory) DataBytes() uint64 { return s.cfg.DataBytes }

// seedFor builds the seed input for a block under the configured scheme.
func (s *SecureMemory) seedFor(a layout.Addr, meta Meta, ctr uint64, lpid uint64) encrypt.SeedInput {
	return encrypt.SeedInput{
		PhysAddr: a,
		VirtAddr: meta.VirtAddr,
		PID:      meta.PID,
		LPID:     lpid,
		Counter:  ctr,
	}
}

// ctrSlotBlock returns the counter-region block holding a data block's
// counter metadata under the configured scheme.
func (s *SecureMemory) ctrSlotBlock(a layout.Addr) layout.Addr {
	switch s.cfg.Encryption {
	case AISE:
		return s.split.BlockAddr(a)
	case CtrGlobal32:
		blk := uint64(a) / layout.BlockSize
		return (s.ctrRegion.Base + layout.Addr(blk*4)).BlockAddr()
	case CtrGlobal64, CtrPhys, CtrVirt:
		blk := uint64(a) / layout.BlockSize
		return (s.ctrRegion.Base + layout.Addr(blk*8)).BlockAddr()
	}
	return 0
}

// reencryptAllGlobal models the global-counter wrap: the key must change
// and the entire data region is re-encrypted (§4.1). The functional library
// re-encrypts under the continuing key with fresh counter values, which
// preserves the observable cost and state transitions.
func (s *SecureMemory) reencryptAllGlobal() error {
	s.stats.FullReencrypts++
	for a := layout.Addr(0); a < layout.Addr(s.cfg.DataBytes); a += layout.BlockSize {
		var ct, plain, nct mem.Block
		s.mem.ReadBlock(a, &ct)
		old := s.global.Stored(a)
		if old == 0 {
			continue // never written
		}
		s.ctrMode.DecryptBlock(&plain, &ct, encrypt.SeedInput{PhysAddr: a, Counter: old})
		v, _ := s.global.Next()
		s.global.SetStored(a, v)
		s.ctrMode.EncryptBlock(&nct, &plain, encrypt.SeedInput{PhysAddr: a, Counter: v})
		s.mem.WriteBlock(a, &nct)
		if s.cfg.Integrity == MerkleTree {
			if err := s.treeUpdate(a); err != nil {
				return err
			}
			if err := s.treeUpdate(s.ctrSlotBlock(a)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Root returns a copy of the on-chip Merkle tree root, or nil when the
// configured integrity scheme keeps no tree.
func (s *SecureMemory) Root() []byte {
	if s.tree == nil {
		return nil
	}
	return s.tree.Root()
}
