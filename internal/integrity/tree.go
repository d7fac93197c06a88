// Package integrity implements the memory integrity verification engines
// the paper studies:
//
//   - a per-block MAC scheme (detects spoofing and splicing but not replay,
//     the XOM-style baseline);
//   - the standard Merkle tree over data memory with an on-chip root;
//   - the Bonsai Merkle Tree: per-block data MACs bound to encryption
//     counters, with the Merkle tree built only over the counter blocks;
//   - the extended-tree swap protection of §5.1, where a Page Root
//     Directory in tree-covered physical memory holds the page roots of
//     swapped-out pages;
//   - a log-hash baseline from the related work (Suh et al.), which defers
//     detection to periodic checkpoints.
//
// Tree nodes are content MACs: each parent covers the 64-byte storage block
// holding its children's MACs, so position binding (splicing protection)
// comes from the tree structure while page images stay relocatable, which
// is what lets one tree cover both physical and swap memory.
package integrity

import (
	"fmt"

	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

// Error reports an integrity violation: the first tree level (or MAC) whose
// stored value did not match the recomputed one.
type Error struct {
	Addr  layout.Addr // protected block whose verification failed
	Level int         // 0 = leaf MAC, increasing toward the root, -1 = data MAC
	Node  layout.Addr // address of the mismatching MAC's storage block
}

func (e *Error) Error() string {
	return fmt.Sprintf("integrity: block %#x failed verification at level %d (node %#x)", e.Addr, e.Level, e.Node)
}

type level struct {
	base  layout.Addr
	count uint64 // MACs at this level
}

// storageBlocks returns how many 64-byte blocks hold count MACs of width b.
func storageBlocks(count uint64, b int) uint64 {
	return (count*uint64(b) + layout.BlockSize - 1) / layout.BlockSize
}

// Tree is a Merkle tree over one or more contiguous regions of physical
// memory. All node MACs live in memory starting at a caller-supplied
// storage base; only the root MAC stays on chip.
type Tree struct {
	*TreeGeometry
	m     *mem.Memory
	mac   *macEngine // the per-node tag engine
	key   []byte     // keys UpdateBatch's per-helper engines
	root  []byte
	built bool

	// Per-instance scratch for the verify/update walks, so the per-access
	// hot path performs zero heap allocations. Tree is not safe for
	// concurrent use (one controller pipeline), so plain fields suffice;
	// UpdateBatch's internal hash fan-out is the only concurrency and it
	// never touches these fields (or t.mac) from more than one goroutine.
	nodeScratch [32]byte // recomputed node MAC (≤256 bits)

	// tags is the tag memo: per level (leaf content first, then each node
	// level), the last block contentMACInto MAC'd and its tag. A tag is a
	// pure function of the block under the tree's fixed key, so a
	// byte-identical block at the same level reuses it, and no mutator
	// has to clear it.
	tags []taggedBlock

	// memo holds, per level, the node storage block the last walk fetched
	// (the walk's on-chip copy) and whether it is authenticated up to the
	// root. Entries become authenticated only inside a sweep (BeginSweep to
	// EndSweep), and every mutator clears them, so a walk can stop at a
	// memoized block only while nothing has changed since it was verified.
	memo     []verifiedNode
	sweeping bool

	// cache, when non-nil, is the on-chip write-back cache of node storage
	// blocks: slot reads/writes and interior re-hashes hit it instead of
	// memory, and dirty blocks reach memory only on eviction or FlushNodes.
	cache *nodeCache

	up     treeUpdater // reusable scratch for UpdateBatch
	ustats UpdateStats // batched-engine counters (see UpdateStats)

	// MACOps counts HMAC computations for the experiment harness.
	MACOps uint64
}

// TreeStorageBytes returns the memory needed for all node levels of a tree
// protecting nLeaves blocks with the given MAC width.
func TreeStorageBytes(nLeaves uint64, macBits int) (uint64, error) {
	g, err := layout.Geometry(macBits)
	if err != nil {
		return 0, err
	}
	var total uint64
	count := nLeaves
	for {
		blocks := storageBlocks(count, g.MACBytes)
		total += blocks * layout.BlockSize
		if blocks <= 1 {
			break
		}
		count = blocks
	}
	return total, nil
}

// NewTree builds the level geometry for a tree protecting the given regions
// (in order), with node storage laid out contiguously from storageBase.
// Call Build before the first Verify.
func NewTree(m *mem.Memory, key []byte, macBits int, regions []mem.Region, storageBase layout.Addr) (*Tree, error) {
	tg, err := NewTreeGeometry(macBits, regions, storageBase)
	if err != nil {
		return nil, err
	}
	t := &Tree{TreeGeometry: tg, m: m, mac: newMACEngine(key), key: append([]byte(nil), key...)}
	t.memo = make([]verifiedNode, len(tg.levels))
	t.tags = make([]taggedBlock, len(tg.levels)+1)
	return t, nil
}

// taggedBlock is one level's entry in the tag memo.
type taggedBlock struct {
	valid bool
	blk   mem.Block
	tag   [32]byte
}

// verifiedNode is one level's entry in the walk memo.
type verifiedNode struct {
	addr     layout.Addr
	verified bool
	blk      mem.Block
}

// BeginSweep opens a verification sweep: until EndSweep, a walk that
// reaches a node block an earlier walk of the sweep authenticated compares
// against that copy and stops instead of re-walking to the root. A sweep
// only pays off when its walks go in leaf order, and it must not span
// anything that writes node storage behind the tree's back (an attacker's
// tamper between two walks would go unseen until the sweep ends). The
// tree's own mutators clear the memo, so interleaved updates stay correct.
// BeginSweep also forgets the tag memo, so what a sweep MACs depends on
// the tree it sweeps and not on the walks before it.
func (t *Tree) BeginSweep() {
	t.clearMemo()
	clear(t.tags)
	t.sweeping = true
}

// EndSweep closes the sweep and forgets everything it verified.
func (t *Tree) EndSweep() {
	t.sweeping = false
	t.clearMemo()
}

func (t *Tree) clearMemo() {
	for i := range t.memo {
		t.memo[i].verified = false
	}
}

// macAtInto reads the stored MAC at a level slot into dst (len MACBytes),
// from the node cache when the slot's storage block is resident. MAC widths
// divide the block size, so a slot never spans two storage blocks.
func (t *Tree) macAtInto(lv level, idx uint64, dst []byte) {
	addr := lv.base + layout.Addr(idx*uint64(t.g.MACBytes))
	if t.cache != nil {
		if e := t.cache.get(addr.BlockAddr()); e != nil {
			copy(dst, e.content[addr-addr.BlockAddr():])
			return
		}
	}
	t.m.Read(addr, dst)
}

// setMACAt writes a level slot. With a node cache attached the write is
// write-allocate: the slot's storage block is pulled into the cache (filling
// the rest of the block from memory) and dirtied, reaching memory only on
// eviction or FlushNodes.
func (t *Tree) setMACAt(lv level, idx uint64, mac []byte) {
	addr := lv.base + layout.Addr(idx*uint64(t.g.MACBytes))
	if t.cache != nil {
		e := t.cache.ensure(addr.BlockAddr(), t.m)
		copy(e.content[addr-addr.BlockAddr():], mac)
		e.dirty = true
		return
	}
	t.m.Write(addr, mac)
}

// rawSetMACAt writes a level slot directly to memory, bypassing the cache.
// Build uses it so trusted construction does not churn the bounded cache.
func (t *Tree) rawSetMACAt(lv level, idx uint64, mac []byte) {
	t.m.Write(lv.base+layout.Addr(idx*uint64(t.g.MACBytes)), mac)
}

// readNodeBlockInto copies the node storage block at a into dst, from the
// write-back cache when resident.
func (t *Tree) readNodeBlockInto(a layout.Addr, dst *mem.Block) {
	if t.cache != nil {
		if e := t.cache.get(a); e != nil {
			*dst = e.content
			return
		}
	}
	t.m.ReadBlock(a, dst)
}

// contentMACInto computes the content MAC of one 64-byte block at tag
// memo level lvl (0 for leaf content, li+1 for node level li) into dst (len
// MACBytes) without allocating. A block byte-identical to the last one
// MAC'd at that level gets the stored tag and costs no MAC. The compare
// exits early, but it only ever sees off-chip metadata an attacker can
// already read off the bus.
func (t *Tree) contentMACInto(lvl int, blk *mem.Block, dst []byte) {
	e := &t.tags[lvl]
	if e.valid && e.blk == *blk {
		copy(dst, e.tag[:])
		return
	}
	t.mac.sizedInto(dst, blk[:], t.g.MACBits)
	t.MACOps++
	e.valid, e.blk = true, *blk
	copy(e.tag[:], dst)
}

// memMACInto computes the content MAC of the block at a, read straight from
// memory, at tag memo level lvl: the leaf an update re-hashes, and every
// block Build hashes. Other node storage reads go through storageMACInto so
// they see cached contents.
func (t *Tree) memMACInto(lvl int, a layout.Addr, dst []byte) {
	var blk mem.Block
	t.m.ReadBlock(a, &blk)
	t.contentMACInto(lvl, &blk, dst)
}

// storageMACInto computes the content MAC of the level li node storage
// block at a into dst, reading the block through the node cache.
func (t *Tree) storageMACInto(li int, a layout.Addr, dst []byte) {
	var blk mem.Block
	t.readNodeBlockInto(a, &blk)
	t.contentMACInto(li+1, &blk, dst)
}

// slotIn returns the level slot idx inside its storage block's content.
func (t *Tree) slotIn(blk *mem.Block, idx uint64) []byte {
	off := idx * uint64(t.g.MACBytes) % layout.BlockSize
	return blk[off : off+uint64(t.g.MACBytes)]
}

// Build computes every node MAC from current memory contents and captures
// the root on chip. It models the trusted boot-time construction the attack
// model assumes (§3). Through the tag memo, a run of identical blocks at a
// level (a never-written region) costs one MAC.
func (t *Tree) Build() {
	t.clearMemo()
	if t.cache != nil {
		t.cache.reset() // construction writes go straight to memory
	}
	mac := t.nodeScratch[:t.g.MACBytes]
	idx := uint64(0)
	for _, r := range t.leaves {
		for a := r.Base; a < r.Base+layout.Addr(r.Size); a += layout.BlockSize {
			t.memMACInto(0, a, mac)
			t.rawSetMACAt(t.levels[0], idx, mac)
			idx++
		}
	}
	for li := 0; li < len(t.levels)-1; li++ {
		lv := t.levels[li]
		blocks := storageBlocks(lv.count, t.g.MACBytes)
		for b := uint64(0); b < blocks; b++ {
			t.memMACInto(li+1, lv.base+layout.Addr(b*layout.BlockSize), mac)
			t.rawSetMACAt(t.levels[li+1], b, mac)
		}
	}
	top := len(t.levels) - 1
	t.memMACInto(top+1, t.levels[top].base, mac)
	t.setRoot(mac)
	t.built = true
}

// Restore installs a previously captured root MAC and marks the tree
// built, for resuming from hibernation: node storage comes back with the
// (untrusted) memory image, while the root returns from trusted
// non-volatile on-chip storage. Subsequent verifications check the image
// against this root.
func (t *Tree) Restore(root []byte) error {
	if len(root) != t.g.MACBytes {
		return fmt.Errorf("integrity: restored root is %d bytes, want %d", len(root), t.g.MACBytes)
	}
	t.root = append([]byte(nil), root...)
	t.built = true
	t.clearMemo()
	if t.cache != nil {
		t.cache.reset() // resuming from an image: nothing is resident yet
	}
	return nil
}

// Root returns a copy of the on-chip root MAC.
func (t *Tree) Root() []byte {
	out := make([]byte, len(t.root))
	copy(out, t.root)
	return out
}

// VerifyBlock fetches the protected block at a and checks it against the
// full MAC chain up to the on-chip root, as the secure processor does on an
// L2 miss. It returns an *Error naming the first level that failed, or nil.
func (t *Tree) VerifyBlock(a layout.Addr) error {
	idx, err := t.verifiableLeaf(a)
	if err != nil {
		return err
	}
	var blk mem.Block
	t.m.ReadBlock(a.BlockAddr(), &blk)
	return t.verifyLeaf(a, idx, &blk)
}

// VerifyContent checks blk, the bytes the caller fetched from the protected
// block at a, against the full MAC chain up to the on-chip root. A caller
// that goes on to use blk (the controller decoding a counter block) is
// using exactly the bytes that were authenticated, rather than a second
// fetch of the same address from untrusted memory.
func (t *Tree) VerifyContent(a layout.Addr, blk *mem.Block) error {
	idx, err := t.verifiableLeaf(a)
	if err != nil {
		return err
	}
	return t.verifyLeaf(a, idx, blk)
}

// verifiableLeaf returns the leaf index of the protected block at a,
// refusing an unbuilt tree or an address the tree does not cover.
func (t *Tree) verifiableLeaf(a layout.Addr) (uint64, error) {
	if !t.built {
		return 0, fmt.Errorf("integrity: tree not built")
	}
	idx, ok := t.LeafIndex(a)
	if !ok {
		return 0, fmt.Errorf("integrity: %#x is not covered by this tree", a)
	}
	return idx, nil
}

// verifyLeaf recomputes the MAC of leaf idx's content and walks its chain.
func (t *Tree) verifyLeaf(a layout.Addr, idx uint64, blk *mem.Block) error {
	leaf := t.nodeScratch[:t.g.MACBytes]
	t.contentMACInto(0, blk, leaf)
	return t.walk(a, idx, leaf)
}

// walk authenticates leaf idx's chain, blaming a on failure. want is the
// MAC the leaf's stored level-0 slot must hold.
//
// The walk fetches each node storage block once, through the node cache,
// into its level's memo entry. That on-chip copy serves both checks the
// level takes part in: the child's slot is compared from it, and the same
// copy is MAC'd for the comparison one level up, ending at the root. In a
// sweep, a block the memo already holds as verified is compared against
// and the walk stops there. Blocks become verified only when the whole
// walk succeeds, so a tampered block is never memoized and a failing walk
// blames exactly what the full walk would.
func (t *Tree) walk(a layout.Addr, idx uint64, want []byte) error {
	mac := t.nodeScratch[:t.g.MACBytes]
	var child layout.Addr
	for li := range t.levels {
		blockAddr, parentIdx := t.TreeGeometry.slotBlock(t.levels[li], idx)
		e := &t.memo[li]
		hit := e.verified && e.addr == blockAddr
		if !hit {
			e.addr, e.verified = blockAddr, false
			t.readNodeBlockInto(blockAddr, &e.blk)
		}
		if !macEqual(want, t.slotIn(&e.blk, idx)) {
			if li == 0 {
				child = blockAddr
			}
			return &Error{Addr: a, Level: li, Node: child}
		}
		if hit {
			t.markVerified(li)
			return nil
		}
		t.contentMACInto(li+1, &e.blk, mac)
		want, child, idx = mac, blockAddr, parentIdx
	}
	if !macEqual(mac, t.root) {
		return &Error{Addr: a, Level: len(t.levels), Node: child}
	}
	t.markVerified(len(t.levels))
	return nil
}

// markVerified records, inside a sweep, that the blocks a successful walk
// fetched below level upto are authenticated.
func (t *Tree) markVerified(upto int) {
	if !t.sweeping {
		return
	}
	for li := 0; li < upto; li++ {
		t.memo[li].verified = true
	}
}

// UpdateBlock recomputes the MAC chain for the protected block at a after
// the processor writes it back, ending with a new on-chip root.
func (t *Tree) UpdateBlock(a layout.Addr) error {
	if !t.built {
		return fmt.Errorf("integrity: tree not built")
	}
	idx, ok := t.LeafIndex(a)
	if !ok {
		return fmt.Errorf("integrity: %#x is not covered by this tree", a)
	}
	t.clearMemo()
	mac := t.nodeScratch[:t.g.MACBytes]
	t.memMACInto(0, a.BlockAddr(), mac)
	t.setMACAt(t.levels[0], idx, mac)
	for li := 0; li < len(t.levels); li++ {
		blockAddr, parentIdx := t.TreeGeometry.slotBlock(t.levels[li], idx)
		t.storageMACInto(li, blockAddr, mac)
		if li == len(t.levels)-1 {
			t.setRoot(mac)
		} else {
			t.setMACAt(t.levels[li+1], parentIdx, mac)
		}
		idx = parentIdx
	}
	return nil
}

// setRoot copies mac into the on-chip root register without aliasing the
// caller's scratch.
func (t *Tree) setRoot(mac []byte) {
	if len(t.root) != len(mac) {
		t.root = make([]byte, len(mac))
	}
	copy(t.root, mac)
}

// LeafMAC returns the stored level-0 MAC protecting the block at a. For the
// Bonsai tree this is the "page root" of the page whose counter block lives
// at a (one counter block per page), the value the Page Root Directory
// stores across swap-out.
func (t *Tree) LeafMAC(a layout.Addr) ([]byte, error) {
	idx, ok := t.LeafIndex(a)
	if !ok {
		return nil, fmt.Errorf("integrity: %#x is not covered by this tree", a)
	}
	buf := make([]byte, t.g.MACBytes)
	t.macAtInto(t.levels[0], idx, buf)
	return buf, nil
}

// InstallLeafMAC overwrites the stored level-0 MAC for the block at a and
// propagates the change to the root. The swap-in path uses it to graft a
// verified page root back into the tree (§5.1 step four).
func (t *Tree) InstallLeafMAC(a layout.Addr, mac []byte) error {
	idx, ok := t.LeafIndex(a)
	if !ok {
		return fmt.Errorf("integrity: %#x is not covered by this tree", a)
	}
	if len(mac) != t.g.MACBytes {
		return fmt.Errorf("integrity: MAC is %d bytes, want %d", len(mac), t.g.MACBytes)
	}
	t.clearMemo()
	t.setMACAt(t.levels[0], idx, mac)
	m := t.nodeScratch[:t.g.MACBytes]
	for li := 0; li < len(t.levels); li++ {
		blockAddr, parentIdx := t.TreeGeometry.slotBlock(t.levels[li], idx)
		t.storageMACInto(li, blockAddr, m)
		if li == len(t.levels)-1 {
			t.setRoot(m)
		} else {
			t.setMACAt(t.levels[li+1], parentIdx, m)
		}
		idx = parentIdx
	}
	return nil
}

// NodeAddrs returns the storage-block addresses a verification of the block
// at a would touch, leaf level first. The timing simulator uses the same
// walk to model cached tree traversals.
func (t *Tree) NodeAddrs(a layout.Addr) ([]layout.Addr, error) {
	idx, ok := t.LeafIndex(a)
	if !ok {
		return nil, fmt.Errorf("integrity: %#x is not covered by this tree", a)
	}
	addrs := make([]layout.Addr, 0, len(t.levels))
	for li := 0; li < len(t.levels); li++ {
		blockAddr, parentIdx := t.TreeGeometry.slotBlock(t.levels[li], idx)
		addrs = append(addrs, blockAddr)
		idx = parentIdx
	}
	return addrs, nil
}

// AppendNodeAddrs appends the same walk to dst without allocating (when
// dst has capacity) and reports whether a is covered. The secure memory
// controller's metadata-cache model replays the walk on every
// verification, so this variant must stay off the heap.
func (t *Tree) AppendNodeAddrs(dst []layout.Addr, a layout.Addr) ([]layout.Addr, bool) {
	idx, ok := t.LeafIndex(a)
	if !ok {
		return dst, false
	}
	for li := 0; li < len(t.levels); li++ {
		blockAddr, parentIdx := t.TreeGeometry.slotBlock(t.levels[li], idx)
		dst = append(dst, blockAddr)
		idx = parentIdx
	}
	return dst, true
}

// Levels returns the number of node levels in the tree.
func (t *Tree) Levels() int { return len(t.levels) }
