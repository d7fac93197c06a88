// Package encrypt implements the memory encryption engines the paper
// studies: direct-mode AES (the early-scheme baseline) and counter-mode
// encryption with pluggable seed composition — global counter, physical
// address + counter, virtual address + PID + counter, and the paper's
// Address Independent Seed Encryption (AISE).
//
// Counter mode generates a cryptographic pad by enciphering a seed with the
// processor's secret key and XORs it with the 16-byte chunk (C = P ⊕
// E_K(seed)); security requires every seed to be unique across space and
// time, which is exactly the property the different composers trade off.
//
// Both engines run on the CPU's AES instructions: the software counterpart
// of the paper's pipelined AES unit beside the memory controller. Counter
// mode drives them through its own multi-lane kernel (kernel_amd64.s), with
// the standard library's crypto/aes as the portable fallback; direct mode
// binds crypto/aes. The from-scratch internal/crypto/aes is the reference
// the tests check them against.
package encrypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"

	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

// SeedInput carries every field any composer might fold into a seed for one
// 16-byte chunk.
type SeedInput struct {
	PhysAddr layout.Addr // physical address of the chunk's block
	VirtAddr uint64      // virtual address of the chunk's block
	PID      uint32      // owning process (virtual-address schemes)
	LPID     uint64      // logical page identifier (AISE)
	Counter  uint64      // per-block minor or global counter value
	Chunk    int         // chunk index within the block (0..3)
}

// Composer builds the 128-bit seed for a chunk. Implementations must be
// pure functions of their input.
type Composer interface {
	// Name identifies the scheme in reports (Table 1 rows).
	Name() string
	// Compose returns the chunk's seed.
	Compose(in SeedInput) [aes.BlockSize]byte
	// Properties returns the scheme's qualitative Table 1 row.
	Properties() Properties
}

// Properties is one row of the paper's Table 1 qualitative comparison.
type Properties struct {
	IPCSupport      string
	LatencyHiding   string
	StorageOverhead string
	OtherIssues     string
}

// AISESeed composes seeds from logical identifiers only:
// LPID ‖ minor counter ‖ block-in-page ‖ chunk id ‖ zero padding.
// No address component appears, decoupling security from memory management.
type AISESeed struct{}

// Name implements Composer.
func (AISESeed) Name() string { return "AISE" }

// Compose implements Composer.
func (AISESeed) Compose(in SeedInput) [aes.BlockSize]byte {
	var s [aes.BlockSize]byte
	binary.BigEndian.PutUint64(s[0:8], in.LPID)
	s[8] = uint8(in.Counter) & layout.MinorCounterMax
	s[9] = uint8(in.PhysAddr.BlockInPage()) // page offset bits (block index)
	s[10] = uint8(in.Chunk)
	return s
}

// Properties implements Composer.
func (AISESeed) Properties() Properties {
	return Properties{
		IPCSupport:      "Yes",
		LatencyHiding:   "Good",
		StorageOverhead: "Low (1.6%)",
		OtherIssues:     "None",
	}
}

// GlobalSeed composes seeds from the global counter value alone (plus chunk
// id): counter ‖ chunk ‖ zero padding. Bits records the counter width for
// reporting.
type GlobalSeed struct{ Bits int }

// Name implements Composer.
func (g GlobalSeed) Name() string {
	if g.Bits == 32 {
		return "Global Counter (32b)"
	}
	return "Global Counter (64b)"
}

// Compose implements Composer.
func (g GlobalSeed) Compose(in SeedInput) [aes.BlockSize]byte {
	var s [aes.BlockSize]byte
	binary.BigEndian.PutUint64(s[0:8], in.Counter)
	s[8] = uint8(in.Chunk)
	s[15] = 0x01 // domain tag distinguishing the scheme
	return s
}

// Properties implements Composer.
func (GlobalSeed) Properties() Properties {
	return Properties{
		IPCSupport:      "Yes",
		LatencyHiding:   "Caching: Poor, Prediction: Difficult",
		StorageOverhead: "High (64-bit: 12.5%)",
		OtherIssues:     "None",
	}
}

// PhysSeed composes seeds from physical address ‖ per-block counter ‖ chunk.
type PhysSeed struct{}

// Name implements Composer.
func (PhysSeed) Name() string { return "Counter (Phys Addr)" }

// Compose implements Composer.
func (PhysSeed) Compose(in SeedInput) [aes.BlockSize]byte {
	var s [aes.BlockSize]byte
	binary.BigEndian.PutUint64(s[0:8], uint64(in.PhysAddr.BlockAddr()))
	binary.BigEndian.PutUint64(s[8:16], in.Counter<<8|uint64(in.Chunk))
	s[15] |= 0x02
	return s
}

// Properties implements Composer.
func (PhysSeed) Properties() Properties {
	return Properties{
		IPCSupport:      "Yes",
		LatencyHiding:   "Depends on counter size",
		StorageOverhead: "Depends on counter size",
		OtherIssues:     "Re-enc on page swap",
	}
}

// VirtSeed composes seeds from virtual address ‖ process ID ‖ per-block
// counter ‖ chunk.
type VirtSeed struct{}

// Name implements Composer.
func (VirtSeed) Name() string { return "Counter (Virt Addr)" }

// Compose implements Composer.
func (VirtSeed) Compose(in SeedInput) [aes.BlockSize]byte {
	var s [aes.BlockSize]byte
	binary.BigEndian.PutUint64(s[0:8], in.VirtAddr&^uint64(layout.BlockSize-1))
	binary.BigEndian.PutUint32(s[8:12], in.PID)
	binary.BigEndian.PutUint32(s[12:16], uint32(in.Counter)<<8|uint32(in.Chunk)|0x04)
	return s
}

// Properties implements Composer.
func (VirtSeed) Properties() Properties {
	return Properties{
		IPCSupport:      "No shared-memory IPC",
		LatencyHiding:   "Depends on counter size",
		StorageOverhead: "Depends on counter size",
		OtherIssues:     "VA storage in L2",
	}
}

// CounterMode is a counter-mode encryption engine: a block cipher keyed
// with the processor secret plus a seed composer.
//
// Every pad comes out of one kernel that encrypts a run of 16-byte seeds in
// place in the engine's lane buffer: on amd64 with AES-NI an AESENC routine
// over round keys expanded once, at construction, eight independent lanes
// at a time; elsewhere a loop over crypto/aes. A page span's pads are one
// kernel call (EncryptSpan), a block's four are one (EncryptBlock).
//
// An engine is not safe for concurrent use: the lanes live inside it.
type CounterMode struct {
	cipher   cipher.Block // the portable kernel
	rk       roundKeys    // the AES-NI kernel's schedule
	composer Composer
	kind     seedKind
	pads     uint64

	// lanes holds seeds going into the kernel and pads coming out, one
	// page span's worth. It lives in the engine's heap object so the
	// portable kernel, which passes it through the cipher.Block
	// interface, makes no caller buffer escape.
	lanes [layout.BlocksPerPage * layout.ChunksPerBlock * aes.BlockSize]byte
}

// roundKeys is the AES-128 key schedule: eleven 16-byte round keys.
type roundKeys [11 * aes.BlockSize]byte

// seedKind names the built-in composers, so the engine composes their seeds
// through a concrete switch rather than the Composer interface.
type seedKind uint8

const (
	seedOther seedKind = iota
	seedAISE
	seedGlobal
	seedPhys
	seedVirt
)

func kindOf(c Composer) seedKind {
	switch c.(type) {
	case AISESeed:
		return seedAISE
	case GlobalSeed:
		return seedGlobal
	case PhysSeed:
		return seedPhys
	case VirtSeed:
		return seedVirt
	}
	return seedOther
}

// NewCounterMode builds a counter-mode engine from the processor's secret
// key (AES-128) and a seed composer.
func NewCounterMode(key []byte, c Composer) (*CounterMode, error) {
	ci, err := newCipher(key)
	if err != nil {
		return nil, err
	}
	e := &CounterMode{cipher: ci, composer: c, kind: kindOf(c)}
	expandKey(&e.rk, (*[16]byte)(key))
	return e, nil
}

// newCipher keys AES-128 with the processor secret. crypto/aes would also
// take 24- and 32-byte keys; the modeled processor holds a 128-bit one.
func newCipher(key []byte) (cipher.Block, error) {
	if len(key) != 16 {
		return nil, aes.KeySizeError(len(key))
	}
	return aes.NewCipher(key)
}

// encryptLanesPortable is the kernel off AES-NI: crypto/aes, one lane at a
// time, in place.
func (c *CounterMode) encryptLanesPortable(buf []byte) {
	for ; len(buf) >= aes.BlockSize; buf = buf[aes.BlockSize:] {
		c.cipher.Encrypt(buf[:aes.BlockSize], buf[:aes.BlockSize])
	}
}

// Composer returns the engine's seed composer.
func (c *CounterMode) Composer() Composer { return c.composer }

// Pads returns how many pad generations the engine has performed.
func (c *CounterMode) Pads() uint64 { return c.pads }

// compose writes in's seed into lane.
func (c *CounterMode) compose(lane []byte, in SeedInput) {
	var s [aes.BlockSize]byte
	switch c.kind {
	case seedAISE:
		s = AISESeed{}.Compose(in)
	case seedGlobal:
		s = GlobalSeed{}.Compose(in)
	case seedPhys:
		s = PhysSeed{}.Compose(in)
	case seedVirt:
		s = VirtSeed{}.Compose(in)
	default:
		s = c.composer.Compose(in)
	}
	copy(lane, s[:])
}

// Pad generates the cryptographic pad for one chunk.
func (c *CounterMode) Pad(in SeedInput) [aes.BlockSize]byte {
	var pad [aes.BlockSize]byte
	c.PadInto(&pad, in)
	return pad
}

// PadInto generates the cryptographic pad for one chunk into the caller's
// buffer, avoiding the return-value copy on the per-block path.
func (c *CounterMode) PadInto(pad *[aes.BlockSize]byte, in SeedInput) {
	lane := c.lanes[:aes.BlockSize]
	c.compose(lane, in)
	c.encryptLanes(lane)
	copy(pad[:], lane)
	c.pads++
}

// EncryptBlock encrypts (or, symmetrically, decrypts) a 64-byte block by
// XORing each 16-byte chunk with its pad. in.Chunk is set per chunk; the
// other fields apply to the whole block. The four pads are one kernel call.
func (c *CounterMode) EncryptBlock(dst, src *mem.Block, in SeedInput) {
	pads := c.lanes[:layout.BlockSize]
	for chunk := 0; chunk < layout.ChunksPerBlock; chunk++ {
		in.Chunk = chunk
		c.compose(pads[chunk*aes.BlockSize:], in)
	}
	c.encryptLanes(pads)
	subtle.XORBytes(dst[:], src[:], pads)
	c.pads += layout.ChunksPerBlock
}

// DecryptBlock is the inverse of EncryptBlock. Counter mode is an XOR
// stream, so it is the same operation; the separate name keeps call sites
// readable.
func (c *CounterMode) DecryptBlock(dst, src *mem.Block, in SeedInput) {
	c.EncryptBlock(dst, src, in)
}

// EncryptSpan encrypts (or, symmetrically, decrypts) a run of consecutive
// blocks of one page under AISE: src[i] is the page's block first+i, sealed
// under (lpid, minors[first+i]). It composes every seed of the run in one
// loop, byte for byte what AISESeed.Compose gives, and generates all the
// pads in one kernel call. dst and src may be the same slice. The engine
// must compose AISE seeds, and the run must stay inside the page.
func (c *CounterMode) EncryptSpan(dst, src []mem.Block, lpid uint64, minors *[layout.BlocksPerPage]uint8, first int) {
	if c.kind != seedAISE {
		panic("encrypt: EncryptSpan needs the AISE composer")
	}
	blocks := minors[first : first+len(src)]
	pads := c.lanes[:len(src)*layout.BlockSize]
	for i, minor := range blocks {
		low := uint64(minor&layout.MinorCounterMax)<<56 | uint64(first+i)<<48
		for chunk := 0; chunk < layout.ChunksPerBlock; chunk++ {
			lane := pads[(i*layout.ChunksPerBlock+chunk)*aes.BlockSize:]
			binary.BigEndian.PutUint64(lane[0:8], lpid)
			binary.BigEndian.PutUint64(lane[8:16], low|uint64(chunk)<<40)
		}
	}
	c.encryptLanes(pads)
	for i := range src {
		subtle.XORBytes(dst[i][:], src[i][:], pads[i*layout.BlockSize:])
	}
	c.pads += uint64(len(src) * layout.ChunksPerBlock)
}

// DecryptSpan is the inverse of EncryptSpan, the same operation.
func (c *CounterMode) DecryptSpan(dst, src []mem.Block, lpid uint64, minors *[layout.BlocksPerPage]uint8, first int) {
	c.EncryptSpan(dst, src, lpid, minors, first)
}

// Direct is the direct-mode baseline: AES applied to each chunk of the
// block itself. Identical plaintext chunks produce identical ciphertext —
// the statistical leak that motivated counter mode — and decryption cannot
// begin until the ciphertext arrives, exposing the full AES latency.
type Direct struct {
	cipher cipher.Block
	ops    uint64

	// in and out are the cipher's arguments. Slices passed through the
	// cipher.Block interface escape, so they live here, in the engine's
	// heap object, rather than on the caller's stack.
	in, out [aes.BlockSize]byte
}

// NewDirect builds a direct-mode engine.
func NewDirect(key []byte) (*Direct, error) {
	ci, err := newCipher(key)
	if err != nil {
		return nil, err
	}
	return &Direct{cipher: ci}, nil
}

// Ops returns the number of chunk cipher operations performed.
func (d *Direct) Ops() uint64 { return d.ops }

// EncryptBlock enciphers each chunk in place (ECB over the block).
func (d *Direct) EncryptBlock(dst, src *mem.Block) {
	d.each(dst, src, d.cipher.Encrypt)
}

// DecryptBlock deciphers each chunk in place.
func (d *Direct) DecryptBlock(dst, src *mem.Block) {
	d.each(dst, src, d.cipher.Decrypt)
}

// each runs one cipher direction over every chunk, staging each chunk
// through the engine's scratch.
func (d *Direct) each(dst, src *mem.Block, op func(dst, src []byte)) {
	for chunk := 0; chunk < layout.ChunksPerBlock; chunk++ {
		off := chunk * aes.BlockSize
		copy(d.in[:], src[off:off+aes.BlockSize])
		op(d.out[:], d.in[:])
		copy(dst[off:off+aes.BlockSize], d.out[:])
		d.ops++
	}
}
