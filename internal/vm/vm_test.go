package vm

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
)

var testKey = []byte("processor-secret")

// newVM creates a manager over an AISE+BMT secure memory with the given
// number of physical frames.
func newVM(t *testing.T, frames int) *Manager {
	t.Helper()
	sm, err := core.New(core.Config{
		DataBytes:  uint64(frames) * layout.PageSize,
		MACBits:    128,
		Key:        testKey,
		Encryption: core.AISE,
		Integrity:  core.BonsaiMT,
		SwapSlots:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewManager(sm, 64)
}

func TestMapReadWrite(t *testing.T) {
	m := newVM(t, 8)
	p := m.NewProcess()
	if err := m.Map(p, 0x10000, 2); err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello virtual memory")
	if err := m.Write(p, 0x10ff0, msg); err != nil { // crosses page boundary
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := m.Read(p, 0x10ff0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("read %q", got)
	}
}

func TestMapValidation(t *testing.T) {
	m := newVM(t, 8)
	p := m.NewProcess()
	if err := m.Map(p, 0x1001, 1); err == nil {
		t.Error("unaligned Map accepted")
	}
	if err := m.Map(p, 0x10000, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(p, 0x10000, 1); err == nil {
		t.Error("double Map accepted")
	}
}

func TestSegfault(t *testing.T) {
	m := newVM(t, 8)
	p := m.NewProcess()
	err := m.Read(p, 0x50000, make([]byte, 4))
	if err == nil || !strings.Contains(err.Error(), "segmentation") {
		t.Errorf("unmapped read: %v", err)
	}
}

func TestProcessIsolation(t *testing.T) {
	m := newVM(t, 8)
	p1 := m.NewProcess()
	p2 := m.NewProcess()
	if err := m.Map(p1, 0x10000, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(p2, 0x10000, 1); err != nil {
		t.Fatal(err)
	}
	m.Write(p1, 0x10000, []byte("secret of p1"))
	m.Write(p2, 0x10000, []byte("p2's own data"))
	got := make([]byte, 12)
	m.Read(p1, 0x10000, got)
	if string(got) != "secret of p1" {
		t.Errorf("p1 sees %q", got)
	}
}

func TestDemandPagingRoundTrip(t *testing.T) {
	// 4 frames, 8 pages of working set: eviction and fault-in must preserve
	// contents, with zero re-encryption under AISE.
	m := newVM(t, 4)
	p := m.NewProcess()
	if err := m.Map(p, 0x100000, 8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		msg := []byte{byte(i), byte(i * 3), 0xaa}
		if err := m.Write(p, uint64(0x100000+i*layout.PageSize), msg); err != nil {
			t.Fatal(err)
		}
	}
	pads := m.Memory().Stats().PadGens
	for i := 0; i < 8; i++ {
		got := make([]byte, 3)
		if err := m.Read(p, uint64(0x100000+i*layout.PageSize), got); err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if got[0] != byte(i) || got[1] != byte(i*3) {
			t.Errorf("page %d corrupted: %v", i, got)
		}
	}
	st := m.Stats()
	if st.SwapOuts == 0 || st.SwapIns == 0 || st.PageFaults == 0 {
		t.Errorf("no paging happened: %+v", st)
	}
	// Reads decrypt (4 pads per block) but page movement itself must not
	// generate any additional pad work beyond the accessed blocks.
	padDelta := m.Memory().Stats().PadGens - pads
	if padDelta > 8*4 {
		t.Errorf("page swaps consumed %d pad generations; AISE swaps should not re-encrypt", padDelta)
	}
}

func TestSwapTamperDetectedAtFault(t *testing.T) {
	m := newVM(t, 4)
	p := m.NewProcess()
	if err := m.Map(p, 0x200000, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(p, 0x200000, []byte("on-disk soon")); err != nil {
		t.Fatal(err)
	}
	if err := m.ForceSwapOut(p, 0x200000); err != nil {
		t.Fatal(err)
	}
	slot := m.SwapSlotOf(p, 0x200000)
	if slot < 0 {
		t.Fatal("page not on swap")
	}
	img := m.Swap().Image(slot).Clone()
	img.Counters[3] ^= 0x40
	m.Swap().Tamper(slot, img)
	err := m.Read(p, 0x200000, make([]byte, 4))
	if !errors.Is(err, core.ErrTampered) {
		t.Errorf("tampered swap image fault-in: %v", err)
	}
}

func TestForkCopyOnWrite(t *testing.T) {
	m := newVM(t, 8)
	parent := m.NewProcess()
	if err := m.Map(parent, 0x10000, 1); err != nil {
		t.Fatal(err)
	}
	m.Write(parent, 0x10000, []byte("inherited"))
	child := m.Fork(parent)
	// Child sees parent's data without copying.
	got := make([]byte, 9)
	if err := m.Read(child, 0x10000, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "inherited" {
		t.Errorf("child sees %q", got)
	}
	if m.Stats().COWBreaks != 0 {
		t.Error("read triggered a COW break")
	}
	// Child write breaks COW; parent's copy survives.
	if err := m.Write(child, 0x10000, []byte("childmine")); err != nil {
		t.Fatal(err)
	}
	if m.Stats().COWBreaks != 1 {
		t.Errorf("COWBreaks = %d, want 1", m.Stats().COWBreaks)
	}
	m.Read(parent, 0x10000, got)
	if string(got) != "inherited" {
		t.Errorf("parent sees %q after child write", got)
	}
	m.Read(child, 0x10000, got)
	if string(got) != "childmine" {
		t.Errorf("child sees %q after its write", got)
	}
}

func TestForkThenParentWrite(t *testing.T) {
	m := newVM(t, 8)
	parent := m.NewProcess()
	m.Map(parent, 0x10000, 1)
	m.Write(parent, 0x10000, []byte("v1"))
	child := m.Fork(parent)
	// Parent writes first: parent gets the private copy.
	if err := m.Write(parent, 0x10000, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	m.Read(child, 0x10000, got)
	if string(got) != "v1" {
		t.Errorf("child sees %q, want v1", got)
	}
	m.Read(parent, 0x10000, got)
	if string(got) != "v2" {
		t.Errorf("parent sees %q, want v2", got)
	}
}

func TestSharedMemoryIPC(t *testing.T) {
	// The mmap-style IPC the paper says virtual-address seeds cannot
	// support: under AISE it just works.
	m := newVM(t, 8)
	a := m.NewProcess()
	b := m.NewProcess()
	if err := m.Map(a, 0x10000, 1); err != nil {
		t.Fatal(err)
	}
	// Map the same physical page at a DIFFERENT virtual address in b.
	if err := m.MapShared(a, 0x10000, b, 0x70000); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(a, 0x10000, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if err := m.Read(b, 0x70000, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "ping" {
		t.Errorf("b read %q through shared page", got)
	}
	// And the reverse direction.
	if err := m.Write(b, 0x70000, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	if err := m.Read(a, 0x10000, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "pong" {
		t.Errorf("a read %q back", got)
	}
}

func TestMapSharedAfterForkBreaksCOW(t *testing.T) {
	// Fork first, THEN map the still-COW page into a third process.
	// The shared alias is writable and never COW-breaks, so MapShared
	// must split the page off the fork sibling before aliasing it —
	// otherwise writes through the alias leak into the sibling.
	m := newVM(t, 8)
	a := m.NewProcess()
	if err := m.Map(a, 0x10000, 1); err != nil {
		t.Fatal(err)
	}
	m.Write(a, 0x10000, []byte("orig"))
	b := m.Fork(a)
	c := m.NewProcess()
	if err := m.MapShared(a, 0x10000, c, 0x30000); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(c, 0x30000, []byte("via-c")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if err := m.Read(b, 0x10000, got[:4]); err != nil {
		t.Fatal(err)
	}
	if string(got[:4]) != "orig" {
		t.Errorf("fork sibling sees %q after write through shared alias, want orig", got[:4])
	}
	// a and c still share one frame.
	if err := m.Read(a, 0x10000, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "via-c" {
		t.Errorf("a sees %q through shared page, want via-c", got)
	}
	if m.Stats().COWBreaks == 0 {
		t.Error("MapShared on a COW page did not record a COW break")
	}
}

func TestSharedPageSurvivesSwap(t *testing.T) {
	m := newVM(t, 4)
	a := m.NewProcess()
	b := m.NewProcess()
	if err := m.Map(a, 0x10000, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.MapShared(a, 0x10000, b, 0x90000); err != nil {
		t.Fatal(err)
	}
	m.Write(a, 0x10000, []byte("shared"))
	if err := m.ForceSwapOut(a, 0x10000); err != nil {
		t.Fatal(err)
	}
	if m.IsResident(b, 0x90000) {
		t.Error("b's view resident after shared frame was evicted")
	}
	got := make([]byte, 6)
	if err := m.Read(b, 0x90000, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "shared" {
		t.Errorf("b reads %q after swap round trip", got)
	}
	// a's mapping must point at the same (new) frame again.
	if err := m.Read(a, 0x10000, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "shared" {
		t.Errorf("a reads %q after swap round trip", got)
	}
}

func TestUnmapFreesFrames(t *testing.T) {
	m := newVM(t, 4)
	p := m.NewProcess()
	if err := m.Map(p, 0x10000, 4); err != nil {
		t.Fatal(err)
	}
	if err := m.Unmap(p, 0x10000, 4); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().FramesInUse; got != 0 {
		t.Errorf("frames in use after unmap = %d", got)
	}
	// The space is reusable.
	if err := m.Map(p, 0x10000, 4); err != nil {
		t.Fatalf("remap after unmap: %v", err)
	}
	if err := m.Unmap(p, 0x80000, 1); err == nil {
		t.Error("unmap of unmapped page accepted")
	}
}

func TestTLBBehaviour(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(1, 10, 5)
	if f, ok := tlb.Lookup(1, 10); !ok || f != 5 {
		t.Errorf("lookup = %d,%v", f, ok)
	}
	if _, ok := tlb.Lookup(2, 10); ok {
		t.Error("PID not part of TLB tag")
	}
	tlb.Insert(1, 11, 6)
	tlb.Insert(1, 12, 7) // evicts (1,10)
	if _, ok := tlb.Lookup(1, 10); ok {
		t.Error("FIFO eviction did not happen")
	}
	tlb.InvalidatePage(1, 11)
	if _, ok := tlb.Lookup(1, 11); ok {
		t.Error("invalidated entry still present")
	}
	tlb.Flush()
	if _, ok := tlb.Lookup(1, 12); ok {
		t.Error("flushed entry still present")
	}
}

func TestTLBAccelerates(t *testing.T) {
	m := newVM(t, 8)
	p := m.NewProcess()
	m.Map(p, 0x10000, 1)
	buf := make([]byte, 8)
	for i := 0; i < 10; i++ {
		m.Read(p, 0x10000, buf)
	}
	st := m.Stats()
	if st.TLBHits == 0 {
		t.Errorf("no TLB hits after repeated access: %+v", st)
	}
}

func TestSwapDeviceExhaustion(t *testing.T) {
	sm, err := core.New(core.Config{
		DataBytes: 2 * layout.PageSize, MACBits: 128, Key: testKey,
		Encryption: core.AISE, Integrity: core.BonsaiMT, SwapSlots: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(sm, 1)
	p := m.NewProcess()
	if err := m.Map(p, 0x10000, 2); err != nil {
		t.Fatal(err)
	}
	// Frames full, swap has one slot: a third page fits only by evicting
	// one page; a fourth must fail.
	if err := m.Map(p, 0x40000, 1); err != nil {
		t.Fatalf("third page: %v", err)
	}
	if err := m.Map(p, 0x50000, 1); err == nil {
		t.Error("map succeeded with no frame and no swap slot")
	}
}

func TestProtectReadOnly(t *testing.T) {
	m := newVM(t, 4)
	p := m.NewProcess()
	if err := m.Map(p, 0x10000, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(p, 0x10000, []byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := m.Protect(p, 0x10000, false); err != nil {
		t.Fatal(err)
	}
	err := m.Write(p, 0x10000, []byte("denied"))
	if err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Errorf("write to protected page: %v", err)
	}
	// Reads still work.
	buf := make([]byte, 6)
	if err := m.Read(p, 0x10000, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "before" {
		t.Errorf("read %q", buf)
	}
	// Restore write access.
	if err := m.Protect(p, 0x10000, true); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(p, 0x10000, []byte("after!")); err != nil {
		t.Errorf("write after unprotect: %v", err)
	}
	if err := m.Protect(p, 0x90000, false); err == nil {
		t.Error("protect of unmapped page accepted")
	}
}

func TestProtectAfterTLBWarm(t *testing.T) {
	// A warm TLB entry must not bypass a later protection change.
	m := newVM(t, 4)
	p := m.NewProcess()
	m.Map(p, 0x10000, 1)
	m.Write(p, 0x10000, []byte("warm")) // TLB now hot with a writable entry
	m.Protect(p, 0x10000, false)
	if err := m.Write(p, 0x10000, []byte("oops")); err == nil {
		t.Error("stale TLB entry allowed a write to a read-only page")
	}
}

func TestProcessExit(t *testing.T) {
	m := newVM(t, 4)
	p := m.NewProcess()
	if err := m.Map(p, 0x10000, 3); err != nil {
		t.Fatal(err)
	}
	m.Write(p, 0x10000, []byte("bye"))
	// Push one page to swap so Exit covers both resident and swapped pages.
	if err := m.ForceSwapOut(p, 0x10000); err != nil {
		t.Fatal(err)
	}
	if err := m.Exit(p); err != nil {
		t.Fatal(err)
	}
	if m.Stats().FramesInUse != 0 {
		t.Errorf("frames in use after exit = %d", m.Stats().FramesInUse)
	}
	// A new process can claim everything.
	q := m.NewProcess()
	if err := m.Map(q, 0x20000, 4); err != nil {
		t.Fatalf("map after exit: %v", err)
	}
}

func TestExitKeepsSharedPagesAlive(t *testing.T) {
	m := newVM(t, 4)
	a := m.NewProcess()
	b := m.NewProcess()
	m.Map(a, 0x10000, 1)
	if err := m.MapShared(a, 0x10000, b, 0x50000); err != nil {
		t.Fatal(err)
	}
	m.Write(a, 0x10000, []byte("outlive"))
	if err := m.Exit(a); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 7)
	if err := m.Read(b, 0x50000, got); err != nil {
		t.Fatalf("survivor read: %v", err)
	}
	if string(got) != "outlive" {
		t.Errorf("survivor sees %q", got)
	}
}

func TestForkOfProtectedPage(t *testing.T) {
	m := newVM(t, 8)
	parent := m.NewProcess()
	m.Map(parent, 0x10000, 1)
	m.Write(parent, 0x10000, []byte("ro"))
	if err := m.Protect(parent, 0x10000, false); err != nil {
		t.Fatal(err)
	}
	child := m.Fork(parent)
	// Protection is inherited: the child cannot write either.
	if err := m.Write(child, 0x10000, []byte("xx")); err == nil {
		t.Error("child wrote to inherited read-only page")
	}
	buf := make([]byte, 2)
	if err := m.Read(child, 0x10000, buf); err != nil || string(buf) != "ro" {
		t.Errorf("child read %q, %v", buf, err)
	}
}

func TestExitWithParkedSharedPage(t *testing.T) {
	// A shared page sitting on swap when one sharer exits must survive for
	// the other sharer.
	m := newVM(t, 2)
	a := m.NewProcess()
	b := m.NewProcess()
	m.Map(a, 0x10000, 1)
	if err := m.MapShared(a, 0x10000, b, 0x70000); err != nil {
		t.Fatal(err)
	}
	m.Write(a, 0x10000, []byte("parked"))
	if err := m.ForceSwapOut(a, 0x10000); err != nil {
		t.Fatal(err)
	}
	if err := m.Exit(a); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6)
	if err := m.Read(b, 0x70000, got); err != nil {
		t.Fatalf("survivor fault-in after exit: %v", err)
	}
	if string(got) != "parked" {
		t.Errorf("survivor read %q", got)
	}
}

func TestUnmapSwappedPrivatePageFreesSlot(t *testing.T) {
	sm, err := core.New(core.Config{
		DataBytes: 2 * layout.PageSize, MACBits: 128, Key: testKey,
		Encryption: core.AISE, Integrity: core.BonsaiMT, SwapSlots: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(sm, 1)
	p := m.NewProcess()
	m.Map(p, 0x10000, 1)
	m.Write(p, 0x10000, []byte("x"))
	if err := m.ForceSwapOut(p, 0x10000); err != nil {
		t.Fatal(err)
	}
	if err := m.Unmap(p, 0x10000, 1); err != nil {
		t.Fatal(err)
	}
	// The single swap slot must be reusable.
	m.Map(p, 0x20000, 2) // fills both frames
	if err := m.ForceSwapOut(p, 0x20000); err != nil {
		t.Fatalf("slot not recycled: %v", err)
	}
}

// TestEvictionKeepsPinnedFrameInLine: a frame pinned while an eviction
// scans past it keeps its place in the FIFO instead of going to the back,
// so the next eviction still takes the oldest frame. (Journal replay
// cannot see pins; an order they reshuffled would not survive recovery.)
func TestEvictionKeepsPinnedFrameInLine(t *testing.T) {
	m := newVM(t, 3)
	p := m.NewProcess()
	if err := m.Map(p, 0, 3); err != nil { // frames 0, 1, 2 in FIFO order
		t.Fatal(err)
	}
	c := m.Fork(p)
	// The COW copy needs a frame: frame 0 (the source) is pinned, so
	// frame 1 is evicted and frame 0 must stay at the head of the line.
	if err := m.Write(c, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := m.EvictOne(); err != nil {
		t.Fatal(err)
	}
	if m.IsResident(p, 0) || !m.IsResident(p, 2*layout.PageSize) {
		t.Fatalf("eviction after a pinned scan took the wrong frame: page 0 resident=%v, page 2 resident=%v",
			m.IsResident(p, 0), m.IsResident(p, 2*layout.PageSize))
	}
}
