package integrity

import (
	"bytes"
	"errors"
	"testing"

	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
)

func dataMACStore(t *testing.T) (*mem.Memory, *DataMACStore) {
	t.Helper()
	m := mem.New(1 << 20)
	s, err := NewDataMACStore(m, testKey, 128, 256<<10, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m, s
}

func TestDataMACRoundTrip(t *testing.T) {
	m, s := dataMACStore(t)
	var ct mem.Block
	ct[3] = 0xaa
	m.WriteBlock(0x1040, &ct)
	s.Update(0x1040, &ct, 77, 5)
	if err := s.Verify(0x1040, &ct, 77, 5); err != nil {
		t.Errorf("clean verify: %v", err)
	}
}

func TestDataMACDetectsCiphertextTamper(t *testing.T) {
	_, s := dataMACStore(t)
	var ct mem.Block
	s.Update(0x1040, &ct, 77, 5)
	bad := ct
	bad[0] ^= 1
	err := s.Verify(0x1040, &bad, 77, 5)
	var ie *Error
	if !errors.As(err, &ie) || ie.Level != -1 {
		t.Errorf("tampered ciphertext: err = %v", err)
	}
}

func TestDataMACDetectsCounterRollback(t *testing.T) {
	// The §5.2 claim: replaying (C, M) with a fresh counter fails because
	// the MAC binds the counter whose integrity the Bonsai tree guarantees.
	_, s := dataMACStore(t)
	var ct mem.Block
	s.Update(0x1040, &ct, 77, 5)
	if err := s.Verify(0x1040, &ct, 77, 4); err == nil {
		t.Error("old counter accepted")
	}
	if err := s.Verify(0x1040, &ct, 76, 5); err == nil {
		t.Error("old LPID accepted")
	}
}

func TestDataMACDetectsSplicingWithinPage(t *testing.T) {
	m, s := dataMACStore(t)
	var ct1, ct2 mem.Block
	ct1[0], ct2[0] = 1, 2
	s.Update(0x1000, &ct1, 77, 3)
	s.Update(0x1040, &ct2, 77, 3)
	// Attacker moves block+MAC from 0x1000 to 0x1040's slots.
	macBytes := make([]byte, 16)
	m.Read(s.SlotAddr(0x1000), macBytes)
	m.TamperBytes(s.SlotAddr(0x1040), macBytes)
	if err := s.Verify(0x1040, &ct1, 77, 3); err == nil {
		t.Error("within-page splicing not detected (blockInPage not bound)")
	}
}

func TestDataMACPositionIndependentAcrossFrames(t *testing.T) {
	// Key swap property: the same page content at a different physical
	// frame (same block-in-page index) verifies with the same MAC.
	_, s := dataMACStore(t)
	var ct mem.Block
	ct[9] = 0x5a
	mac1 := make([]byte, 16)
	mac2 := make([]byte, 16)
	s.computeInto(mac1, &ct, 42, 7, layout.Addr(0x1040).BlockInPage())
	s.computeInto(mac2, &ct, 42, 7, layout.Addr(0x9040).BlockInPage())
	if !bytes.Equal(mac1, mac2) {
		t.Error("data MAC depends on physical frame; swap would break it")
	}
}

// TestDataMACSpanMatchesBlockwise holds the span calls to the per-block
// ones at every MAC width: UpdateSpan stores the slots a loop of Update
// stores in one transfer per touched MAC block, and VerifySpan blames the
// first bad block of the run exactly as Verify does.
func TestDataMACSpanMatchesBlockwise(t *testing.T) {
	const page = layout.Addr(3 * layout.PageSize)
	for _, bits := range []int{32, 64, 128, 256} {
		var minors [layout.BlocksPerPage]uint8
		cts := make([]mem.Block, 20)
		for i := range minors {
			minors[i] = uint8(i * 7 % (layout.MinorCounterMax + 1))
		}
		for i := range cts {
			cts[i][0], cts[i][63] = byte(i), byte(bits)
		}
		first := page + 9*layout.BlockSize
		stores := [2]*DataMACStore{}
		mems := [2]*mem.Memory{}
		for k := range stores {
			mems[k] = mem.New(1 << 20)
			var err error
			if stores[k], err = NewDataMACStore(mems[k], testKey, bits, 256<<10, 0); err != nil {
				t.Fatal(err)
			}
		}
		stores[0].UpdateSpan(first, cts, 77, &minors)
		for i := range cts {
			a := first + layout.Addr(i*layout.BlockSize)
			stores[1].Update(a, &cts[i], 77, minors[a.BlockInPage()])
		}
		macBytes := bits / 8
		slots := func(k int) []byte {
			return slotBytes(mems[k], stores[k].SlotAddr(first), len(cts)*macBytes)
		}
		if !bytes.Equal(slots(0), slots(1)) {
			t.Fatalf("%d bits: UpdateSpan stored other slots than a loop of Update", bits)
		}
		if touched := uint64((int(stores[0].SlotAddr(first))%layout.BlockSize + len(cts)*macBytes + layout.BlockSize - 1) / layout.BlockSize); mems[0].Writes != touched {
			t.Errorf("%d bits: UpdateSpan wrote %d MAC blocks, want %d (one per block touched)", bits, mems[0].Writes, touched)
		}
		if err := stores[0].VerifySpan(first, cts, 77, &minors); err != nil {
			t.Fatalf("%d bits: clean VerifySpan: %v", bits, err)
		}
		for _, bad := range []int{0, 13, len(cts) - 1} {
			tampered := append([]mem.Block(nil), cts...)
			tampered[bad][5] ^= 1
			tampered[len(cts)-1][6] ^= 1 // a later failure must not win
			a := first + layout.Addr(bad*layout.BlockSize)
			want := stores[1].Verify(a, &tampered[bad], 77, minors[a.BlockInPage()])
			got := stores[0].VerifySpan(first, tampered, 77, &minors)
			var ge, we *Error
			if !errors.As(got, &ge) || !errors.As(want, &we) || *ge != *we {
				t.Errorf("%d bits, block %d tampered: VerifySpan = %v, Verify = %v", bits, bad, got, want)
			}
		}
	}
}

func TestMACOnlyDetectsSpoofingAndSplicing(t *testing.T) {
	m := mem.New(1 << 20)
	s, err := NewMACOnlyStore(m, testKey, 128, 256<<10, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ct mem.Block
	ct[0] = 7
	s.Update(0x2000, &ct)
	if err := s.Verify(0x2000, &ct); err != nil {
		t.Fatalf("clean verify: %v", err)
	}
	// Spoofing.
	bad := ct
	bad[1] ^= 0x80
	if err := s.Verify(0x2000, &bad); err == nil {
		t.Error("spoofing not detected")
	}
	// Splicing: move ciphertext+MAC to another address.
	mac := make([]byte, 16)
	m.Read(s.SlotAddr(0x2000), mac)
	m.TamperBytes(s.SlotAddr(0x3000), mac)
	if err := s.Verify(0x3000, &ct); err == nil {
		t.Error("splicing not detected (address not bound)")
	}
}

func TestMACOnlyMissesReplay(t *testing.T) {
	// The documented weakness: rolling back both block and MAC verifies.
	m := mem.New(1 << 20)
	s, _ := NewMACOnlyStore(m, testKey, 128, 256<<10, 0)
	var v1 mem.Block
	v1[0] = 1
	s.Update(0x2000, &v1)
	oldMAC := make([]byte, 16)
	m.Read(s.SlotAddr(0x2000), oldMAC)
	var v2 mem.Block
	v2[0] = 2
	s.Update(0x2000, &v2)
	// Attacker replays v1 and its MAC.
	m.TamperBytes(s.SlotAddr(0x2000), oldMAC)
	if err := s.Verify(0x2000, &v1); err != nil {
		t.Errorf("replay unexpectedly detected by MAC-only scheme: %v", err)
	}
}

func TestPageRootDirectory(t *testing.T) {
	m := mem.New(1 << 20)
	d, err := NewPageRootDirectory(m, 512<<10, 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	root := bytes.Repeat([]byte{0xab}, 16)
	if err := d.Install(3, root); err != nil {
		t.Fatal(err)
	}
	got, err := d.Lookup(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, root) {
		t.Error("lookup differs from installed root")
	}
	if _, err := d.Lookup(8); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if err := d.Install(-1, root); err == nil {
		t.Error("negative slot accepted")
	}
	if err := d.Install(0, []byte{1}); err == nil {
		t.Error("short root accepted")
	}
	if d.Slots() != 8 || d.Bytes() != 8*16 {
		t.Errorf("slots/bytes = %d/%d", d.Slots(), d.Bytes())
	}
	if d.SlotAddr(1)-d.SlotAddr(0) != 16 {
		t.Error("slot stride wrong")
	}
}

func TestDirectoryCoveredByTree(t *testing.T) {
	// Install a root, cover the directory with a tree, then tamper with the
	// stored root: the tree must notice (§5.1 "the page root directory
	// itself is protected by the Merkle Tree").
	m := mem.New(1 << 20)
	d, _ := NewPageRootDirectory(m, 0, 128, 256) // one block of slots
	root := bytes.Repeat([]byte{0xcd}, 16)
	if err := d.Install(0, root); err != nil {
		t.Fatal(err)
	}
	tr, err := NewTree(m, testKey, 128, []mem.Region{{Name: "rootdir", Base: 0, Size: 4096}}, 512<<10)
	if err != nil {
		t.Fatal(err)
	}
	tr.Build()
	if err := tr.VerifyBlock(d.SlotAddr(0)); err != nil {
		t.Fatalf("clean directory verify: %v", err)
	}
	m.TamperBytes(d.SlotAddr(0), []byte{0x00, 0x11})
	if err := tr.VerifyBlock(d.SlotAddr(0)); err == nil {
		t.Error("tampered directory entry not detected")
	}
}
