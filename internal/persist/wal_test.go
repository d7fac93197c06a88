package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
	"aisebmt/internal/shard"
)

var (
	testSealKey = sealKey([]byte("wal-test-processor-key"))
	testDataKey = walDataKey([]byte("wal-test-processor-key"))
)

// buildWAL frames recs into a complete WAL file and returns it with the
// sealed head that commits all of them.
func buildWAL(k, dk []byte, epoch uint64, shardIdx uint32, recs []walRec) ([]byte, walHead) {
	hdr := encodeWALHeader(epoch, shardIdx)
	b := append([]byte(nil), hdr[:]...)
	chain := chainSeed(k, epoch, shardIdx)
	codec := newWALCodec(k, dk, epoch, shardIdx)
	var seq uint64
	for _, r := range recs {
		seq++
		b, chain = appendRecord(b, codec, chain, seq, r)
	}
	return b, walHead{Epoch: epoch, Shard: shardIdx, Seq: seq, Chain: chain}
}

func testRecs(n int) []walRec {
	recs := make([]walRec, n)
	for i := range recs {
		recs[i] = walRec{
			Kind: shard.MutWrite,
			Addr: layout.Addr(i * layout.BlockSize),
			Virt: uint64(i) << 12,
			PID:  uint32(i + 1),
			Data: bytes.Repeat([]byte{byte(i + 1)}, layout.BlockSize),
		}
	}
	return recs
}

func TestWALScanRoundtrip(t *testing.T) {
	want := testRecs(5)
	file, head := buildWAL(testSealKey, testDataKey, 3, 1, want)
	got, seq, chain, validLen, err := scanWAL(testSealKey, testDataKey, file, head)
	if err != nil {
		t.Fatalf("scanWAL: %v", err)
	}
	if seq != 5 || validLen != int64(len(file)) {
		t.Fatalf("seq=%d validLen=%d, want 5, %d", seq, validLen, len(file))
	}
	if !bytes.Equal(chain[:], head.Chain[:]) {
		t.Fatal("final chain does not match head chain")
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || got[i].Addr != want[i].Addr ||
			got[i].Virt != want[i].Virt || got[i].PID != want[i].PID ||
			!bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d mismatch: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestWALPayloadConfidential: the log lives on the same untrusted storage
// as the snapshot, so no field of a record's payload — least of all the
// write plaintext — may appear in the file bytes.
func TestWALPayloadConfidential(t *testing.T) {
	marker := bytes.Repeat([]byte("TOP-SECRET-PLAINTEXT-0123456789./"), 4)[:layout.BlockSize]
	recs := []walRec{
		{Kind: shard.MutWrite, Addr: 4096, Virt: 0xDEADBEEF, PID: 99, Data: append([]byte(nil), marker...)},
		{Kind: shard.MutWrite, Addr: 8192, Virt: 0xDEADBEEF, PID: 99, Data: append([]byte(nil), marker...)},
	}
	file, head := buildWAL(testSealKey, testDataKey, 1, 0, recs)
	if bytes.Contains(file, marker[:16]) {
		t.Fatal("WAL file contains write plaintext")
	}
	plainPayload := encodeRecPayload(nil, recs[0])
	if bytes.Contains(file, plainPayload[:recFixedLen]) {
		t.Fatal("WAL file contains a plaintext payload header")
	}
	// Identical plaintext in two records must not produce identical
	// ciphertext (distinct per-record keystreams).
	body := file[walHeaderLen:]
	recLen := recFrameLen + recFixedLen + len(marker) + sealSize
	if bytes.Equal(body[recFrameLen:recFrameLen+32], body[recLen+recFrameLen:recLen+recFrameLen+32]) {
		t.Fatal("identical plaintexts encrypted to identical ciphertexts")
	}
	// And the scan must still decrypt back to the original.
	got, _, _, _, err := scanWAL(testSealKey, testDataKey, file, head)
	if err != nil || len(got) != 2 || !bytes.Equal(got[0].Data, marker) || !bytes.Equal(got[1].Data, marker) {
		t.Fatalf("scan of encrypted WAL: err=%v", err)
	}
	// A different epoch (or key) must not decrypt: same records under
	// epoch 2 yield different bytes on disk.
	file2, _ := buildWAL(testSealKey, testDataKey, 2, 0, recs)
	if bytes.Equal(file[walHeaderLen:walHeaderLen+64], file2[walHeaderLen:walHeaderLen+64]) {
		t.Fatal("epochs 1 and 2 share a keystream")
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	recs := testRecs(4)
	full, _ := buildWAL(testSealKey, testDataKey, 1, 0, recs)
	committed, head := buildWAL(testSealKey, testDataKey, 1, 0, recs[:3])
	// The 4th record was appended but never committed; tear it mid-write.
	for cut := len(committed) + 1; cut < len(full); cut += 7 {
		got, seq, _, validLen, err := scanWAL(testSealKey, testDataKey, full[:cut], head)
		if err != nil {
			t.Fatalf("cut=%d: torn uncommitted tail must be tolerated, got %v", cut, err)
		}
		if seq != 3 || len(got) != 3 {
			t.Fatalf("cut=%d: got seq=%d len=%d, want 3", cut, seq, len(got))
		}
		if validLen != int64(len(committed)) {
			t.Fatalf("cut=%d: validLen=%d, want %d", cut, validLen, len(committed))
		}
	}
}

func TestWALTornBeforeCommitFailsClosed(t *testing.T) {
	recs := testRecs(4)
	full, head := buildWAL(testSealKey, testDataKey, 1, 0, recs)
	committed, _ := buildWAL(testSealKey, testDataKey, 1, 0, recs[:3])
	// Truncation inside the committed range is a deleted tail, not a torn
	// append: the sealed head says 4 records were acknowledged.
	for _, cut := range []int{walHeaderLen, len(committed) - 5, len(committed), len(full) - 1} {
		_, _, _, _, err := scanWAL(testSealKey, testDataKey, full[:cut], head)
		if !errors.Is(err, ErrWALTampered) {
			t.Fatalf("cut=%d: want ErrWALTampered, got %v", cut, err)
		}
	}
}

func TestWALCRCDamage(t *testing.T) {
	recs := testRecs(4)
	full, _ := buildWAL(testSealKey, testDataKey, 1, 0, recs)
	committed, head := buildWAL(testSealKey, testDataKey, 1, 0, recs[:3])

	tail := append([]byte(nil), full...)
	tail[len(committed)+recFrameLen+3] ^= 0x40 // payload of the uncommitted record
	got, seq, _, _, err := scanWAL(testSealKey, testDataKey, tail, head)
	if err != nil || seq != 3 || len(got) != 3 {
		t.Fatalf("CRC damage beyond commit: want clean truncation to 3, got seq=%d err=%v", seq, err)
	}

	mid := append([]byte(nil), full...)
	mid[walHeaderLen+recFrameLen+3] ^= 0x40 // payload of committed record 1
	if _, _, _, _, err := scanWAL(testSealKey, testDataKey, mid, head); !errors.Is(err, ErrWALTampered) {
		t.Fatalf("CRC damage inside committed range: want ErrWALTampered, got %v", err)
	}
}

func TestWALForgedRecordFailsClosedEvenBeyondCommit(t *testing.T) {
	recs := testRecs(4)
	full, _ := buildWAL(testSealKey, testDataKey, 1, 0, recs)
	committed, head := buildWAL(testSealKey, testDataKey, 1, 0, recs[:3])
	// Flip a payload byte of the uncommitted record and fix up its CRC: a
	// complete, CRC-clean record whose chain MAC fails is forgery, never a
	// torn write, so even the unacknowledged tail fails closed.
	forged := append([]byte(nil), full...)
	payStart := len(committed) + recFrameLen
	payLen := int(binary.LittleEndian.Uint32(forged[len(committed):]))
	forged[payStart+3] ^= 0x40
	binary.LittleEndian.PutUint32(forged[len(committed)+4:], crc32.ChecksumIEEE(forged[payStart:payStart+payLen]))
	if _, _, _, _, err := scanWAL(testSealKey, testDataKey, forged, head); !errors.Is(err, ErrWALTampered) {
		t.Fatalf("forged record: want ErrWALTampered, got %v", err)
	}
}

func TestWALHeaderMismatch(t *testing.T) {
	file, head := buildWAL(testSealKey, testDataKey, 2, 0, testRecs(2))
	// Wrong-epoch file under a head that committed records: fail closed.
	stale, _ := buildWAL(testSealKey, testDataKey, 1, 0, testRecs(2))
	if _, _, _, _, err := scanWAL(testSealKey, testDataKey, stale, head); !errors.Is(err, ErrWALTampered) {
		t.Fatalf("stale-epoch WAL: want ErrWALTampered, got %v", err)
	}
	// Same file under a zero-commit head: pre-reset leftover, treated empty.
	empty := walHead{Epoch: 3, Shard: 0}
	if recs, seq, _, validLen, err := scanWAL(testSealKey, testDataKey, file, empty); err != nil || seq != 0 || len(recs) != 0 || validLen != 0 {
		t.Fatalf("pre-reset WAL under zero head: want empty accept, got seq=%d err=%v", seq, err)
	}
}

func TestAnchorRoundtripAndTamper(t *testing.T) {
	a := anchor{Epoch: 7, Chips: []core.ChipState{
		{GPC: [8]byte{1, 2, 3}, Root: []byte("root-a")},
		{GPC: [8]byte{9}, Root: nil},
	}}
	b := encodeAnchor(testSealKey, a)
	got, err := parseAnchor(testSealKey, b)
	if err != nil {
		t.Fatalf("parseAnchor: %v", err)
	}
	if got.Epoch != 7 || len(got.Chips) != 2 || !bytes.Equal(got.Chips[0].Root, []byte("root-a")) ||
		got.Chips[0].GPC != a.Chips[0].GPC || got.Chips[1].Root != nil {
		t.Fatalf("anchor roundtrip mismatch: %+v", got)
	}
	for i := 0; i < len(b); i += 3 {
		bad := append([]byte(nil), b...)
		bad[i] ^= 0x01
		if _, err := parseAnchor(testSealKey, bad); !errors.Is(err, ErrTrustTampered) {
			t.Fatalf("flip at %d: want ErrTrustTampered, got %v", i, err)
		}
	}
	if _, err := parseAnchor(sealKey([]byte("other-key")), b); !errors.Is(err, ErrTrustTampered) {
		t.Fatalf("wrong key: want ErrTrustTampered, got %v", err)
	}
	if _, err := parseAnchor(testSealKey, b[:10]); !errors.Is(err, ErrTrustTampered) {
		t.Fatalf("short anchor: want ErrTrustTampered, got %v", err)
	}
}

func TestHeadSlotSelection(t *testing.T) {
	older := encodeHead(testSealKey, walHead{Epoch: 2, Shard: 1, Seq: 9})
	newer := encodeHead(testSealKey, walHead{Epoch: 2, Shard: 1, Seq: 10})
	file := append(append([]byte(nil), older[:]...), newer[:]...)

	h, err := chooseHead(testSealKey, file, 1)
	if err != nil || h.Seq != 10 {
		t.Fatalf("want newest slot seq 10, got %+v err=%v", h, err)
	}

	// Torn newest slot: fall back to the older one.
	torn := append([]byte(nil), file...)
	torn[headSlotSize+20] ^= 0xFF
	h, err = chooseHead(testSealKey, torn, 1)
	if err != nil || h.Seq != 9 {
		t.Fatalf("want fallback slot seq 9, got %+v err=%v", h, err)
	}

	// Both slots damaged: the trusted state is gone; fail closed.
	torn[20] ^= 0xFF
	if _, err := chooseHead(testSealKey, torn, 1); !errors.Is(err, ErrTrustTampered) {
		t.Fatalf("both slots bad: want ErrTrustTampered, got %v", err)
	}

	// A valid slot sealed for another shard must not be accepted.
	if _, err := chooseHead(testSealKey, file, 2); !errors.Is(err, ErrTrustTampered) {
		t.Fatalf("wrong shard: want ErrTrustTampered, got %v", err)
	}

	// A higher epoch wins even with a lower seq.
	newEpoch := encodeHead(testSealKey, walHead{Epoch: 3, Shard: 1, Seq: 1})
	file2 := append(append([]byte(nil), older[:]...), newEpoch[:]...)
	h, err = chooseHead(testSealKey, file2, 1)
	if err != nil || h.Epoch != 3 || h.Seq != 1 {
		t.Fatalf("want epoch-3 slot, got %+v err=%v", h, err)
	}
}

// TestWALScanAllocs: scanning a log builds its cipher and chain MAC once,
// not per record. Growing a log from 40 to 400 records may add only the
// records' own plaintext copies (one each) and the growth of the slice
// that holds them.
func TestWALScanAllocs(t *testing.T) {
	scanAllocs := func(n int) float64 {
		file, head := buildWAL(testSealKey, testDataKey, 3, 1, testRecs(n))
		return testing.AllocsPerRun(5, func() {
			if _, seq, _, _, err := scanWAL(testSealKey, testDataKey, file, head); err != nil || seq != uint64(n) {
				t.Fatalf("scan: seq %d, err %v", seq, err)
			}
		})
	}
	small, large := scanAllocs(40), scanAllocs(400)
	if extra := large - small; extra > 360+16 {
		t.Fatalf("400-record scan allocated %.0f more times than a 40-record one (%.0f vs %.0f); want at most one per extra record plus slice growth",
			extra, large, small)
	}
}
