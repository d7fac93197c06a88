package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
	"aisebmt/internal/shard"
)

// goldenWALRecs is a fixed op sequence covering every record kind the
// shard logs carry: writes of several lengths, a swap-out, a swap-in with
// its encoded page image, a move, and the aux journal's two kinds.
func goldenWALRecs() []walRec {
	img := &core.PageImage{MACs: make([]byte, 8*layout.BlocksPerPage)}
	for i := range img.Data {
		for j := range img.Data[i] {
			img.Data[i][j] = byte(i*7 + j)
		}
	}
	for j := range img.Counters {
		img.Counters[j] = byte(0xC0 ^ j)
	}
	for j := range img.MACs {
		img.MACs[j] = byte(j * 13)
	}
	return []walRec{
		{Kind: shard.MutWrite, Addr: 0, Virt: 0x1000, PID: 7, Data: bytes.Repeat([]byte{0x11}, layout.BlockSize)},
		{Kind: shard.MutWrite, Addr: 3 * layout.BlockSize, Virt: 0x2040, PID: 9, Data: []byte("seventeen bytes!!")},
		{Kind: shard.MutSwapOut, Addr: layout.PageSize, Slot: 2},
		{Kind: shard.MutSwapIn, Addr: layout.PageSize, Slot: 2, Data: core.EncodePageImage(img)},
		{Kind: shard.MutMove, Addr: 2 * layout.PageSize, Virt: 5 * layout.PageSize},
		{Kind: recKindAux, Data: []byte("tenant journal record")},
		{Kind: recKindAuxBarrier, Data: bytes.Repeat([]byte{0x5A}, 16)},
		{Kind: shard.MutWrite, Addr: 4 * layout.BlockSize, Virt: 0x3000, PID: 1, Data: bytes.Repeat([]byte{0xEE}, 4*layout.BlockSize)},
	}
}

// TestGoldenWALImage pins the WAL's bytes: a live writer appends a fixed
// op sequence in two batches under a fixed key, epoch and shard, and the
// file must hash to the recorded value. The scanner must read the same
// records back. A change to the record framing, the payload cipher or the
// MAC chain shows up here first.
func TestGoldenWALImage(t *testing.T) {
	const golden = "26f7658d34e32bbcc4e0e23278430a0967b5dedd31a97c92106b3523f37f762c"
	key := []byte("golden-wal-processor-key")
	cfs := newCrashFS()
	w := &walWriter{fs: cfs, key: sealKey(key), dataKey: walDataKey(key), shardIdx: 3, path: "wal-003.log", headPath: "wal-003.head"}
	if err := w.reset(11); err != nil {
		t.Fatal(err)
	}
	recs := goldenWALRecs()
	for _, batch := range [][]walRec{recs[:3], recs[3:]} {
		if _, err := w.append(batch); err != nil {
			t.Fatal(err)
		}
	}
	file, err := cfs.ReadFile(w.path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(file)
	if got := hex.EncodeToString(sum[:]); got != golden {
		t.Errorf("WAL image hash %s, want %s", got, golden)
	}
	built, _ := buildWAL(sealKey(key), walDataKey(key), 11, 3, recs)
	if !bytes.Equal(built, file) {
		t.Error("buildWAL and the live writer framed different bytes")
	}
	head := walHead{Epoch: 11, Shard: 3, Seq: w.seq, Chain: w.chain}
	got, seq, _, validLen, err := scanWAL(sealKey(key), walDataKey(key), file, head)
	if err != nil || seq != uint64(len(recs)) || validLen != int64(len(file)) {
		t.Fatalf("scan: seq %d, validLen %d of %d, err %v", seq, validLen, len(file), err)
	}
	for i := range recs {
		want := recs[i]
		if got[i].Kind != want.Kind || got[i].Addr != want.Addr || got[i].Virt != want.Virt ||
			got[i].PID != want.PID || got[i].Slot != want.Slot || !bytes.Equal(got[i].Data, want.Data) {
			t.Fatalf("record %d scanned back as %+v", i, got[i])
		}
	}
}
