package persist

import (
	"bytes"
	"encoding/binary"
	"testing"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
	"aisebmt/internal/shard"
)

// FuzzWALRecord feeds arbitrary bytes to the record payload decoder:
// decodable payloads must survive a re-encode round-trip, everything else
// must be rejected without a panic.
func FuzzWALRecord(f *testing.F) {
	for _, r := range []walRec{
		{Kind: shard.MutWrite, Addr: 4096, Virt: 1 << 40, PID: 7, Data: []byte("hello")},
		{Kind: shard.MutSwapOut, Addr: 8192, Slot: 3},
		{Kind: shard.MutSwapIn, Addr: 0, Slot: 1, Data: bytes.Repeat([]byte{0xAB}, 128)},
		{Kind: shard.MutMove, Addr: 12288, Virt: 16384},
		{Kind: recKindAux, Data: []byte("tenant journal record")},
		{Kind: recKindAuxBarrier, Data: binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 9), 4)},
		{Kind: shard.MutWrite},
	} {
		f.Add(encodeRecPayload(nil, r))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, recFixedLen))
	f.Add(append([]byte{0}, make([]byte, recFixedLen)...))
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := parseRecPayload(payload)
		if err != nil {
			return // rejected input; the only requirement is no panic
		}
		// The decoder's vocabulary: the pool's mutation kinds and the aux
		// (tenant journal) record and barrier kinds.
		known := r.Kind >= shard.MutWrite && r.Kind <= shard.MutMove || r.Kind == recKindAux || r.Kind == recKindAuxBarrier
		if !known {
			t.Fatalf("decoder accepted unknown kind %d", r.Kind)
		}
		if got := encodeRecPayload(nil, r); !bytes.Equal(got, payload) {
			t.Fatalf("round-trip changed the payload:\n in  %x\n out %x", payload, got)
		}
	})
}

// FuzzWALScan runs the full log scanner over arbitrary file bytes under
// both a zero head and a committed head: it must return records or an
// error, never panic, and never exceed the input.
func FuzzWALScan(f *testing.F) {
	key := sealKey([]byte("fuzz"))
	dkey := walDataKey([]byte("fuzz"))
	recs := []walRec{
		{Kind: shard.MutWrite, Addr: 64, Virt: 1, PID: 2, Data: bytes.Repeat([]byte{1}, layout.BlockSize)},
		{Kind: shard.MutSwapOut, Addr: 4096, Slot: 0},
	}
	file, head := buildWAL(key, dkey, 1, 0, recs)
	f.Add(file, head.Seq)
	f.Add(file[:len(file)-9], head.Seq)
	f.Add(file[:walHeaderLen], uint64(0))
	f.Add([]byte{}, uint64(3))
	f.Add(bytes.Repeat([]byte{0xFF}, walHeaderLen+8), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, seq uint64) {
		for _, h := range []walHead{{Epoch: 1, Shard: 0}, {Epoch: 1, Shard: 0, Seq: seq % 8, Chain: head.Chain}} {
			got, n, _, validLen, err := scanWAL(key, dkey, data, h)
			if err != nil {
				continue
			}
			if validLen > int64(len(data)) {
				t.Fatalf("validLen %d exceeds input %d", validLen, len(data))
			}
			if uint64(len(got)) != n {
				t.Fatalf("returned %d records but seq %d", len(got), n)
			}
		}
	})
}

// FuzzSnapHeader feeds arbitrary bytes to the snapshot header parser.
func FuzzSnapHeader(f *testing.F) {
	ok := encodeSnapHeader(3, 4)
	f.Add(ok[:])
	f.Add(ok[:snapHeaderLen-1])
	f.Add([]byte("SMSNAP01 but junk after the magic ..."))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		epoch, shards, err := parseSnapHeader(b)
		if err != nil {
			return
		}
		re := encodeSnapHeader(epoch, shards)
		if !bytes.Equal(re[:], b[:snapHeaderLen]) {
			t.Fatalf("accepted header does not re-encode to itself: %x", b[:snapHeaderLen])
		}
	})
}

// FuzzAnchor feeds arbitrary bytes to the sealed anchor parser: only
// byte-identical output of encodeAnchor can parse, everything else must
// fail with ErrTrustTampered semantics and never panic.
func FuzzAnchor(f *testing.F) {
	key := sealKey([]byte("fuzz"))
	a := anchor{Epoch: 5, Chips: []core.ChipState{
		{GPC: [8]byte{1, 2}, Root: []byte("fuzz-root")},
		{},
	}}
	f.Add(encodeAnchor(key, a))
	f.Add(encodeAnchor(key, anchor{Epoch: 1}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x41}, 64))
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := parseAnchor(key, b)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeAnchor(key, got), b) {
			t.Fatal("accepted anchor does not re-encode to itself")
		}
	})
}

// FuzzHeadSlot feeds arbitrary slot bytes to the WAL head parser.
func FuzzHeadSlot(f *testing.F) {
	key := sealKey([]byte("fuzz"))
	slot := encodeHead(key, walHead{Epoch: 2, Shard: 1, Seq: 77})
	f.Add(slot[:], uint32(1))
	f.Add(slot[:headBodyLen], uint32(1))
	f.Add([]byte{}, uint32(0))
	f.Fuzz(func(t *testing.T, b []byte, shardIdx uint32) {
		h, ok := parseHeadSlot(key, b, shardIdx)
		if !ok {
			return
		}
		re := encodeHead(key, h)
		if !bytes.Equal(re[:headBodyLen+sealSize], b[:headBodyLen+sealSize]) {
			t.Fatal("accepted head slot does not re-encode to itself")
		}
	})
}
