package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
)

// splitImageRef is SplitImage, the byte-slice framing walk Sections
// replaced, kept verbatim as the oracle FuzzSnapshotSections holds
// Sections to. It validates cfg and splits a hibernation stream of a pool
// of cfg's shape into its per-shard memory images, in place: each image
// is a sub-slice of b. It also returns the controller configuration each
// image resumes under.
func splitImageRef(cfg Config, b []byte) (core.Config, [][]byte, error) {
	cfg, ccfg, err := cfg.resolve()
	if err != nil {
		return core.Config{}, nil, err
	}
	if len(b) < 12 || [8]byte(b[:8]) != hibMagic {
		return core.Config{}, nil, fmt.Errorf("shard: image: bad hibernation header")
	}
	if n := int(binary.LittleEndian.Uint32(b[8:12])); n != cfg.Shards {
		return core.Config{}, nil, fmt.Errorf("shard: image has %d shards, config has %d", n, cfg.Shards)
	}
	imgs := make([][]byte, cfg.Shards)
	b = b[12:]
	for i := range imgs {
		if len(b) < 8 {
			return core.Config{}, nil, fmt.Errorf("shard %d: image: truncated length", i)
		}
		n := binary.LittleEndian.Uint64(b)
		b = b[8:]
		if uint64(len(b)) < n {
			return core.Config{}, nil, fmt.Errorf("shard %d: image: truncated", i)
		}
		imgs[i], b = b[:n:n], b[n:]
	}
	return ccfg, imgs, nil
}

// sectionsCfg is the pool shape the framing tests walk streams of.
var sectionsCfg = Config{Shards: 2, Core: core.Config{
	DataBytes: 2 * 2 * layout.PageSize, Key: testKey,
	Encryption: core.AISE, Integrity: core.BonsaiMT, SwapSlots: 4,
}}

// poolStream returns the hibernation stream of a sectionsCfg pool after a
// few writes.
func poolStream(t testing.TB) []byte {
	p, err := New(sectionsCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for a := layout.Addr(0); a < 4*layout.PageSize; a += 3 * layout.BlockSize {
		if err := p.Write(context.Background(), a, []byte{byte(a), 1, 2}, core.Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	var img bytes.Buffer
	if _, err := p.Hibernate(&img); err != nil {
		t.Fatal(err)
	}
	return img.Bytes()
}

// frame builds a hibernation stream header for n shards followed by one
// length-prefixed section per payload.
func frame(n uint32, payloads ...string) []byte {
	b := append(bytes.Clone(hibMagic[:]), binary.LittleEndian.AppendUint32(nil, n)...)
	for _, p := range payloads {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(p)))
		b = append(b, p...)
	}
	return b
}

// checkSections fails t unless Sections over data gives the verdict,
// controller configuration and sections splitImageRef gives.
func checkSections(t *testing.T, cfg Config, data []byte) error {
	t.Helper()
	gcfg, secs, gerr := Sections(cfg, bytes.NewReader(data), int64(len(data)))
	wcfg, imgs, werr := splitImageRef(cfg, data)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("Sections = %v, splitImageRef = %v", gerr, werr)
	}
	if gerr != nil {
		return gerr
	}
	if !reflect.DeepEqual(gcfg, wcfg) || len(secs) != len(imgs) {
		t.Fatalf("Sections gave %d sections under %+v, splitImageRef %d under %+v", len(secs), gcfg, len(imgs), wcfg)
	}
	for i, sec := range secs {
		got, err := io.ReadAll(sec)
		if err != nil || !bytes.Equal(got, imgs[i]) {
			t.Fatalf("section %d: %d bytes (err %v), splitImageRef %d", i, len(got), err, len(imgs[i]))
		}
	}
	return nil
}

// FuzzSnapshotSections: the io.ReaderAt framing walk must agree with the
// byte-slice walk it replaced on every input — the same verdict, and when
// accepted the same sections.
func FuzzSnapshotSections(f *testing.F) {
	whole := frame(2, "abcde", "xyz")
	for cut := 0; cut <= len(whole); cut++ {
		f.Add(whole[:cut])
	}
	f.Add(frame(3, "abcde", "xyz", "")) // shard-count mismatch
	f.Add(frame(1, "abcde"))
	f.Add(append(bytes.Clone(whole), 1, 2, 3)) // trailing bytes
	for _, n := range []uint64{9, 1 << 63, ^uint64(0)} {
		long := bytes.Clone(whole)
		binary.LittleEndian.PutUint64(long[12:], n) // past the end
		f.Add(long)
		long = bytes.Clone(whole)
		binary.LittleEndian.PutUint64(long[12+8+5:], n)
		f.Add(long)
	}
	f.Add(poolStream(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSections(t, sectionsCfg, data)
	})
}

// TestSectionsRefuseEveryCut: a real pool stream cut short at any offset
// is refused by the framing walk, as by the walk it replaced.
func TestSectionsRefuseEveryCut(t *testing.T) {
	img := poolStream(t)
	if err := checkSections(t, sectionsCfg, img); err != nil {
		t.Fatalf("whole stream refused: %v", err)
	}
	for cut := 0; cut < len(img); cut++ {
		if checkSections(t, sectionsCfg, img[:cut]) == nil {
			t.Fatalf("stream cut at %d of %d bytes accepted", cut, len(img))
		}
	}
}

// TestCheckpointAllocsFlat: a checkpoint streams every shard's image into
// its writer, so what it allocates does not grow with the pool — the same
// bytes for a full 4 MiB and a full 16 MiB pool, and well under one
// shard's image. Each pool is checkpointed once first, so tree nodes the
// first checkpoint writes back into memory are not counted.
func TestCheckpointAllocsFlat(t *testing.T) {
	ckptAllocs := func(dataBytes uint64) uint64 {
		p := newTestPool(t, Config{Shards: 4, Core: core.Config{DataBytes: dataBytes}})
		defer p.Close()
		ctx := context.Background()
		page := make([]byte, layout.PageSize)
		for a := uint64(0); a < dataBytes; a += layout.PageSize {
			page[0], page[1] = byte(a>>12), byte(a>>20)
			if err := p.Write(ctx, layout.Addr(a), page, core.Meta{}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.Checkpoint(io.Discard, nil); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := p.Checkpoint(io.Discard, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := ckptAllocs(4<<20), ckptAllocs(16<<20)
	t.Logf("Checkpoint allocated %d bytes at 4 MiB, %d at 16 MiB", small, large)
	if d := int64(large) - int64(small); d < -4<<10 || d > 4<<10 || large > 64<<10 {
		t.Fatalf("Checkpoint allocated %d bytes at 4 MiB and %d at 16 MiB: want within 4 KiB of each other and under 64 KiB", small, large)
	}
}
