package persist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
	"aisebmt/internal/shard"
)

// recoveryErrors are the error classes a refused recovery is told apart by.
var recoveryErrors = []error{ErrTrustTampered, ErrSnapshotTampered, ErrWALTampered, ErrTenantTampered}

func errorClass(err error) error {
	for _, c := range recoveryErrors {
		if errors.Is(err, c) {
			return c
		}
	}
	return err
}

// recoveryGoroutines counts the goroutines that are shard rebuild workers
// or pool workers.
func recoveryGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	k := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "persist.restorePool") || strings.Contains(g, "shard.(*Pool).worker") {
			k++
		}
	}
	return k
}

// recovered is one recovery's observable outcome.
type recovered struct {
	info  RecoveryInfo
	aux   *AuxRecovery
	roots [][]byte
	image []byte
	chips string
	err   error
}

func recoverCopy(t *testing.T, cfs *crashFS, opts Options, cfg shard.Config, aux, serial bool) recovered {
	t.Helper()
	opts.FS = cfs.clone()
	st, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	if aux {
		st.EnableAux()
	}
	run := st.Recover
	if serial {
		run = st.recoverSerial
	}
	before := recoveryGoroutines()
	pool, info, err := run(cfg)
	if err != nil {
		// A worker may still be returning from its last frame; a leaked one
		// never does.
		n := recoveryGoroutines()
		for end := time.Now().Add(time.Second); n > before && time.Now().Before(end); n = recoveryGoroutines() {
			time.Sleep(time.Millisecond)
		}
		if n > before {
			t.Fatalf("refused recovery (serial=%v) left %d rebuild or pool workers behind", serial, n-before)
		}
		return recovered{err: err}
	}
	defer pool.Close()
	var img bytes.Buffer
	chips, err := pool.Hibernate(&img)
	if err != nil {
		t.Fatalf("Hibernate: %v", err)
	}
	info.Elapsed, info.Phases = 0, RecoveryPhases{}
	return recovered{info: info, aux: st.TakeAuxRecovery(), roots: pool.Roots(), image: img.Bytes(), chips: fmt.Sprint(chips)}
}

// checkAgainstSerial recovers two copies of cfs's durable state (which
// must be post-crash) under opts, one with Recover and one with
// recoverSerial, and fails unless both refuse with the same error class or
// both yield the same roots, GPCs, pool image, RecoveryInfo counts and
// AuxRecovery (structural events in the same order). It returns Recover's
// info and error.
func checkAgainstSerial(t *testing.T, cfs *crashFS, opts Options, cfg shard.Config, aux bool) (RecoveryInfo, *AuxRecovery, error) {
	t.Helper()
	got := recoverCopy(t, cfs, opts, cfg, aux, false)
	want := recoverCopy(t, cfs, opts, cfg, aux, true)
	switch {
	case got.err != nil || want.err != nil:
		if errorClass(got.err) != errorClass(want.err) {
			t.Fatalf("Recover = %v, serial reference = %v", got.err, want.err)
		}
		return RecoveryInfo{}, nil, got.err
	case got.info != want.info:
		t.Fatalf("RecoveryInfo %+v, serial reference %+v", got.info, want.info)
	case got.chips != want.chips || !reflect.DeepEqual(got.roots, want.roots):
		t.Fatalf("chip states differ from the serial reference:\n%s\n%s", got.chips, want.chips)
	case !bytes.Equal(got.image, want.image):
		t.Fatalf("pool image differs from the serial reference (%d vs %d bytes)", len(got.image), len(want.image))
	case !reflect.DeepEqual(got.aux, want.aux):
		t.Fatalf("AuxRecovery differs from the serial reference: %d events, reference %d", len(got.aux.Events), len(want.aux.Events))
	}
	return got.info, got.aux, nil
}

// oracleDir leaves a crashed 4-shard directory behind: a checkpoint over
// written pages, then WAL records on every shard — writes, a swap-out and
// swap-in, a rejected swap-out and a page move.
func oracleDir(t *testing.T) (*crashFS, Options, shard.Config) {
	t.Helper()
	cfs := newCrashFS()
	cfg := testCfg(4)
	st := openStore(t, cfs, FsyncAlways)
	pool, _, err := st.Recover(cfg)
	if err != nil {
		t.Fatalf("fresh Recover: %v", err)
	}
	writeN(t, pool, cfg, 0, 40)
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	writeN(t, pool, cfg, 40, 40)
	ctx := context.Background()
	for s := 0; s < 4; s++ {
		page := layout.Addr(s) * layout.PageSize // page s lives on shard s
		img, err := pool.SwapOut(ctx, page, s)
		if err != nil {
			t.Fatalf("SwapOut shard %d: %v", s, err)
		}
		if err := pool.SwapIn(ctx, img, page, s); err != nil {
			t.Fatalf("SwapIn shard %d: %v", s, err)
		}
		if _, err := pool.SwapOut(ctx, page+8*layout.PageSize, 99); err == nil || errors.Is(err, core.ErrTampered) {
			t.Fatalf("SwapOut to slot 99 of %d: %v, want a plain rejection", cfg.Core.SwapSlots, err)
		}
		if err := pool.MovePage(ctx, page+16*layout.PageSize, page+24*layout.PageSize, testMeta(page)); err != nil {
			t.Fatalf("MovePage shard %d: %v", s, err)
		}
	}
	writeN(t, pool, cfg, 80, 20)
	cfs.crash()
	pool.Close()
	opts := st.opts
	opts.Logf = nil
	return cfs, opts, cfg
}

// TestRecoverMatchesSerial holds the concurrent Recover to the serial
// reference on a flat directory whose WALs hold every kind of record on
// every shard.
func TestRecoverMatchesSerial(t *testing.T) {
	cfs, opts, cfg := oracleDir(t)
	info, _, err := checkAgainstSerial(t, cfs, opts, cfg, false)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if info.Shards != 4 || info.Replayed == 0 || info.ReplaySkipped == 0 {
		t.Fatalf("info = %+v, want 4 shards with applied and reproduced-rejection records", info)
	}
}

// snapSection returns the byte range of shard i's memory image inside a
// snapshot file.
func snapSection(snap []byte, i int) (start, end int) {
	off := snapHeaderLen + 12
	for s := 0; ; s++ {
		n := int(binary.LittleEndian.Uint64(snap[off:]))
		off += 8
		if s == i {
			return off, off + n
		}
		off += n
	}
}

// TestRecoverTamperPerShard tampers each shard's snapshot section (its
// records' data, then its framing) and, separately, each shard's WAL:
// Recover must refuse with the serial reference's error class and leave no
// rebuild or pool worker running.
func TestRecoverTamperPerShard(t *testing.T) {
	cfs, opts, cfg := oracleDir(t)
	names, _ := cfs.ReadDir("data")
	var snapName string
	for _, n := range names {
		if strings.HasPrefix(n, "snap-") {
			snapName = filepath.Join("data", n)
		}
	}
	cases := map[string]func(b []byte, i int) []byte{
		"snapshot data": func(b []byte, i int) []byte {
			start, end := snapSection(b, i)
			for off := start + 24 + 8 + 5; off < end; off += 7 * (8 + layout.BlockSize) {
				b[off] ^= 0x10
			}
			return b
		},
		"snapshot framing": func(b []byte, i int) []byte {
			start, _ := snapSection(b, i)
			b[start] ^= 0xff // the memory image's magic
			return b
		},
	}
	for name, tamper := range cases {
		for i := 0; i < cfg.Shards; i++ {
			t.Run(fmt.Sprintf("%s/shard%d", name, i), func(t *testing.T) {
				bad := cfs.clone()
				bad.mutate(snapName, func(b []byte) []byte { return tamper(b, i) })
				if _, _, err := checkAgainstSerial(t, bad, opts, cfg, false); !errors.Is(err, ErrSnapshotTampered) {
					t.Fatalf("Recover = %v, want %v", err, ErrSnapshotTampered)
				}
			})
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		t.Run(fmt.Sprintf("wal/shard%d", i), func(t *testing.T) {
			bad := cfs.clone()
			bad.mutate(filepath.Join("data", fmt.Sprintf("wal-%03d.log", i)), func(b []byte) []byte {
				b[walHeaderLen+recFrameLen+9] ^= 0x01 // inside committed record 1
				return b
			})
			if _, _, err := checkAgainstSerial(t, bad, opts, cfg, false); !errors.Is(err, ErrWALTampered) {
				t.Fatalf("Recover = %v, want %v", err, ErrWALTampered)
			}
		})
	}
}
