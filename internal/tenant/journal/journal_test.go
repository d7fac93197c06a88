package journal_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
	"aisebmt/internal/persist"
	"aisebmt/internal/shard"
	"aisebmt/internal/tenant"
	"aisebmt/internal/tenant/journal"
)

var testKey = []byte("journal-test-k16")

// slotsPerShard is every test pool's Page Root Directory size; frames
// per shard vary.
const slotsPerShard = 16

// stack is a durable tenant service over a pool of the given shard count.
type stack struct {
	store *persist.Store
	pool  *shard.Pool
	svc   *tenant.Service
	aux   *persist.AuxRecovery // what recovery handed the tenant layer
}

func poolConfig(shards, pagesPerShard int) shard.Config {
	return shard.Config{
		Shards: shards,
		Core: core.Config{
			DataBytes:  uint64(shards * pagesPerShard * layout.PageSize),
			Key:        testKey,
			Encryption: core.AISE,
			Integrity:  core.BonsaiMT,
			SwapSlots:  slotsPerShard,
		},
	}
}

// open recovers (or creates) the tenant stack in dir under FsyncOff.
func open(tb testing.TB, dir string, cfg shard.Config) *stack {
	tb.Helper()
	st, err := persist.Open(persist.Options{Dir: dir, Key: testKey, Fsync: persist.FsyncOff, FsyncInterval: time.Hour, RepairPoll: -1})
	if err != nil {
		tb.Fatalf("open store: %v", err)
	}
	st.EnableAux()
	pool, _, err := st.Recover(cfg)
	if err != nil {
		tb.Fatalf("recover: %v", err)
	}
	aux := st.TakeAuxRecovery()
	svc, err := tenant.Recover(tenant.Config{Pool: pool, Journal: st}, aux)
	if err != nil {
		tb.Fatalf("tenant recover: %v", err)
	}
	st.SetAuxSource(svc.FreezeOps, svc.ThawOps, svc.SnapshotState)
	return &stack{store: st, pool: pool, svc: svc, aux: aux}
}

// section captures the tenant checkpoint section of a quiet service.
func section(tb testing.TB, svc *tenant.Service) []byte {
	tb.Helper()
	svc.FreezeOps()
	defer svc.ThawOps()
	b, err := svc.SnapshotState()
	if err != nil {
		tb.Fatalf("snapshot: %v", err)
	}
	return b
}

// history drives ops seeded tenant operations — create, write, faulting
// read, fork, destroy, shared mapping, migration, forced swap-out — sized
// so the pool runs short of frames (evictions) but never of swap slots.
func history(tb testing.TB, svc *tenant.Service, rng *rand.Rand, ops int) {
	tb.Helper()
	ctx := context.Background()
	pages := map[uint32]int{}
	var ids []uint32
	pick := func() uint32 { return ids[rng.Intn(len(ids))] }
	must := func(what string, err error) {
		if err != nil {
			tb.Fatalf("%s: %v", what, err)
		}
	}
	val := make([]byte, 48)
	for i := 0; i < ops; i++ {
		op := rng.Intn(9)
		if len(ids) == 0 {
			op = 0
		}
		switch op {
		case 0:
			if len(ids) >= 5 {
				continue
			}
			n := 1 + rng.Intn(3)
			id, err := svc.Create(ctx, n, 0)
			must("create", err)
			ids, pages[id] = append(ids, id), n
		case 1, 2:
			id := pick()
			rng.Read(val)
			must("write", svc.Write(ctx, id, uint64(rng.Intn(pages[id]))*layout.PageSize+uint64(rng.Intn(64)), val, 0))
		case 3:
			id := pick()
			_, err := svc.Read(ctx, id, uint64(rng.Intn(pages[id]))*layout.PageSize, 32, 0)
			must("read", err)
		case 4:
			if len(ids) >= 5 {
				continue
			}
			id := pick()
			child, err := svc.Fork(ctx, id, 0)
			must("fork", err)
			ids, pages[child] = append(ids, child), pages[id]
		case 5:
			if len(ids) < 3 {
				continue
			}
			j := rng.Intn(len(ids))
			must("destroy", svc.Destroy(ctx, ids[j], 0))
			delete(pages, ids[j])
			ids = append(ids[:j], ids[j+1:]...)
		case 6:
			src, dst := pick(), pick()
			if src == dst || pages[dst] >= 4 {
				continue
			}
			must("map", svc.Map(ctx, src, uint64(rng.Intn(pages[src]))*layout.PageSize, dst, uint64(pages[dst])*layout.PageSize, 0))
			pages[dst]++
		case 7:
			id := pick()
			must("migrate", svc.Migrate(ctx, id, uint64(rng.Intn(pages[id]))*layout.PageSize, 0))
		case 8:
			id := pick()
			must("swap-out", svc.ForceSwapOut(ctx, id, uint64(rng.Intn(pages[id]))*layout.PageSize))
		}
	}
}

// TestReplayMatchesCheckpoint is the journal's defining property: a random
// tenant history replayed from the journal rebuilds byte-for-byte the
// state a checkpoint of the live service would have sealed, and restoring
// that checkpoint section rebuilds it too. One shard (every frame in one
// swap-placement group) of 8 frames, so the history evicts.
func TestReplayMatchesCheckpoint(t *testing.T) {
	cfg := poolConfig(1, 8)
	for seed := int64(1); seed <= 6; seed++ {
		dir := t.TempDir()
		s := open(t, dir, cfg)
		history(t, s.svc, rand.New(rand.NewSource(seed)), 150)
		live := section(t, s.svc)
		s.pool.Close() // the process dies; under FsyncOff its journal survives in the page cache

		s2 := open(t, dir, cfg)
		if len(s2.aux.Recs) == 0 {
			t.Fatalf("seed %d: nothing journaled", seed)
		}
		if got := section(t, s2.svc); !bytes.Equal(got, live) {
			t.Fatalf("seed %d: journal replay encodes %d bytes unlike the live %d-byte checkpoint section", seed, len(got), len(live))
		}
		restored, err := tenant.Recover(tenant.Config{Pool: s2.pool}, &persist.AuxRecovery{Snap: live})
		if err != nil {
			t.Fatalf("seed %d: restore from the section: %v", seed, err)
		}
		if got := section(t, restored); !bytes.Equal(got, live) {
			t.Fatalf("seed %d: restore from the checkpoint section does not re-encode to it", seed)
		}
		s2.pool.Close()
		s2.store.Close()
	}
}

// fuzzCfg is the pool FuzzRestore's seed comes from.
var fuzzCfg = poolConfig(2, 16)

// fakeBacking has the fuzz pool's geometry and no data path: Restore
// touches bookkeeping only (the WAL replay already rebuilt chip state).
type fakeBacking struct{}

var errNoData = errors.New("journal test: no data path")

func (fakeBacking) Read(context.Context, layout.Addr, []byte, core.Meta) error  { return errNoData }
func (fakeBacking) Write(context.Context, layout.Addr, []byte, core.Meta) error { return errNoData }
func (fakeBacking) SwapOut(context.Context, layout.Addr, int) (*core.PageImage, error) {
	return nil, errNoData
}
func (fakeBacking) SwapIn(context.Context, *core.PageImage, layout.Addr, int) error { return errNoData }
func (fakeBacking) Move(context.Context, layout.Addr, layout.Addr) error            { return errNoData }
func (fakeBacking) DataBytes() uint64                                               { return fuzzCfg.Core.DataBytes }
func (fakeBacking) SwapGroups() int                                                 { return 2 }

// Fuzz input framing: records are u16-length-prefixed; events are fixed
// 20-byte rows (kind, shard, addr, virt, slot), swap-outs carrying an
// empty image.
const eventLen = 1 + 1 + 8 + 8 + 2

func joinRecs(recs [][]byte) []byte {
	var b []byte
	for _, r := range recs {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(r)))
		b = append(b, r...)
	}
	return b
}

func splitRecs(b []byte) [][]byte {
	var out [][]byte
	for len(b) >= 2 {
		n := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		if n > len(b) {
			n = len(b)
		}
		out = append(out, b[:n])
		b = b[n:]
	}
	return out
}

func encodeEvents(evs []persist.AuxEvent) []byte {
	var b []byte
	for _, ev := range evs {
		b = append(b, byte(ev.Kind), byte(ev.Shard))
		b = binary.LittleEndian.AppendUint64(b, uint64(ev.Addr))
		b = binary.LittleEndian.AppendUint64(b, ev.Virt)
		b = binary.LittleEndian.AppendUint16(b, uint16(ev.Slot))
	}
	return b
}

func decodeEvents(b []byte) []persist.AuxEvent {
	var out []persist.AuxEvent
	for ; len(b) >= eventLen; b = b[eventLen:] {
		ev := persist.AuxEvent{
			Kind:  shard.MutKind(b[0]),
			Shard: int(int8(b[1])),
			Addr:  layout.Addr(binary.LittleEndian.Uint64(b[2:])),
			Virt:  binary.LittleEndian.Uint64(b[10:]),
			Slot:  int(int16(binary.LittleEndian.Uint16(b[18:]))),
		}
		if ev.Kind == shard.MutSwapOut {
			ev.Img = &core.PageImage{}
		}
		out = append(out, ev)
	}
	return out
}

// seedRecovery is a real recovery's tenant input on a two-shard pool: a
// checkpoint section with tenants in it, then journal records and the
// structural events the WAL replay regenerated.
func seedRecovery(tb testing.TB) *persist.AuxRecovery {
	dir := tb.TempDir()
	s := open(tb, dir, fuzzCfg)
	rng := rand.New(rand.NewSource(42))
	history(tb, s.svc, rng, 40)
	if err := s.store.Checkpoint(); err != nil {
		tb.Fatalf("checkpoint: %v", err)
	}
	history(tb, s.svc, rng, 80)
	s.pool.Close()
	st, err := persist.Open(persist.Options{Dir: dir, Key: testKey, Fsync: persist.FsyncOff, RepairPoll: -1})
	if err != nil {
		tb.Fatalf("reopen: %v", err)
	}
	st.EnableAux()
	pool, _, err := st.Recover(fuzzCfg)
	if err != nil {
		tb.Fatalf("recover: %v", err)
	}
	defer st.Close()
	defer pool.Close()
	return st.TakeAuxRecovery()
}

// FuzzRestore feeds Restore arbitrary (checkpoint section, records,
// events): the at-rest bytes it turns into live page tables. It must never
// panic, and every refusal must be the typed tenant-tampering error.
func FuzzRestore(f *testing.F) {
	aux := seedRecovery(f)
	if len(aux.Snap) == 0 || len(aux.Recs) == 0 || len(aux.Events) == 0 {
		f.Fatalf("seed recovery is thin: %d-byte section, %d records, %d events", len(aux.Snap), len(aux.Recs), len(aux.Events))
	}
	seed := &persist.AuxRecovery{Snap: aux.Snap, Recs: aux.Recs, Events: decodeEvents(encodeEvents(aux.Events))}
	if _, _, _, err := journal.Restore(fakeBacking{}, slotsPerShard, seed); err != nil {
		f.Fatalf("the seed itself does not restore: %v", err)
	}
	f.Add(aux.Snap, joinRecs(aux.Recs), encodeEvents(aux.Events))
	f.Add([]byte{}, joinRecs(aux.Recs[:len(aux.Recs)/2]), encodeEvents(aux.Events))
	f.Add(aux.Snap, []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, snap, recs, evs []byte) {
		in := &persist.AuxRecovery{Snap: snap, Recs: splitRecs(recs), Events: decodeEvents(evs)}
		if _, _, _, err := journal.Restore(fakeBacking{}, slotsPerShard, in); err != nil && !errors.Is(err, persist.ErrTenantTampered) {
			t.Fatalf("refusal is not ErrTenantTampered: %v", err)
		}
	})
}
