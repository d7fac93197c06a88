package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"testing"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
	"aisebmt/internal/shard"
	"aisebmt/internal/tenant"
	"aisebmt/internal/tenant/journal"
)

// startTenantServer boots a tenant-enabled service on a loopback port.
func startTenantServer(t *testing.T, budget int) (string, *tenant.Service, func() error) {
	t.Helper()
	return startJournaledTenantServer(t, budget, nil)
}

// startJournaledTenantServer is startTenantServer with the tenant layer
// journaling through j (nil: not durable).
func startJournaledTenantServer(t *testing.T, budget int, j journal.Store) (string, *tenant.Service, func() error) {
	t.Helper()
	pool, err := shard.New(shard.Config{
		Shards: 2,
		Core: core.Config{
			DataBytes:  2 * 16 * layout.PageSize,
			Key:        []byte("0123456789abcdef"),
			Encryption: core.AISE,
			Integrity:  core.BonsaiMT,
			SwapSlots:  16,
		},
	})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	svc := tenant.New(tenant.Config{Pool: pool, ResidentPages: budget, Journal: j})
	srv := New(pool, Options{Timeout: 2 * time.Second, Tenants: svc, Logf: t.Logf})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-serveDone; !errors.Is(err, ErrServerClosed) {
			return err
		}
		return nil
	}
	return ln.Addr().String(), svc, shutdown
}

func TestTenantOpsEndToEnd(t *testing.T) {
	addr, _, shutdown := startTenantServer(t, 0)
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	id, err := c.TenantCreate(4)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	msg := []byte("tenant-private bytes")
	if err := c.TenantWrite(id, 2*layout.PageSize+10, msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := c.TenantRead(id, 2*layout.PageSize+10, len(msg))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read = %q, want %q", got, msg)
	}

	// Fork: child sees the data, a child write stays private.
	child, err := c.TenantFork(id)
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	if got, err = c.TenantRead(child, 2*layout.PageSize+10, len(msg)); err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("child read = %q, %v", got, err)
	}
	if err := c.TenantWrite(child, 2*layout.PageSize+10, []byte("CHILD OVERWRITE DATA")); err != nil {
		t.Fatalf("child write: %v", err)
	}
	if got, err = c.TenantRead(id, 2*layout.PageSize+10, len(msg)); err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("parent sees child write: %q, %v", got, err)
	}

	// Stats reflect the churn and the COW split.
	raw, err := c.TenantStats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var st tenant.Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	if st.Live != 2 || st.Cums.Forked != 1 || st.VM.COWBreaks == 0 {
		t.Fatalf("stats = %+v", st)
	}

	if err := c.TenantDestroy(child); err != nil {
		t.Fatalf("destroy child: %v", err)
	}
	if err := c.TenantDestroy(id); err != nil {
		t.Fatalf("destroy parent: %v", err)
	}

	// Error taxonomy: unknown tenants and bad ranges are BadRequest.
	var se *StatusError
	if _, err := c.TenantRead(id, 0, 8); !errors.As(err, &se) || se.Status != StatusBadRequest {
		t.Fatalf("read of destroyed tenant: %v", err)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestTenantPressureOverWire(t *testing.T) {
	addr, svc, shutdown := startTenantServer(t, 6)
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	id, err := c.TenantCreate(16)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for p := 0; p < 16; p++ {
		if err := c.TenantWrite(id, uint64(p)*layout.PageSize, bytes.Repeat([]byte{byte(p + 1)}, layout.PageSize)); err != nil {
			t.Fatalf("write page %d: %v", p, err)
		}
	}
	st := svc.Stats()
	if st.ResidentPages > 6 || st.SwappedPages == 0 {
		t.Fatalf("budget not enforced: %+v", st)
	}
	for p := 0; p < 16; p++ {
		got, err := c.TenantRead(id, uint64(p)*layout.PageSize, layout.PageSize)
		if err != nil {
			t.Fatalf("read page %d: %v", p, err)
		}
		if got[0] != byte(p+1) || got[layout.PageSize-1] != byte(p+1) {
			t.Fatalf("page %d corrupted across swap", p)
		}
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestTenantMapSharedOverWire(t *testing.T) {
	addr, svc, shutdown := startTenantServer(t, 0)
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	a, err := c.TenantCreate(4)
	if err != nil {
		t.Fatalf("create a: %v", err)
	}
	b, err := c.TenantCreate(2)
	if err != nil {
		t.Fatalf("create b: %v", err)
	}
	seed := []byte("shared page payload")
	if err := c.TenantWrite(a, layout.PageSize, seed); err != nil {
		t.Fatalf("seed write: %v", err)
	}

	// Map a's page 1 at b's page 4 — beyond b's 2-page space, so the
	// mapping grows b's address space to cover it.
	if err := c.TenantMap(a, layout.PageSize, b, 4*layout.PageSize); err != nil {
		t.Fatalf("map: %v", err)
	}
	got, err := c.TenantRead(b, 4*layout.PageSize, len(seed))
	if err != nil || !bytes.Equal(got, seed) {
		t.Fatalf("b reads %q, %v; want %q", got, err, seed)
	}

	// Shared means shared: a write on either side is visible to both and
	// never splits the page.
	if err := c.TenantWrite(b, 4*layout.PageSize, []byte("B WROTE THIS")); err != nil {
		t.Fatalf("b write: %v", err)
	}
	if got, err = c.TenantRead(a, layout.PageSize, 12); err != nil || string(got) != "B WROTE THIS" {
		t.Fatalf("a sees %q, %v after b's write", got, err)
	}

	// Fork interaction: fork a; private pages split copy-on-write, the
	// shared page stays one frame visible to parent, child and b.
	child, err := c.TenantFork(a)
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	if err := c.TenantWrite(a, 0, []byte("parent private")); err != nil {
		t.Fatalf("parent private write: %v", err)
	}
	if got, err = c.TenantRead(child, 0, 14); err != nil || string(got) == "parent private" {
		t.Fatalf("child sees parent's private write: %q, %v", got, err)
	}
	if err := c.TenantWrite(child, layout.PageSize, []byte("CHILD ON SHARED")); err != nil {
		t.Fatalf("child shared write: %v", err)
	}
	if got, err = c.TenantRead(b, 4*layout.PageSize, 15); err != nil || string(got) != "CHILD ON SHARED" {
		t.Fatalf("b sees %q, %v after child's shared write", got, err)
	}

	// The mapping survives swap pressure as one page: force it out through
	// the service, then fault it back through b.
	if err := svc.ForceSwapOut(context.Background(), a, layout.PageSize); err != nil {
		t.Fatalf("force swap-out: %v", err)
	}
	if got, err = c.TenantRead(b, 4*layout.PageSize, 15); err != nil || string(got) != "CHILD ON SHARED" {
		t.Fatalf("b reads %q, %v after swap round-trip", got, err)
	}

	// Error taxonomy: unknown tenants, unaligned addresses and occupied
	// destinations are BadRequest.
	var se *StatusError
	if err := c.TenantMap(9999, 0, b, 5*layout.PageSize); !errors.As(err, &se) || se.Status != StatusBadRequest {
		t.Fatalf("map from unknown tenant: %v", err)
	}
	if err := c.TenantMap(a, 7, b, 5*layout.PageSize); !errors.As(err, &se) || se.Status != StatusBadRequest {
		t.Fatalf("unaligned map: %v", err)
	}
	if err := c.TenantMap(a, 0, b, 4*layout.PageSize); !errors.As(err, &se) || se.Status != StatusBadRequest {
		t.Fatalf("map onto occupied page: %v", err)
	}

	if st := svc.Stats(); st.Cums.MapShared != 1 {
		t.Fatalf("mapshared counter = %d, want 1", st.Cums.MapShared)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestTenantOpsUnsupportedWithoutLayer(t *testing.T) {
	addr, _, shutdown := startServer(t)
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	var se *StatusError
	if _, err := c.TenantCreate(1); !errors.As(err, &se) || se.Status != StatusUnsupported {
		t.Fatalf("tenant create without layer: %v", err)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestTenantTamperedSwapRefusedOverWire(t *testing.T) {
	addr, svc, shutdown := startTenantServer(t, 0)
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	id, err := c.TenantCreate(2)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := c.TenantWrite(id, 0, bytes.Repeat([]byte{0x77}, layout.PageSize)); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := svc.ForceSwapOut(context.Background(), id, 0); err != nil {
		t.Fatalf("force swap-out: %v", err)
	}
	slot := svc.SwapSlotOf(id, 0)
	img := svc.Swap().Image(slot).Clone()
	// Tampering the counter block is caught by the Page Root Directory
	// check at swap-in, before any data block is even decrypted.
	img.Counters[0] ^= 0x80
	svc.Swap().Tamper(slot, img)

	var se *StatusError
	if _, err := c.TenantRead(id, 0, 16); !errors.As(err, &se) || se.Status != StatusTampered {
		t.Fatalf("tampered swap-in answered %v, want StatusTampered", err)
	}
	if st := svc.Stats(); st.Cums.TamperRefused == 0 {
		t.Fatal("refusal not counted")
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// discardJournal accepts every tenant-journal record and keeps none.
type discardJournal struct{}

func (discardJournal) AppendAux([]byte) error { return nil }
func (discardJournal) SyncAux() error         { return nil }

// TestRawSwapRefusedWhenTenantsJournaled: with a tenant journal armed, the
// raw page-level swap ops would move pages behind the journal's back, so
// they are answered Unsupported — and nothing moved.
func TestRawSwapRefusedWhenTenantsJournaled(t *testing.T) {
	addr, svc, shutdown := startJournaledTenantServer(t, 0, discardJournal{})
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	id, err := c.TenantCreate(1)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	var se *StatusError
	if _, err := c.SwapOut(0, 1); !errors.As(err, &se) || se.Status != StatusUnsupported {
		t.Fatalf("raw swap-out on a tenant-durable daemon: %v, want StatusUnsupported", err)
	}
	if err := c.SwapIn(&core.PageImage{}, 0, 1); !errors.As(err, &se) || se.Status != StatusUnsupported {
		t.Fatalf("raw swap-in on a tenant-durable daemon: %v, want StatusUnsupported", err)
	}
	if st := svc.Stats(); st.SwappedPages != 0 || st.ResidentPages != 1 {
		t.Fatalf("a refused raw swap moved tenant pages: %+v", st)
	}
	if _, err := c.TenantRead(id, 0, 8); err != nil {
		t.Fatalf("tenant read after refused swaps: %v", err)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
