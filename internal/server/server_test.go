package server

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
	"aisebmt/internal/shard"
)

// startServer boots a small AISE+BMT service on a loopback port and
// returns its address plus a shutdown func.
func startServer(t *testing.T) (string, *shard.Pool, func() error) {
	t.Helper()
	pool, err := shard.New(shard.Config{
		Shards: 2,
		Core: core.Config{
			DataBytes:  2 * 8 * layout.PageSize,
			Key:        []byte("0123456789abcdef"),
			Encryption: core.AISE,
			Integrity:  core.BonsaiMT,
			SwapSlots:  8,
		},
	})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	srv := New(pool, Options{
		Timeout: 2 * time.Second,
		Logf:    t.Logf,
	})
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
	return ln.Addr().String(), pool, shutdown
}

func TestServerEndToEnd(t *testing.T) {
	addr, _, shutdown := startServer(t)

	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	msg := []byte("over the wire and through the tree")
	if err := c.Write(300, msg, core.Meta{}); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := c.Read(300, len(msg), core.Meta{})
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read = %q, want %q", got, msg)
	}

	if err := c.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}

	roots, err := c.Roots()
	if err != nil {
		t.Fatalf("roots: %v", err)
	}
	if len(roots) != 2 || len(roots[0]) == 0 {
		t.Fatalf("got %d roots (first %d bytes), want 2 non-empty", len(roots), len(roots[0]))
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Shards != 2 || st.Core.BlockWrites == 0 || st.Enqueued == 0 {
		t.Fatalf("implausible service stats: %+v", st)
	}

	// Swap a page out over the wire and back into a same-shard frame.
	page := layout.Addr(4 * layout.PageSize)
	if err := c.Write(page+8, []byte("swapped"), core.Meta{}); err != nil {
		t.Fatalf("write page: %v", err)
	}
	img, err := c.SwapOut(page, 1)
	if err != nil {
		t.Fatalf("swapout: %v", err)
	}
	newPage := page + 2*layout.PageSize
	if err := c.SwapIn(img, newPage, 1); err != nil {
		t.Fatalf("swapin: %v", err)
	}
	back, err := c.Read(newPage+8, 7, core.Meta{})
	if err != nil {
		t.Fatalf("read after swap: %v", err)
	}
	if string(back) != "swapped" {
		t.Fatalf("after swap got %q", back)
	}

	// A tampered image comes back as a typed StatusTampered error.
	img2, err := c.SwapOut(newPage, 2)
	if err != nil {
		t.Fatalf("swapout 2: %v", err)
	}
	img2.Counters[3] ^= 1
	err = c.SwapIn(img2, page, 2)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != StatusTampered {
		t.Fatalf("tampered swapin: err = %v, want StatusTampered", err)
	}

	// Hibernate is a durable checkpoint; an in-memory server has no store.
	if err := c.Hibernate(); !errors.As(err, &se) || se.Status != StatusUnsupported {
		t.Fatalf("hibernate without a store: err = %v, want StatusUnsupported", err)
	}

	// Out-of-range requests map to bad-request, not connection death.
	if _, err := c.Read(1<<40, 8, core.Meta{}); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
	if _, err := c.Read(0, 8, core.Meta{}); err != nil {
		t.Fatalf("connection unusable after bad request: %v", err)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServerConcurrentClients hammers the service from many connections
// and then shuts down gracefully, which drains and verifies every shard.
func TestServerConcurrentClients(t *testing.T) {
	addr, pool, shutdown := startServer(t)

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			buf := []byte{byte(i), byte(i + 1), byte(i + 2), byte(i + 3)}
			base := layout.Addr(i) * layout.PageSize
			for n := 0; n < 50; n++ {
				if err := c.Write(base+layout.Addr(n*4), buf, core.Meta{}); err != nil {
					errs <- err
					return
				}
				got, err := c.Read(base+layout.Addr(n*4), 4, core.Meta{})
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, buf) {
					errs <- errors.New("read-your-writes violated over the wire")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := pool.SwapOut(context.Background(), 0, 0); !errors.Is(err, shard.ErrClosed) {
		t.Fatalf("pool alive after shutdown: %v", err)
	}
}
