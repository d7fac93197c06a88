package server

import (
	"encoding/json"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// serveHibernate starts a server over the standard test pool with the
// given checkpoint hook and returns a connected client.
func serveHibernate(t *testing.T, checkpoint func() (string, int64, error)) *Client {
	t.Helper()
	srv := New(newServerTestPool(t), Options{Timeout: 2 * time.Second, Checkpoint: checkpoint})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() { shutdownServer(t, srv, serveDone) })
	c, err := Dial(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestHibernateRunsCheckpoint: OpHibernate cuts exactly one checkpoint
// through Options.Checkpoint and answers with the snapshot's path and size.
func TestHibernateRunsCheckpoint(t *testing.T) {
	var calls atomic.Int32
	c := serveHibernate(t, func() (string, int64, error) {
		calls.Add(1)
		return "/data/snap-7.sealed", 4321, nil
	})
	p, err := c.Do(&Request{Op: OpHibernate})
	if err != nil {
		t.Fatalf("hibernate: %v", err)
	}
	if p.Status != StatusOK {
		t.Fatalf("hibernate status = %v (%s), want OK", p.Status, p.Data)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("checkpoint ran %d times, want 1", n)
	}
	var got struct {
		Path  string `json:"path"`
		Bytes int64  `json:"bytes"`
	}
	if err := json.Unmarshal(p.Data, &got); err != nil {
		t.Fatalf("hibernate reply %q: %v", p.Data, err)
	}
	if got.Path != "/data/snap-7.sealed" || got.Bytes != 4321 {
		t.Fatalf("hibernate reply = %+v, want the checkpoint's path and size", got)
	}

	// A failed checkpoint is an internal error, not a silent success.
	failing := serveHibernate(t, func() (string, int64, error) { return "", 0, errors.New("disk full") })
	var se *StatusError
	if err := failing.Hibernate(); !errors.As(err, &se) || se.Status != StatusInternal {
		t.Fatalf("failed checkpoint: err = %v, want StatusInternal", err)
	}
}

// TestHibernateUnsupportedWithoutStore: with no checkpoint hook (no data
// directory) the op is refused instead of writing an image anywhere.
func TestHibernateUnsupportedWithoutStore(t *testing.T) {
	c := serveHibernate(t, nil)
	var se *StatusError
	if err := c.Hibernate(); !errors.As(err, &se) || se.Status != StatusUnsupported {
		t.Fatalf("hibernate without a store: err = %v, want StatusUnsupported", err)
	}
}
