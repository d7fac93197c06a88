package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
	"aisebmt/internal/server"
	"aisebmt/internal/shard"
)

// SmartClient is a ring-aware wire client: it computes each page's owner
// locally, dials nodes lazily, follows NotOwner redirects, and when an
// owner is unreachable walks its successor list — the same order
// failover promotes in — so it finds a promoted range without any
// cluster-wide coordination. Like server.Client it is NOT safe for
// concurrent use; give each worker its own.
type SmartClient struct {
	ms      *Membership
	timeout time.Duration
	dial    func(addr string) (*server.Client, error)

	conns   map[string]*server.Client
	learned redirects
}

// NewSmartClient builds a client over the member list. timeout bounds
// each dial and each request.
func NewSmartClient(members []Member, timeout time.Duration) (*SmartClient, error) {
	ms, err := NewMembership(members)
	if err != nil {
		return nil, err
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	c := &SmartClient{
		ms:      ms,
		timeout: timeout,
		conns:   map[string]*server.Client{},
	}
	c.dial = func(addr string) (*server.Client, error) {
		cl, err := server.Dial(addr, c.timeout)
		if err != nil {
			return nil, err
		}
		cl.SetRequestDeadline(c.timeout)
		return cl, nil
	}
	return c, nil
}

// Owner returns the member ID owning address a (per the static ring;
// failover delegation is discovered, not computed).
func (c *SmartClient) Owner(a layout.Addr) string { return c.ms.ring.Owner(a) }

// Members returns the cluster membership the client routes over.
func (c *SmartClient) Members() []Member {
	out := make([]Member, 0, len(c.ms.ids))
	for _, id := range c.ms.ids {
		out = append(out, c.ms.byID[id])
	}
	return out
}

func (c *SmartClient) get(addr string) (*server.Client, error) {
	if cl := c.conns[addr]; cl != nil {
		return cl, nil
	}
	cl, err := c.dial(addr)
	if err != nil {
		return nil, err
	}
	c.conns[addr] = cl
	return cl, nil
}

// put leaves the connection in the per-node map.
func (c *SmartClient) put(string, *server.Client) {}

func (c *SmartClient) drop(addr string, _ *server.Client) {
	if cl := c.conns[addr]; cl != nil {
		cl.Close()
		delete(c.conns, addr)
	}
}

// do routes op for page p from its ring owner (see walk).
func (c *SmartClient) do(p uint64, op func(cl *server.Client) error) error {
	return walk(context.Background(), c.ms, c, &c.learned, c.ms.ring.OwnerPage(p), p, op)
}

// Read fetches n plaintext bytes at addr from the serving node.
func (c *SmartClient) Read(a layout.Addr, n int, meta core.Meta) ([]byte, error) {
	var out []byte
	err := c.do(uint64(a)/layout.PageSize, func(cl *server.Client) error {
		b, e := cl.Read(a, n, meta)
		if e == nil {
			out = b
		}
		return e
	})
	return out, err
}

// Write stores data at addr on the serving node.
func (c *SmartClient) Write(a layout.Addr, data []byte, meta core.Meta) error {
	return c.do(uint64(a)/layout.PageSize, func(cl *server.Client) error {
		return cl.Write(a, data, meta)
	})
}

// DirectWrite writes via a specific member with no redirect-following or
// fallback — the fencing probe: a deposed owner must answer NotOwner.
func (c *SmartClient) DirectWrite(memberID string, a layout.Addr, data []byte, meta core.Meta) error {
	m, ok := c.ms.Member(memberID)
	if !ok {
		return fmt.Errorf("cluster: unknown member %q", memberID)
	}
	cl, err := c.get(m.Wire)
	if err != nil {
		return err
	}
	err = cl.Write(a, data, meta)
	if err != nil {
		if _, ok := statusOf(err); !ok {
			c.drop(m.Wire, cl)
		}
	}
	return err
}

// Close drops every connection.
func (c *SmartClient) Close() error {
	var first error
	for addr, cl := range c.conns {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
		delete(c.conns, addr)
	}
	return first
}

// Retryable reports whether err is worth a backoff retry against the
// cluster: a retryable wire status, or the client-side unavailable
// wrapper (owner dead, promotion pending).
func Retryable(err error) bool {
	return server.Retryable(err) || errors.Is(err, server.ErrUnavailable) || errors.Is(err, shard.ErrReplStalled)
}
