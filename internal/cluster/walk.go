package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"aisebmt/internal/server"
	"aisebmt/internal/shard"
)

// conns is where the routing walk gets its wire connections: SmartClient
// keeps one per node for its single goroutine, a proxying Node shares a
// locked idle pool (peerPool) across its request goroutines.
type conns interface {
	get(addr string) (*server.Client, error)
	// put takes back a connection that still speaks the protocol.
	put(addr string, c *server.Client)
	// drop discards a connection whose transport failed.
	drop(addr string, c *server.Client)
}

// redirects remembers, per owner, the node that last served the owner's
// range in its place, so the next walk for that owner starts there.
type redirects struct {
	mu sync.Mutex
	to map[string]string // owner ID -> wire addr
}

func (r *redirects) get(ownerID string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.to[ownerID]
}

// learn records that addr served ownerID's range; the owner serving it
// itself forgets the redirect.
func (r *redirects) learn(ownerID, ownerWire, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if addr == ownerWire {
		delete(r.to, ownerID)
		return
	}
	if r.to == nil {
		r.to = map[string]string{}
	}
	r.to[ownerID] = addr
}

// stallRetries is how many times the walk re-asks the SAME node that
// answered Overloaded before walking on: an overloaded answer usually
// means the serving node is the right one but momentarily stalled
// (replication stream re-attaching after a rotation or a promotion's
// re-replication catching up), so a short jittered wait at the correct
// node beats hopping to a successor that will just answer NotOwner.
const stallRetries = 2

// stallBackoff returns the jittered wait before stall retry attempt k
// (0-based): ~25ms, ~50ms, spread over [base/2, base).
func stallBackoff(k int) time.Duration {
	base := 25 * time.Millisecond << uint(k)
	return base/2 + time.Duration(int64(time.Now().UnixNano())%int64(base/2))
}

// walk runs op against the node serving page p on behalf of member
// ownerID. Candidates are the learned redirect, the owner, then its
// successors (the order failover promotes in); each NotOwner answer is
// spliced in as the very next candidate. The tried set breaks redirect
// loops, and the walk visits at most ring size + 1 nodes: every member
// once plus one learned redirect (a handoff's old and new holder plus
// successors never need more). A definitive status is returned as-is;
// exhausting every candidate wraps server.ErrUnavailable around the
// last answer. A done ctx ends the walk before its next hop or stall
// wait with ctx.Err(), so the caller's deadline bounds it.
func walk(ctx context.Context, ms *Membership, src conns, learned *redirects, ownerID string, p uint64, op func(*server.Client) error) error {
	owner, _ := ms.Member(ownerID)
	var targets []string
	if l := learned.get(ownerID); l != "" {
		targets = append(targets, l)
	}
	targets = append(targets, owner.Wire)
	for _, s := range ms.Successors(ownerID) {
		targets = append(targets, s.Wire)
	}
	maxWalk := len(ms.ids) + 1
	tried := map[string]bool{}
	var lastErr error
	for i := 0; i < len(targets) && len(tried) < maxWalk; i++ {
		addr := targets[i]
		if addr == "" || tried[addr] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		tried[addr] = true
		c, err := src.get(addr)
		if err != nil {
			lastErr = err
			continue
		}
		err = op(c)
		// Shed retryably by the node itself (admission control, a stalled
		// replication stream, a promotion in flight): this IS the serving
		// node, so wait out the stall here first.
		for k := 0; k < stallRetries && isStatus(err, server.StatusOverloaded); k++ {
			if werr := sleepCtx(ctx, stallBackoff(k)); werr != nil {
				src.put(addr, c)
				return werr
			}
			err = op(c)
		}
		if err == nil {
			src.put(addr, c)
			learned.learn(ownerID, owner.Wire, addr)
			return nil
		}
		st, ok := statusOf(err)
		if !ok {
			// Transport failure: the connection is dead, the node may be too.
			src.drop(addr, c)
			lastErr = err
			continue
		}
		src.put(addr, c)
		if na, ok := server.NotOwnerAddr(err); ok {
			targets = slices.Insert(targets, i+1, na)
		} else if !st.Retryable() {
			// The serving node's definitive verdict stands.
			return err
		}
		// Otherwise still transient after the stall retries: another
		// candidate may hold a promoted copy of this range.
		lastErr = err
	}
	if lastErr == nil {
		lastErr = errors.New("no candidates")
	}
	return fmt.Errorf("%w: no node served page %d (owner %s): %w", server.ErrUnavailable, p, ownerID, lastErr)
}

// sleepCtx waits d, or returns ctx.Err() as soon as ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func statusOf(err error) (server.Status, bool) {
	var se *server.StatusError
	if errors.As(err, &se) {
		return se.Status, true
	}
	return 0, false
}

func isStatus(err error, want server.Status) bool {
	st, ok := statusOf(err)
	return ok && st == want
}

// peerPool is a proxying Node's connection source: idle wire connections
// to its peers, shared by every request goroutine, plus the redirects its
// walks learned. It opens connections through dial (the Node's
// Config.Dialer), so a partition injected there cuts proxied hops too.
type peerPool struct {
	timeout time.Duration
	dial    func(addr string) (net.Conn, error)
	learned redirects

	mu     sync.Mutex
	idle   map[string][]*server.Client
	closed bool
}

func newPeerPool(timeout time.Duration, dial func(addr string) (net.Conn, error)) *peerPool {
	return &peerPool{timeout: timeout, dial: dial, idle: map[string][]*server.Client{}}
}

func (pp *peerPool) get(addr string) (*server.Client, error) {
	pp.mu.Lock()
	if pp.closed {
		pp.mu.Unlock()
		return nil, shard.ErrClosed
	}
	if s := pp.idle[addr]; len(s) > 0 {
		c := s[len(s)-1]
		pp.idle[addr] = s[:len(s)-1]
		pp.mu.Unlock()
		return c, nil
	}
	pp.mu.Unlock()
	conn, err := pp.dial(addr)
	if err != nil {
		return nil, err
	}
	c := server.NewClient(conn)
	c.SetRequestDeadline(pp.timeout)
	c.MarkForwarded()
	return c, nil
}

func (pp *peerPool) put(addr string, c *server.Client) {
	pp.mu.Lock()
	if !pp.closed && len(pp.idle[addr]) < 8 {
		pp.idle[addr] = append(pp.idle[addr], c)
		pp.mu.Unlock()
		return
	}
	pp.mu.Unlock()
	c.Close()
}

func (pp *peerPool) drop(_ string, c *server.Client) { c.Close() }

func (pp *peerPool) close() {
	pp.mu.Lock()
	pp.closed = true
	for _, s := range pp.idle {
		for _, c := range s {
			c.Close()
		}
	}
	pp.idle = map[string][]*server.Client{}
	pp.mu.Unlock()
}
