package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
	"aisebmt/internal/shard"
)

// Client is a synchronous wire-protocol client over one TCP connection.
// It is not safe for concurrent use; closed-loop load generators open one
// Client per worker.
type Client struct {
	conn       net.Conn
	bw         *bufio.Writer
	br         *bufio.Reader
	deadlineUS uint32
	traceNext  uint64 // next TraceID to stamp; 0 = tracing off
	forwarded  bool
}

// Dial connects to a secmemd server.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient speaks the wire protocol over an already-open connection (one
// a caller dialed its own way) and takes ownership of it.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, bw: bufio.NewWriter(conn), br: bufio.NewReader(conn)}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// SetRequestDeadline stamps every subsequent request with a per-request
// execution budget; the server uses min(budget, its own timeout).
// 0 restores the server default. Budgets are capped at ~71 minutes by
// the wire format's microsecond field.
func (c *Client) SetRequestDeadline(d time.Duration) {
	if d <= 0 {
		c.deadlineUS = 0
		return
	}
	us := d.Microseconds()
	if us <= 0 {
		us = 1
	}
	if us > int64(^uint32(0)) {
		us = int64(^uint32(0))
	}
	c.deadlineUS = uint32(us)
}

// MarkForwarded stamps every subsequent request as forwarded by a
// cluster proxy (Request.Forwarded).
func (c *Client) MarkForwarded() { c.forwarded = true }

// EnableTrace stamps every subsequent request with a distinct nonzero
// TraceID, counting up from base (base 0 picks 1). The server records a
// per-stage span for each traced request in its trace rings (/tracez).
// Returns the first TraceID that will be used.
func (c *Client) EnableTrace(base uint64) uint64 {
	if base == 0 {
		base = 1
	}
	c.traceNext = base
	return base
}

// DisableTrace stops stamping TraceIDs.
func (c *Client) DisableTrace() { c.traceNext = 0 }

// Do sends one request and reads its response.
func (c *Client) Do(q *Request) (*Response, error) {
	if q.DeadlineUS == 0 {
		q.DeadlineUS = c.deadlineUS
	}
	q.Forwarded = q.Forwarded || c.forwarded
	if q.TraceID == 0 && c.traceNext != 0 {
		q.TraceID = c.traceNext
		c.traceNext++
		if c.traceNext == 0 { // wrapped: 0 means "off", skip it
			c.traceNext = 1
		}
	}
	if err := EncodeRequest(c.bw, q); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	return DecodeResponse(c.br)
}

// StatusError reports a non-OK response as a Go error.
type StatusError struct {
	Op     Op
	Status Status
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server: %s: %s: %s", e.Op, e.Status, e.Msg)
}

// Retryable reports whether err is a transient *StatusError (timeout,
// overloaded, quarantined, not-owner): the request was not executed and
// a backoff retry can reasonably succeed.
func Retryable(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Status.Retryable()
}

// NotOwnerAddr extracts the owner's wire address from a StatusNotOwner
// error. A smart cluster client uses it to re-route the retry straight
// to the owning node instead of bouncing off the same replica again.
func NotOwnerAddr(err error) (string, bool) {
	var se *StatusError
	if errors.As(err, &se) && se.Status == StatusNotOwner && se.Msg != "" {
		return se.Msg, true
	}
	return "", false
}

// check converts a non-OK response into a *StatusError.
func check(op Op, p *Response) error {
	if p.Status == StatusOK {
		return nil
	}
	return &StatusError{Op: op, Status: p.Status, Msg: string(p.Data)}
}

// Read fetches n plaintext bytes at addr.
func (c *Client) Read(addr layout.Addr, n int, meta core.Meta) ([]byte, error) {
	p, err := c.Do(&Request{Op: OpRead, Addr: uint64(addr), Virt: meta.VirtAddr, PID: meta.PID, Count: uint32(n)})
	if err != nil {
		return nil, err
	}
	if err := check(OpRead, p); err != nil {
		return nil, err
	}
	return p.Data, nil
}

// Write stores plaintext bytes at addr.
func (c *Client) Write(addr layout.Addr, data []byte, meta core.Meta) error {
	p, err := c.Do(&Request{Op: OpWrite, Addr: uint64(addr), Virt: meta.VirtAddr, PID: meta.PID, Data: data})
	if err != nil {
		return err
	}
	return check(OpWrite, p)
}

// Verify runs the service-wide integrity sweep.
func (c *Client) Verify() error {
	p, err := c.Do(&Request{Op: OpVerify})
	if err != nil {
		return err
	}
	return check(OpVerify, p)
}

// Roots fetches the per-shard tree roots.
func (c *Client) Roots() ([][]byte, error) {
	p, err := c.Do(&Request{Op: OpRoot})
	if err != nil {
		return nil, err
	}
	if err := check(OpRoot, p); err != nil {
		return nil, err
	}
	var roots [][]byte
	b := p.Data
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, fmt.Errorf("server: truncated roots payload")
		}
		n := int(b[0])<<24 | int(b[1])<<16 | int(b[2])<<8 | int(b[3])
		b = b[4:]
		if n > len(b) {
			return nil, fmt.Errorf("server: truncated root of %d bytes", n)
		}
		roots = append(roots, append([]byte(nil), b[:n]...))
		b = b[n:]
	}
	return roots, nil
}

// Stats fetches the service-level statistics.
func (c *Client) Stats() (shard.ServiceStats, error) {
	var st shard.ServiceStats
	p, err := c.Do(&Request{Op: OpStats})
	if err != nil {
		return st, err
	}
	if err := check(OpStats, p); err != nil {
		return st, err
	}
	err = json.Unmarshal(p.Data, &st)
	return st, err
}

// SwapOut evicts the page at addr to a client-held image.
func (c *Client) SwapOut(addr layout.Addr, slot int) (*core.PageImage, error) {
	p, err := c.Do(&Request{Op: OpSwapOut, Addr: uint64(addr), Slot: uint32(slot)})
	if err != nil {
		return nil, err
	}
	if err := check(OpSwapOut, p); err != nil {
		return nil, err
	}
	return DecodeImage(p.Data)
}

// SwapIn installs a client-held image at addr.
func (c *Client) SwapIn(img *core.PageImage, addr layout.Addr, slot int) error {
	p, err := c.Do(&Request{Op: OpSwapIn, Addr: uint64(addr), Slot: uint32(slot), Data: EncodeImage(img)})
	if err != nil {
		return err
	}
	return check(OpSwapIn, p)
}

// Hibernate asks the daemon to cut a durable checkpoint (sealed snapshot
// + WAL truncation); a daemon without a data directory answers
// StatusUnsupported.
func (c *Client) Hibernate() error {
	p, err := c.Do(&Request{Op: OpHibernate})
	if err != nil {
		return err
	}
	return check(OpHibernate, p)
}

// tenantID parses the 4-byte big-endian tenant ID create and fork answer.
func tenantID(op Op, p *Response) (uint32, error) {
	if err := check(op, p); err != nil {
		return 0, err
	}
	if len(p.Data) != 4 {
		return 0, fmt.Errorf("server: %s answered %d bytes, want a 4-byte tenant id", op, len(p.Data))
	}
	return uint32(p.Data[0])<<24 | uint32(p.Data[1])<<16 | uint32(p.Data[2])<<8 | uint32(p.Data[3]), nil
}

// TenantCreate allocates a tenant with npages of zeroed memory and
// returns its ID.
func (c *Client) TenantCreate(npages int) (uint32, error) {
	p, err := c.Do(&Request{Op: OpTenantCreate, Count: uint32(npages)})
	if err != nil {
		return 0, err
	}
	return tenantID(OpTenantCreate, p)
}

// TenantDestroy tears a tenant down.
func (c *Client) TenantDestroy(id uint32) error {
	p, err := c.Do(&Request{Op: OpTenantDestroy, Addr: uint64(id)})
	if err != nil {
		return err
	}
	return check(OpTenantDestroy, p)
}

// TenantFork clones a tenant copy-on-write and returns the child's ID.
func (c *Client) TenantFork(id uint32) (uint32, error) {
	p, err := c.Do(&Request{Op: OpTenantFork, Addr: uint64(id)})
	if err != nil {
		return 0, err
	}
	return tenantID(OpTenantFork, p)
}

// TenantRead fetches n bytes from a tenant's address space at vaddr.
func (c *Client) TenantRead(id uint32, vaddr uint64, n int) ([]byte, error) {
	p, err := c.Do(&Request{Op: OpTenantRead, Addr: uint64(id), Virt: vaddr, Count: uint32(n)})
	if err != nil {
		return nil, err
	}
	if err := check(OpTenantRead, p); err != nil {
		return nil, err
	}
	return p.Data, nil
}

// TenantWrite stores data into a tenant's address space at vaddr.
func (c *Client) TenantWrite(id uint32, vaddr uint64, data []byte) error {
	p, err := c.Do(&Request{Op: OpTenantWrite, Addr: uint64(id), Virt: vaddr, Data: data})
	if err != nil {
		return err
	}
	return check(OpTenantWrite, p)
}

// TenantMap aliases one page of tenant srcID at srcVaddr into tenant
// dstID's address space at dstVaddr; both sides then read and write the
// same physical page.
func (c *Client) TenantMap(srcID uint32, srcVaddr uint64, dstID uint32, dstVaddr uint64) error {
	data := make([]byte, 12)
	binary.BigEndian.PutUint32(data[:4], dstID)
	binary.BigEndian.PutUint64(data[4:], dstVaddr)
	p, err := c.Do(&Request{Op: OpTenantMap, Addr: uint64(srcID), Virt: srcVaddr, Data: data})
	if err != nil {
		return err
	}
	return check(OpTenantMap, p)
}

// TenantStats fetches the tenant layer's snapshot as raw JSON (the shape
// is tenant.Stats; raw bytes keep the client decoupled from that package).
func (c *Client) TenantStats() ([]byte, error) {
	p, err := c.Do(&Request{Op: OpTenantStats})
	if err != nil {
		return nil, err
	}
	if err := check(OpTenantStats, p); err != nil {
		return nil, err
	}
	return p.Data, nil
}

// clusterOp runs one membership-admin op with arg in Data and returns
// the resulting cluster view as raw JSON.
func (c *Client) clusterOp(op Op, arg string) ([]byte, error) {
	p, err := c.Do(&Request{Op: op, Data: []byte(arg)})
	if err != nil {
		return nil, err
	}
	if err := check(op, p); err != nil {
		return nil, err
	}
	return p.Data, nil
}

// ClusterView fetches the node's current cluster view as JSON.
func (c *Client) ClusterView() ([]byte, error) { return c.clusterOp(OpClusterView, "") }

// ClusterJoin admits a new member ("id=host:port/repl" spec) to the
// cluster this node belongs to.
func (c *Client) ClusterJoin(spec string) ([]byte, error) { return c.clusterOp(OpClusterJoin, spec) }

// ClusterLeave drains the addressed node (id must be the node served by
// this connection) and retires it from the cluster.
func (c *Client) ClusterLeave(id string) ([]byte, error) { return c.clusterOp(OpClusterLeave, id) }

// ClusterRemove expels a dead member; its ranges must already be served
// by the node this connection addresses.
func (c *Client) ClusterRemove(id string) ([]byte, error) { return c.clusterOp(OpClusterRemove, id) }

// Cordon takes shard i out of service (operator control).
func (c *Client) Cordon(i int) error {
	p, err := c.Do(&Request{Op: OpCordon, Addr: uint64(i)})
	if err != nil {
		return err
	}
	return check(OpCordon, p)
}

// Uncordon routes a down shard back through quarantine and repair.
func (c *Client) Uncordon(i int) error {
	p, err := c.Do(&Request{Op: OpUncordon, Addr: uint64(i)})
	if err != nil {
		return err
	}
	return check(OpUncordon, p)
}
