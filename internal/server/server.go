package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
	"aisebmt/internal/obs"
	"aisebmt/internal/shard"
)

// Options tunes a Server. The zero value is usable.
type Options struct {
	// Timeout bounds each request's execution (queueing included);
	// 0 means 5s. A request's wire deadline (Request.DeadlineUS) can only
	// tighten this, never extend it.
	Timeout time.Duration
	// FrameTimeout bounds how long a client may take to deliver one
	// request frame once its first byte has arrived; 0 means 10s. A
	// client that stalls mid-frame is answered with StatusSlowClient and
	// disconnected instead of pinning a connection goroutine forever.
	FrameTimeout time.Duration
	// MaxInflight bounds concurrently executing requests across all
	// connections (admission control); 0 means 1024, negative disables
	// shedding. Excess requests are answered immediately with
	// StatusOverloaded rather than queueing without bound.
	MaxInflight int
	// Checkpoint serves OpHibernate: it cuts a durable snapshot (the
	// durability layer's snapshot + WAL truncation) and the op reports
	// the returned path and size. Nil answers OpHibernate Unsupported — a
	// daemon without a data directory has nowhere sealed to image to.
	Checkpoint func() (path string, bytes int64, err error)
	// Logf, when non-nil, receives connection-level events.
	Logf func(format string, args ...any)
	// Obs, when non-nil, enables the observability subsystem: request
	// metrics register against its registry and ObsHandler can mount
	// /metrics and /tracez. One Service must not back two servers (the
	// instruments would collide).
	Obs *obs.Service
	// Tenants, when non-nil, serves the tenant wire operations (create,
	// destroy, fork, per-tenant read/write, stats) against the
	// multi-tenant address-space layer. Nil answers them Unsupported —
	// e.g. cluster nodes, whose keyspace is partitioned across machines.
	Tenants TenantBackend
}

// TenantBackend is what the tenant wire operations need from the
// multi-tenant layer; *tenant.Service implements it. It is an interface
// here so the server package does not depend on the tenant package's
// construction details (and tests can stub it).
type TenantBackend interface {
	Create(ctx context.Context, npages int, trace uint64) (uint32, error)
	Destroy(ctx context.Context, id uint32, trace uint64) error
	Fork(ctx context.Context, id uint32, trace uint64) (uint32, error)
	Read(ctx context.Context, id uint32, vaddr uint64, n int, trace uint64) ([]byte, error)
	Write(ctx context.Context, id uint32, vaddr uint64, data []byte, trace uint64) error
	Map(ctx context.Context, srcID uint32, srcVaddr uint64, dstID uint32, dstVaddr uint64, trace uint64) error
	StatsJSON() ([]byte, error)
	// Journaled reports a durable tenant layer; the raw page-level swap
	// ops are then refused, because they would move pages behind its
	// journal.
	Journaled() bool
}

// ClusterBackend is the optional membership-admin surface of a cluster
// backend. The server discovers it by type assertion on its Backend —
// single-daemon pools answer the cluster ops Unsupported. Each method
// returns the resulting cluster view as JSON.
type ClusterBackend interface {
	ClusterView() ([]byte, error)
	ClusterJoin(spec string) ([]byte, error)
	ClusterLeave(id string) ([]byte, error)
	ClusterRemove(id string) ([]byte, error)
}

// Backend is what the server front-end needs from its data plane. A
// *shard.Pool satisfies it directly (the single-daemon case); a
// cluster.Node satisfies it by routing each operation to the owning
// node's pool (serving locally, from a promoted standby, or answering
// with a NotOwner redirect).
type Backend interface {
	Read(ctx context.Context, addr layout.Addr, dst []byte, meta core.Meta) error
	Write(ctx context.Context, addr layout.Addr, src []byte, meta core.Meta) error
	Verify(ctx context.Context) error
	Roots() [][]byte
	Stats() shard.ServiceStats
	SwapOut(ctx context.Context, addr layout.Addr, slot int) (*core.PageImage, error)
	SwapIn(ctx context.Context, img *core.PageImage, addr layout.Addr, slot int) error
	Cordon(i int) error
	Uncordon(i int) error
	ShardStates() []shard.ShardState
	ShardFault(i int) (shard.FaultKind, error)
	Close() error
}

// NotOwnerError is returned by a cluster backend when the addressed page
// belongs to another node; Addr is the owner's wire address. The server
// maps it to StatusNotOwner with the address as the response payload.
type NotOwnerError struct{ Addr string }

func (e *NotOwnerError) Error() string { return "server: not owner; retry at " + e.Addr }

// ErrUnavailable marks a request no node could serve right now (the
// owner of its range is unreachable and no promotion has completed).
// It classifies to StatusOverloaded: retryable, and typically resolved
// within a failover detection window.
var ErrUnavailable = errors.New("server: temporarily unavailable")

// Server speaks the wire protocol over TCP on behalf of a Backend
// (typically a shard.Pool). Requests on one connection are served in
// order; concurrency comes from concurrent connections, which the pool
// fans out across shards.
type Server struct {
	pool Backend
	opts Options

	// ready is closed by Publish; until then every request waits (startup
	// gating: the listener can accept while recovery still runs, and the
	// first byte goes out the moment the recovered pool is published).
	ready chan struct{}

	// inflight is the admission-control semaphore; nil disables shedding.
	inflight chan struct{}
	shed     atomic.Uint64

	// metrics is non-nil iff Options.Obs was supplied.
	metrics *serverMetrics

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool
	wg       sync.WaitGroup
}

// New wraps a backend in a server, ready to serve immediately.
func New(pool Backend, opts Options) *Server {
	s := NewGated(opts)
	s.Publish(pool)
	return s
}

// NewGated builds a server with no pool yet: it accepts connections and
// queues requests until Publish supplies the pool. A daemon uses this to
// open its port before crash recovery finishes — clients connect and
// block instead of seeing connection refused.
func NewGated(opts Options) *Server {
	if opts.Timeout == 0 {
		opts.Timeout = 5 * time.Second
	}
	if opts.FrameTimeout == 0 {
		opts.FrameTimeout = 10 * time.Second
	}
	if opts.MaxInflight == 0 {
		opts.MaxInflight = 1024
	}
	s := &Server{opts: opts, ready: make(chan struct{}), conns: make(map[net.Conn]struct{})}
	if opts.MaxInflight > 0 {
		s.inflight = make(chan struct{}, opts.MaxInflight)
	}
	if opts.Obs != nil {
		s.metrics = newServerMetrics(opts.Obs, s)
	}
	return s
}

// SetTenants installs the tenant layer. A daemon calls it between
// NewGated and Publish: the layer wraps the recovered pool, which does
// not exist yet when the gated server is built, and requests cannot race
// the assignment because they wait on the gate Publish releases.
func (s *Server) SetTenants(tb TenantBackend) { s.opts.Tenants = tb }

// Publish installs the backend and releases every gated request. It must
// be called exactly once per NewGated server (New calls it for you).
func (s *Server) Publish(pool Backend) {
	s.pool = pool
	close(s.ready)
}

type forwardedKey struct{}

// Forwarded reports whether the request behind a backend call's ctx was
// forwarded by a cluster proxy (Request.Forwarded): a cluster backend
// then serves it or redirects, and never forwards it again.
func Forwarded(ctx context.Context) bool { return ctx.Value(forwardedKey{}) != nil }

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("server: closed")

// Serve accepts connections on ln until Shutdown. Each connection gets a
// goroutine running a decode→dispatch→encode loop.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Shutdown drains the server: stop accepting, wait for in-flight
// connections to finish their current request and observe the close, then
// drain-and-verify the pool (every shard runs a final integrity sweep).
// The context bounds the connection drain only; the pool verify always
// runs.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.draining = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	// Nudge idle connections out of their blocking read; a connection in
	// the middle of a request finishes serving it first because serveConn
	// only checks draining between requests.
	for _, c := range conns {
		c.SetReadDeadline(time.Now())
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
	}
	select {
	case <-s.ready:
	default:
		return drainErr // never published: no pool to drain
	}
	if err := s.pool.Close(); err != nil {
		return err
	}
	return drainErr
}

// serveConn runs one connection's request loop.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	br := bufio.NewReader(conn)
	for {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			return
		}
		// Waiting for the next request may take forever (idle connections
		// are fine; Shutdown nudges them out via a read deadline). But once
		// a frame's first byte arrives, the rest must follow within
		// FrameTimeout: a client stalling mid-frame is told so with a typed
		// error frame and disconnected, instead of pinning this goroutine
		// indefinitely and ending in a bare TCP reset.
		conn.SetReadDeadline(time.Time{})
		if _, err := br.Peek(1); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, os.ErrDeadlineExceeded) && s.opts.Logf != nil {
				s.opts.Logf("conn %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		conn.SetReadDeadline(time.Now().Add(s.opts.FrameTimeout))
		q, err := DecodeRequest(br)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				conn.SetWriteDeadline(time.Now().Add(s.opts.FrameTimeout))
				EncodeResponse(conn, fail(StatusSlowClient,
					fmt.Errorf("server: request frame not completed within %s", s.opts.FrameTimeout)))
				if s.opts.Logf != nil {
					s.opts.Logf("conn %s: slow client: frame not completed within %s", conn.RemoteAddr(), s.opts.FrameTimeout)
				}
			} else if !errors.Is(err, io.EOF) && s.opts.Logf != nil {
				s.opts.Logf("conn %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		// Admission control: a full server sheds instead of queueing
		// without bound — the client gets a fast, retryable answer.
		var resp *Response
		start := time.Now()
		if s.inflight != nil {
			select {
			case s.inflight <- struct{}{}:
				resp = s.dispatch(q)
				<-s.inflight
			default:
				s.shed.Add(1)
				resp = fail(StatusOverloaded, fmt.Errorf("server: %d requests in flight", cap(s.inflight)))
			}
		} else {
			resp = s.dispatch(q)
		}
		s.metrics.observe(q.Op, resp.Status, time.Since(start))
		if err := EncodeResponse(conn, resp); err != nil {
			if s.opts.Logf != nil {
				s.opts.Logf("conn %s: write: %v", conn.RemoteAddr(), err)
			}
			return
		}
	}
}

// dispatch executes one request against the pool, waiting out recovery
// first if the server is gated.
func (s *Server) dispatch(q *Request) *Response {
	d := s.opts.Timeout
	if q.DeadlineUS > 0 {
		if cd := time.Duration(q.DeadlineUS) * time.Microsecond; cd < d {
			d = cd
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	select {
	case <-s.ready:
	case <-ctx.Done():
		return fail(StatusTimeout, errors.New("server: still recovering"))
	}
	if q.Forwarded {
		ctx = context.WithValue(ctx, forwardedKey{}, true)
	}
	meta := core.Meta{VirtAddr: q.Virt, PID: q.PID, Trace: q.TraceID}
	switch q.Op {
	case OpRead:
		if q.Count > MaxFrame-1 {
			return fail(StatusBadRequest, fmt.Errorf("read of %d bytes exceeds frame limit", q.Count))
		}
		buf := make([]byte, q.Count)
		if err := s.pool.Read(ctx, layout.Addr(q.Addr), buf, meta); err != nil {
			return failErr(err)
		}
		return &Response{Status: StatusOK, Data: buf}
	case OpWrite:
		if err := s.pool.Write(ctx, layout.Addr(q.Addr), q.Data, meta); err != nil {
			return failErr(err)
		}
		return &Response{Status: StatusOK}
	case OpVerify:
		if err := s.pool.Verify(ctx); err != nil {
			return failErr(err)
		}
		return &Response{Status: StatusOK}
	case OpRoot:
		var out []byte
		for _, root := range s.pool.Roots() {
			var n [4]byte
			n[0] = byte(len(root) >> 24)
			n[1] = byte(len(root) >> 16)
			n[2] = byte(len(root) >> 8)
			n[3] = byte(len(root))
			out = append(out, n[:]...)
			out = append(out, root...)
		}
		return &Response{Status: StatusOK, Data: out}
	case OpStats:
		data, err := json.Marshal(s.pool.Stats())
		if err != nil {
			return fail(StatusInternal, err)
		}
		return &Response{Status: StatusOK, Data: data}
	case OpSwapOut, OpSwapIn:
		if tb := s.opts.Tenants; tb != nil && tb.Journaled() {
			return fail(StatusUnsupported, fmt.Errorf("server: raw swap ops bypass the tenant journal of this tenant-durable daemon (%w)", core.ErrUnsupported))
		}
		if q.Op == OpSwapOut {
			img, err := s.pool.SwapOut(ctx, layout.Addr(q.Addr), int(q.Slot))
			if err != nil {
				return failErr(err)
			}
			return &Response{Status: StatusOK, Data: EncodeImage(img)}
		}
		img, err := DecodeImage(q.Data)
		if err != nil {
			return fail(StatusBadRequest, err)
		}
		if err := s.pool.SwapIn(ctx, img, layout.Addr(q.Addr), int(q.Slot)); err != nil {
			return failErr(err)
		}
		return &Response{Status: StatusOK}
	case OpCordon:
		if err := s.pool.Cordon(int(q.Addr)); err != nil {
			return fail(StatusBadRequest, err)
		}
		return &Response{Status: StatusOK}
	case OpUncordon:
		if err := s.pool.Uncordon(int(q.Addr)); err != nil {
			return fail(StatusBadRequest, err)
		}
		return &Response{Status: StatusOK}
	case OpTenantCreate, OpTenantDestroy, OpTenantFork, OpTenantRead, OpTenantWrite, OpTenantStats, OpTenantMap:
		return s.dispatchTenant(ctx, q)
	case OpClusterView, OpClusterJoin, OpClusterLeave, OpClusterRemove:
		return s.dispatchCluster(q)
	case OpHibernate:
		if s.opts.Checkpoint == nil {
			return fail(StatusUnsupported, fmt.Errorf("server: no durable store to checkpoint (%w)", core.ErrUnsupported))
		}
		path, n, err := s.opts.Checkpoint()
		if err != nil {
			return fail(StatusInternal, err)
		}
		return &Response{Status: StatusOK, Data: []byte(fmt.Sprintf(`{"path":%q,"bytes":%d}`, path, n))}
	default:
		return fail(StatusBadRequest, fmt.Errorf("unknown op %d", q.Op))
	}
}

// dispatchTenant executes one tenant-layer request. IDs ride in Addr,
// tenant-virtual addresses in Virt; create and fork answer with the
// 4-byte big-endian tenant ID.
func (s *Server) dispatchTenant(ctx context.Context, q *Request) *Response {
	tb := s.opts.Tenants
	if tb == nil {
		return fail(StatusUnsupported, fmt.Errorf("server: no tenant layer configured (%w)", core.ErrUnsupported))
	}
	id32 := func(id uint32) []byte {
		return []byte{byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id)}
	}
	switch q.Op {
	case OpTenantCreate:
		id, err := tb.Create(ctx, int(q.Count), q.TraceID)
		if err != nil {
			return failErr(err)
		}
		return &Response{Status: StatusOK, Data: id32(id)}
	case OpTenantDestroy:
		if err := tb.Destroy(ctx, uint32(q.Addr), q.TraceID); err != nil {
			return failErr(err)
		}
		return &Response{Status: StatusOK}
	case OpTenantFork:
		id, err := tb.Fork(ctx, uint32(q.Addr), q.TraceID)
		if err != nil {
			return failErr(err)
		}
		return &Response{Status: StatusOK, Data: id32(id)}
	case OpTenantRead:
		if q.Count > MaxFrame-1 {
			return fail(StatusBadRequest, fmt.Errorf("tenant read of %d bytes exceeds frame limit", q.Count))
		}
		buf, err := tb.Read(ctx, uint32(q.Addr), q.Virt, int(q.Count), q.TraceID)
		if err != nil {
			return failErr(err)
		}
		return &Response{Status: StatusOK, Data: buf}
	case OpTenantWrite:
		if err := tb.Write(ctx, uint32(q.Addr), q.Virt, q.Data, q.TraceID); err != nil {
			return failErr(err)
		}
		return &Response{Status: StatusOK}
	case OpTenantMap:
		if len(q.Data) != 12 {
			return fail(StatusBadRequest, fmt.Errorf("tenant map wants a 12-byte destination (id + vaddr), got %d", len(q.Data)))
		}
		dstID := binary.BigEndian.Uint32(q.Data[:4])
		dstVaddr := binary.BigEndian.Uint64(q.Data[4:])
		if err := tb.Map(ctx, uint32(q.Addr), q.Virt, dstID, dstVaddr, q.TraceID); err != nil {
			return failErr(err)
		}
		return &Response{Status: StatusOK}
	default: // OpTenantStats
		data, err := tb.StatsJSON()
		if err != nil {
			return fail(StatusInternal, err)
		}
		return &Response{Status: StatusOK, Data: data}
	}
}

// dispatchCluster executes one membership-admin request against the
// backend's ClusterBackend surface; the argument rides in Data as text.
// Admin ops serialize inside the backend, so no context plumbing here —
// a handoff legitimately outlasts a request timeout.
func (s *Server) dispatchCluster(q *Request) *Response {
	cb, ok := s.pool.(ClusterBackend)
	if !ok {
		return fail(StatusUnsupported, fmt.Errorf("server: backend has no cluster membership layer (%w)", core.ErrUnsupported))
	}
	arg := string(q.Data)
	var (
		data []byte
		err  error
	)
	switch q.Op {
	case OpClusterView:
		data, err = cb.ClusterView()
	case OpClusterJoin:
		data, err = cb.ClusterJoin(arg)
	case OpClusterLeave:
		data, err = cb.ClusterLeave(arg)
	default: // OpClusterRemove
		data, err = cb.ClusterRemove(arg)
	}
	if err != nil {
		return failErr(err)
	}
	return &Response{Status: StatusOK, Data: data}
}

// fail builds an error response.
func fail(st Status, err error) *Response {
	return &Response{Status: st, Data: []byte(err.Error())}
}

// failErr classifies a backend error into a response. NotOwner redirects
// carry the owner's address alone as the payload so a smart client can
// re-dial without parsing prose. A *StatusError from a downstream node
// (a cluster proxy forwards over the same protocol) passes through with
// its status and payload intact, so a forwarded request answers exactly
// what the serving node answered.
func failErr(err error) *Response {
	var no *NotOwnerError
	if errors.As(err, &no) {
		return &Response{Status: StatusNotOwner, Data: []byte(no.Addr)}
	}
	var se *StatusError
	if errors.As(err, &se) {
		return &Response{Status: se.Status, Data: []byte(se.Msg)}
	}
	return fail(classify(err), err)
}

// classify maps pool/core errors to wire statuses.
func classify(err error) Status {
	switch {
	case errors.Is(err, shard.ErrShardQuarantined):
		return StatusQuarantined
	case errors.Is(err, core.ErrTampered):
		return StatusTampered
	case errors.Is(err, core.ErrUnsupported):
		return StatusUnsupported
	case errors.Is(err, shard.ErrReplStalled) || errors.Is(err, ErrUnavailable):
		// Transient cluster conditions (replication stream down, no node
		// reachable for a range mid-failover): shed retryably, like
		// admission control.
		return StatusOverloaded
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return StatusTimeout
	case errors.Is(err, shard.ErrClosed):
		return StatusInternal
	default:
		return StatusBadRequest
	}
}
