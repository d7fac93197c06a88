// Package server is the secure-memory service front-end: a small
// length-prefixed binary wire protocol and a TCP server that exposes a
// shard.Pool's operations (read, write, verify, root, stats, swapout,
// swapin, hibernate) with per-request timeouts and graceful
// drain-on-shutdown. cmd/secmemd wraps it as a daemon; Client is the
// matching client.
package server

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Op identifies a request operation.
type Op uint8

// Wire operations.
const (
	OpRead Op = iota + 1
	OpWrite
	OpVerify
	OpRoot
	OpStats
	OpSwapOut
	OpSwapIn
	OpHibernate
	// OpCordon / OpUncordon are operator controls over one shard's fault
	// domain (Addr carries the shard index): cordon takes the shard out of
	// service, uncordon routes it back through quarantine and repair.
	OpCordon
	OpUncordon
	// Tenant operations address the multi-tenant layer rather than the
	// flat keyspace: Addr carries the tenant ID (except create, where
	// Count carries the page count), Virt the tenant-virtual address.
	// Create and fork answer with the 4-byte big-endian tenant ID.
	OpTenantCreate
	OpTenantDestroy
	OpTenantFork
	OpTenantRead
	OpTenantWrite
	OpTenantStats
	// Cluster membership operations drive the ring-change protocol on a
	// cluster-mode node: Data carries the argument as text (join: the new
	// member's "id=host:port/repl" spec; leave/remove: the member ID; view:
	// nothing) and the answer is the resulting cluster view as JSON.
	OpClusterView
	OpClusterJoin
	OpClusterLeave
	OpClusterRemove
	// OpTenantMap aliases one page of a source tenant into a destination
	// tenant's address space: Addr carries the source tenant ID, Virt the
	// source page address, and Data the destination tenant ID (4 bytes BE)
	// followed by the destination page address (8 bytes BE).
	OpTenantMap
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpVerify:
		return "verify"
	case OpRoot:
		return "root"
	case OpStats:
		return "stats"
	case OpSwapOut:
		return "swapout"
	case OpSwapIn:
		return "swapin"
	case OpHibernate:
		return "hibernate"
	case OpCordon:
		return "cordon"
	case OpUncordon:
		return "uncordon"
	case OpTenantCreate:
		return "tenant-create"
	case OpTenantDestroy:
		return "tenant-destroy"
	case OpTenantFork:
		return "tenant-fork"
	case OpTenantRead:
		return "tenant-read"
	case OpTenantWrite:
		return "tenant-write"
	case OpTenantStats:
		return "tenant-stats"
	case OpClusterView:
		return "cluster-view"
	case OpClusterJoin:
		return "cluster-join"
	case OpClusterLeave:
		return "cluster-leave"
	case OpClusterRemove:
		return "cluster-remove"
	case OpTenantMap:
		return "tenant-map"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Status is a response's outcome class.
type Status uint8

// Response statuses.
const (
	StatusOK Status = iota
	StatusTampered
	StatusUnsupported
	StatusBadRequest
	StatusTimeout
	StatusInternal
	// StatusOverloaded: admission control shed the request before it
	// queued; nothing was executed. Retry with backoff.
	StatusOverloaded
	// StatusQuarantined: the addressed shard is latched out of service
	// (integrity or durability fault, or an operator cordon) and nothing
	// was executed; other shards are unaffected. Retry with backoff —
	// online repair usually brings the shard back.
	StatusQuarantined
	// StatusSlowClient: the client failed to deliver a complete request
	// frame within the server's frame timeout; the server closes the
	// connection after sending this.
	StatusSlowClient
	// StatusNotOwner: in cluster mode the addressed page belongs to
	// another node; nothing was executed. Data carries the owner's wire
	// address as text so a smart client can re-route without a proxy hop.
	StatusNotOwner
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusTampered:
		return "tampered"
	case StatusUnsupported:
		return "unsupported"
	case StatusBadRequest:
		return "bad-request"
	case StatusTimeout:
		return "timeout"
	case StatusInternal:
		return "error"
	case StatusOverloaded:
		return "overloaded"
	case StatusQuarantined:
		return "quarantined"
	case StatusSlowClient:
		return "slow-client"
	case StatusNotOwner:
		return "not-owner"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Retryable reports whether the status is transient — the request was
// not executed and a retry with backoff can reasonably succeed. Every
// other non-OK status is fatal for the request (tampered, unsupported,
// malformed) and retrying it verbatim cannot help.
func (s Status) Retryable() bool {
	switch s {
	case StatusTimeout, StatusOverloaded, StatusQuarantined, StatusNotOwner:
		return true
	default:
		return false
	}
}

// MaxFrame bounds a frame body; it must admit a swap image (a 4KB page,
// its counter block and up to 64 32-byte MACs) with room to spare.
const MaxFrame = 1 << 20

// reqHeaderLen is the fixed request body prefix: op(1) + addr(8) +
// virt(8) + pid(4) + count(4) + slot(4) + deadline(4) + trace(8).
const reqHeaderLen = 1 + 8 + 8 + 4 + 4 + 4 + 4 + 8

// Request is one wire request. All operations share a fixed header;
// fields an operation does not use are zero. Data carries the payload for
// writes (plaintext) and swapin (an encoded PageImage).
type Request struct {
	Op    Op
	Addr  uint64
	Virt  uint64 // Meta.VirtAddr for read/write
	PID   uint32 // Meta.PID for read/write
	Count uint32 // byte count for reads
	Slot  uint32 // directory slot for swapout/swapin
	// DeadlineUS is the client's budget for this request in microseconds;
	// the server uses min(DeadlineUS, its own timeout) as the execution
	// deadline. 0 means "server default". ~71 minutes is the ceiling,
	// far above any sane per-request budget.
	DeadlineUS uint32
	// TraceID, when nonzero, asks the server to record a per-stage span
	// timeline (queue wait, coalesce, crypto, WAL append, fsync) for this
	// request into its shard's trace ring, retrievable via /tracez. Zero
	// disables tracing; recording is lock-free and allocation-free either
	// way.
	TraceID uint64
	// Forwarded marks a request a cluster member's proxy sent on for its
	// client: the receiving member serves it or answers NotOwner, and
	// never forwards it again, so proxying members cannot bounce one
	// request between themselves. It rides in the op byte's high bit.
	Forwarded bool
	Data      []byte
}

// opForwarded is the op byte's flag bit for Request.Forwarded.
const opForwarded = 0x80

// Response is one wire response. Data carries read plaintext, an encoded
// PageImage for swapout, JSON for stats, concatenated per-shard roots for
// root, or an error message for non-OK statuses.
type Response struct {
	Status Status
	Data   []byte
}

// writeFrame emits one length-prefixed frame.
func writeFrame(w io.Writer, body []byte) error {
	if len(body) > MaxFrame {
		return fmt.Errorf("server: frame of %d bytes exceeds limit %d", len(body), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame consumes one length-prefixed frame.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("server: frame of %d bytes exceeds limit %d", n, MaxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// EncodeRequest writes one request frame.
func EncodeRequest(w io.Writer, q *Request) error {
	body := make([]byte, reqHeaderLen+len(q.Data))
	body[0] = byte(q.Op)
	if q.Forwarded {
		body[0] |= opForwarded
	}
	binary.BigEndian.PutUint64(body[1:9], q.Addr)
	binary.BigEndian.PutUint64(body[9:17], q.Virt)
	binary.BigEndian.PutUint32(body[17:21], q.PID)
	binary.BigEndian.PutUint32(body[21:25], q.Count)
	binary.BigEndian.PutUint32(body[25:29], q.Slot)
	binary.BigEndian.PutUint32(body[29:33], q.DeadlineUS)
	binary.BigEndian.PutUint64(body[33:41], q.TraceID)
	copy(body[reqHeaderLen:], q.Data)
	return writeFrame(w, body)
}

// DecodeRequest reads one request frame.
func DecodeRequest(r io.Reader) (*Request, error) {
	body, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	return parseRequest(body)
}

// parseRequest decodes a request frame body.
func parseRequest(body []byte) (*Request, error) {
	if len(body) < reqHeaderLen {
		return nil, fmt.Errorf("server: request frame of %d bytes is shorter than the %d-byte header", len(body), reqHeaderLen)
	}
	q := &Request{
		Op:         Op(body[0] &^ opForwarded),
		Forwarded:  body[0]&opForwarded != 0,
		Addr:       binary.BigEndian.Uint64(body[1:9]),
		Virt:       binary.BigEndian.Uint64(body[9:17]),
		PID:        binary.BigEndian.Uint32(body[17:21]),
		Count:      binary.BigEndian.Uint32(body[21:25]),
		Slot:       binary.BigEndian.Uint32(body[25:29]),
		DeadlineUS: binary.BigEndian.Uint32(body[29:33]),
		TraceID:    binary.BigEndian.Uint64(body[33:41]),
	}
	if q.Op < OpRead || q.Op > OpTenantMap {
		return nil, fmt.Errorf("server: unknown op %d", q.Op)
	}
	if len(body) > reqHeaderLen {
		q.Data = body[reqHeaderLen:]
	}
	return q, nil
}

// EncodeResponse writes one response frame.
func EncodeResponse(w io.Writer, p *Response) error {
	body := make([]byte, 1+len(p.Data))
	body[0] = byte(p.Status)
	copy(body[1:], p.Data)
	return writeFrame(w, body)
}

// DecodeResponse reads one response frame.
func DecodeResponse(r io.Reader) (*Response, error) {
	body, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	if len(body) < 1 {
		return nil, fmt.Errorf("server: empty response frame")
	}
	if Status(body[0]) > StatusNotOwner {
		return nil, fmt.Errorf("server: unknown status %d", body[0])
	}
	p := &Response{Status: Status(body[0])}
	if len(body) > 1 {
		p.Data = body[1:]
	}
	return p, nil
}
