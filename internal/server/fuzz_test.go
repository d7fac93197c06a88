package server

import (
	"bytes"
	"context"
	"testing"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
	"aisebmt/internal/shard"
	"aisebmt/internal/tenant"
)

// FuzzRequestRoundTrip checks the codec both ways: any decodable request
// frame body re-encodes to an identical frame, and arbitrary bytes never
// panic the decoder.
func FuzzRequestRoundTrip(f *testing.F) {
	seed := [][]byte{}
	for _, q := range []*Request{
		{Op: OpRead, Addr: 4096, Count: 64},
		{Op: OpWrite, Addr: 64, Virt: 1 << 40, PID: 9, Data: []byte("hello")},
		{Op: OpSwapIn, Addr: 8192, Slot: 3, Data: bytes.Repeat([]byte{1}, 64)},
		{Op: OpHibernate},
		{Op: OpRead, Addr: 4096, Count: 64, DeadlineUS: 250_000},
		{Op: OpWrite, Addr: 64, Data: []byte("d"), DeadlineUS: ^uint32(0)},
		{Op: OpRead, Addr: 4096, Count: 64, TraceID: ^uint64(0)},
		{Op: OpWrite, Addr: 64, Data: []byte("t"), DeadlineUS: 1, TraceID: 7},
		{Op: OpWrite, Addr: 64, Data: []byte("f"), Forwarded: true},
		{Op: OpCordon, Addr: 1},
		{Op: OpUncordon, Addr: 1},
		{Op: OpTenantCreate, Count: 8},
		{Op: OpTenantDestroy, Addr: 3},
		{Op: OpTenantFork, Addr: 3, TraceID: 11},
		{Op: OpTenantRead, Addr: 3, Virt: 4096, Count: 64},
		{Op: OpTenantWrite, Addr: 3, Virt: 8192, Data: []byte("tenant bytes")},
		{Op: OpTenantStats},
		{Op: OpTenantMap, Addr: 3, Virt: 4096, Data: []byte{0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 32, 0}},
	} {
		var buf bytes.Buffer
		if err := EncodeRequest(&buf, q); err != nil {
			f.Fatal(err)
		}
		seed = append(seed, buf.Bytes()[4:]) // frame body without the length prefix
	}
	seed = append(seed,
		[]byte{}, []byte{0},
		bytes.Repeat([]byte{0xff}, reqHeaderLen),
		// Legacy headers (trace-less: 8 short; trace- and deadline-less:
		// 12 short) must be rejected cleanly, never sliced out of range.
		append([]byte{byte(OpRead)}, make([]byte, reqHeaderLen-9)...),
		append([]byte{byte(OpRead)}, make([]byte, reqHeaderLen-13)...))
	for _, s := range seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		q, err := parseRequest(body)
		if err != nil {
			return // rejected input; the only requirement is no panic
		}
		var buf bytes.Buffer
		if err := EncodeRequest(&buf, q); err != nil {
			t.Fatalf("decoded request failed to re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes()[4:], body) {
			t.Fatalf("round-trip changed the frame body:\n in  %x\n out %x", body, buf.Bytes()[4:])
		}
		q2, err := DecodeRequest(&buf)
		if err != nil {
			t.Fatalf("re-encoded request failed to decode: %v", err)
		}
		if q.Op != q2.Op || q.Addr != q2.Addr || q.Virt != q2.Virt ||
			q.PID != q2.PID || q.Count != q2.Count || q.Slot != q2.Slot ||
			q.Forwarded != q2.Forwarded || !bytes.Equal(q.Data, q2.Data) {
			t.Fatal("double round-trip mismatch")
		}
	})
}

// FuzzTenantDispatch drives arbitrary frame bodies through the decoder
// and — when they parse to a tenant operation — through a real tenant
// service over a live pool: malformed tenant frames must never panic the
// server, whatever tenant IDs, virtual addresses, page counts or
// payloads they carry. Tenants a fuzz input manages to create are torn
// down again so state stays bounded across iterations.
func FuzzTenantDispatch(f *testing.F) {
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
		f.Fatal(err)
	}
	defer pool.Close()
	svc := tenant.New(tenant.Config{Pool: pool, ResidentPages: 6})
	srv := New(pool, Options{Timeout: time.Second, Tenants: svc})
	for _, q := range []*Request{
		{Op: OpTenantCreate, Count: 4},
		{Op: OpTenantCreate, Count: ^uint32(0)},
		{Op: OpTenantDestroy, Addr: ^uint64(0)},
		{Op: OpTenantFork, Addr: 1},
		{Op: OpTenantRead, Addr: 1, Virt: ^uint64(0), Count: 64},
		{Op: OpTenantRead, Addr: 1, Count: ^uint32(0)},
		{Op: OpTenantWrite, Addr: 1, Virt: 1<<32 - 4096, Data: bytes.Repeat([]byte{7}, 128)},
		{Op: OpTenantStats},
		{Op: OpTenantMap, Addr: 1, Virt: 0, Data: []byte{0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 16, 0}},
		{Op: OpTenantMap, Addr: 1, Virt: 4096, Data: []byte{0xff}}, // short destination
		{Op: OpTenantMap, Addr: ^uint64(0), Virt: ^uint64(0), Data: bytes.Repeat([]byte{0xff}, 12)},
	} {
		var buf bytes.Buffer
		if err := EncodeRequest(&buf, q); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes()[4:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		q, err := parseRequest(body)
		if err != nil || (q.Op < OpTenantCreate || q.Op > OpTenantStats) && q.Op != OpTenantMap {
			return
		}
		resp := srv.dispatch(q)
		if resp == nil {
			t.Fatal("dispatch returned nil response")
		}
		if q.Op == OpTenantCreate && resp.Status == StatusOK {
			id, err := tenantID(OpTenantCreate, resp)
			if err != nil {
				t.Fatal(err)
			}
			if err := svc.Destroy(context.Background(), id, 0); err != nil {
				t.Fatalf("cleanup destroy: %v", err)
			}
		}
	})
}

// FuzzResponseDecode feeds arbitrary frames to the response decoder.
func FuzzResponseDecode(f *testing.F) {
	for _, p := range []*Response{
		{Status: StatusOK, Data: []byte("x")},
		{Status: StatusOverloaded, Data: []byte("server: 1024 requests in flight")},
		{Status: StatusQuarantined, Data: []byte("shard 1 quarantined (integrity)")},
		{Status: StatusSlowClient, Data: []byte("frame not completed within 10s")},
	} {
		var buf bytes.Buffer
		EncodeResponse(&buf, p)
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0, 0, 0, 1, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 1, byte(StatusSlowClient) + 1}) // just past the last status
	f.Fuzz(func(t *testing.T, frame []byte) {
		p, err := DecodeResponse(bytes.NewReader(frame))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeResponse(&buf, p); err != nil {
			t.Fatalf("decoded response failed to re-encode: %v", err)
		}
	})
}
