package server

import (
	"bytes"
	"reflect"
	"testing"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []*Request{
		{Op: OpRead, Addr: 0x1000, Count: 64},
		{Op: OpWrite, Addr: 0xdead00, Virt: 0x7fff0000, PID: 42, Data: []byte("payload")},
		{Op: OpVerify},
		{Op: OpRoot},
		{Op: OpStats},
		{Op: OpSwapOut, Addr: 0x2000, Slot: 7},
		{Op: OpSwapIn, Addr: 0x3000, Slot: 9, Data: bytes.Repeat([]byte{0xab}, imageFixedLen)},
		{Op: OpHibernate},
		{Op: OpRead, Addr: 0x1000, Count: 64, DeadlineUS: 500_000},
		{Op: OpRead, Addr: 0x1000, Count: 64, TraceID: 0xfeedface12345678},
		{Op: OpWrite, Addr: 0x4000, Data: []byte("traced"), DeadlineUS: 250_000, TraceID: 1},
		{Op: OpCordon, Addr: 1},
		{Op: OpUncordon, Addr: 1},
		{Op: OpRead, Addr: 0x1000, Count: 64, Forwarded: true},
		{Op: OpTenantMap, Addr: 3, Forwarded: true},
	}
	for _, q := range cases {
		var buf bytes.Buffer
		if err := EncodeRequest(&buf, q); err != nil {
			t.Fatalf("%s: encode: %v", q.Op, err)
		}
		got, err := DecodeRequest(&buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", q.Op, err)
		}
		if !reflect.DeepEqual(q, got) {
			t.Fatalf("%s: round-trip mismatch:\n got %+v\nwant %+v", q.Op, got, q)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []*Response{
		{Status: StatusOK},
		{Status: StatusOK, Data: []byte("plaintext")},
		{Status: StatusTampered, Data: []byte("core: integrity verification failed")},
		{Status: StatusTimeout, Data: []byte("context deadline exceeded")},
		{Status: StatusOverloaded, Data: []byte("server: 1024 requests in flight")},
		{Status: StatusQuarantined, Data: []byte("shard 1: quarantined (integrity)")},
		{Status: StatusSlowClient, Data: []byte("request frame not completed within 10s")},
	}
	for _, p := range cases {
		var buf bytes.Buffer
		if err := EncodeResponse(&buf, p); err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := DecodeResponse(&buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(p, got) {
			t.Fatalf("round-trip mismatch: got %+v want %+v", got, p)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	// Oversized frame length.
	big := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := DecodeRequest(bytes.NewReader(big)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Truncated header.
	var buf bytes.Buffer
	EncodeRequest(&buf, &Request{Op: OpRead})
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := DecodeRequest(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated frame accepted")
	}
	// Unknown op.
	body := make([]byte, reqHeaderLen)
	body[0] = 0xee
	var f bytes.Buffer
	writeFrame(&f, body)
	if _, err := DecodeRequest(&f); err == nil {
		t.Fatal("unknown op accepted")
	}
	// Short request body.
	var s bytes.Buffer
	writeFrame(&s, []byte{byte(OpRead), 0, 0})
	if _, err := DecodeRequest(&s); err == nil {
		t.Fatal("short body accepted")
	}
	// Empty response frame.
	var e bytes.Buffer
	writeFrame(&e, nil)
	if _, err := DecodeResponse(&e); err == nil {
		t.Fatal("empty response accepted")
	}
	// Legacy header without the trace field (8 bytes short).
	var l bytes.Buffer
	writeFrame(&l, append([]byte{byte(OpRead)}, make([]byte, reqHeaderLen-9)...))
	if _, err := DecodeRequest(&l); err == nil {
		t.Fatal("legacy trace-less header accepted")
	}
	// Legacy header without trace or deadline fields (12 bytes short).
	var l2 bytes.Buffer
	writeFrame(&l2, append([]byte{byte(OpRead)}, make([]byte, reqHeaderLen-13)...))
	if _, err := DecodeRequest(&l2); err == nil {
		t.Fatal("legacy deadline-less header accepted")
	}
}

func TestStatusRetryable(t *testing.T) {
	retryable := map[Status]bool{
		StatusTimeout:     true,
		StatusOverloaded:  true,
		StatusQuarantined: true,
	}
	for s := StatusOK; s <= StatusSlowClient; s++ {
		if got := s.Retryable(); got != retryable[s] {
			t.Errorf("%s.Retryable() = %v, want %v", s, got, retryable[s])
		}
	}
}

func TestImageRoundTrip(t *testing.T) {
	img := &core.PageImage{MACs: bytes.Repeat([]byte{7}, 16*layout.BlocksPerPage)}
	for i := range img.Data {
		for j := range img.Data[i] {
			img.Data[i][j] = byte(i + j)
		}
	}
	for j := range img.Counters {
		img.Counters[j] = byte(255 - j)
	}
	got, err := DecodeImage(EncodeImage(img))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(img, got) {
		t.Fatal("image round-trip mismatch")
	}
	if _, err := DecodeImage(EncodeImage(img)[:100]); err == nil {
		t.Fatal("truncated image accepted")
	}
	bad := EncodeImage(img)
	bad[layout.PageSize+layout.BlockSize]++ // corrupt the MAC length
	if _, err := DecodeImage(bad); err == nil {
		t.Fatal("inconsistent MAC length accepted")
	}
}
