package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
	"aisebmt/internal/server"
	"aisebmt/internal/shard"
	"aisebmt/internal/tenant"
)

// class is the kind of wire request a timing belongs to. A fork cycle is
// four requests, each timed under its own class so the read and write
// classes stay pure (plain TenantRead/TenantWrite on the tenant workload).
type class uint8

const (
	clsRead class = iota
	clsWrite
	clsFork
	clsCowWrite
	clsCowRead
	clsDestroy
	clsCheckpoint
	nClasses
)

var classNames = [nClasses]string{"read", "write", "fork", "cow_write", "cow_read", "destroy", "checkpoint"}

// target is a stack the op stream can be replayed against: the wire client
// in e2e runs, and each rung of the ladder in traced runs.
type target interface {
	read(o op) ([]byte, error)
	write(o op, data []byte) error
}

// forkTarget is a target that also serves the fork cycle's tenant ops.
type forkTarget interface {
	target
	tenantOps
	parentOf(o op) uint32
	vaddrOf(o op) uint64
}

// checkpointTarget is a target that can cut a checkpoint on request.
type checkpointTarget interface {
	checkpoint() error
}

// tenantOps is the slice of the tenant API the harness drives; the wire
// client and the in-process tenant.Service both satisfy it via adapters.
type tenantOps interface {
	tRead(id uint32, vaddr uint64, n int) ([]byte, error)
	tWrite(id uint32, vaddr uint64, data []byte) error
	tFork(id uint32) (uint32, error)
	tDestroy(id uint32) error
}

var errMismatch = errors.New("bench: reply differs from shadow")

// wireFlat drives the flat keyspace through server.Client.
type wireFlat struct{ c *server.Client }

func (t wireFlat) read(o op) ([]byte, error) {
	return t.c.Read(layout.Addr(uint64(o.unit)*pageSize+uint64(o.off)), int(o.n), core.Meta{})
}
func (t wireFlat) write(o op, data []byte) error {
	return t.c.Write(layout.Addr(uint64(o.unit)*pageSize+uint64(o.off)), data, core.Meta{})
}
func (t wireFlat) checkpoint() error { return t.c.Hibernate() }

// wireTenantOps adapts server.Client to tenantOps.
type wireTenantOps struct{ c *server.Client }

func (t wireTenantOps) tRead(id uint32, va uint64, n int) ([]byte, error) {
	return t.c.TenantRead(id, va, n)
}
func (t wireTenantOps) tWrite(id uint32, va uint64, d []byte) error {
	return t.c.TenantWrite(id, va, d)
}
func (t wireTenantOps) tFork(id uint32) (uint32, error) { return t.c.TenantFork(id) }
func (t wireTenantOps) tDestroy(id uint32) error        { return t.c.TenantDestroy(id) }
func (t wireTenantOps) checkpoint() error               { return t.c.Hibernate() }

// svcTenantOps adapts an in-process tenant.Service to tenantOps.
type svcTenantOps struct{ s *tenant.Service }

func (t svcTenantOps) tRead(id uint32, va uint64, n int) ([]byte, error) {
	return t.s.Read(context.Background(), id, va, n, 0)
}
func (t svcTenantOps) tWrite(id uint32, va uint64, d []byte) error {
	return t.s.Write(context.Background(), id, va, d, 0)
}
func (t svcTenantOps) tFork(id uint32) (uint32, error) { return t.s.Fork(context.Background(), id, 0) }
func (t svcTenantOps) tDestroy(id uint32) error        { return t.s.Destroy(context.Background(), id, 0) }

// tenantTarget maps shadow units onto (tenant, vaddr) and serves them
// through any tenantOps.
type tenantTarget struct {
	tenantOps
	ids []uint32
	ppt int
}

func (t *tenantTarget) parentOf(o op) uint32 { return t.ids[int(o.unit)/t.ppt] }
func (t *tenantTarget) vaddrOf(o op) uint64 {
	return uint64(int(o.unit)%t.ppt)*pageSize + uint64(o.off)
}
func (t *tenantTarget) read(o op) ([]byte, error) {
	return t.tRead(t.parentOf(o), t.vaddrOf(o), int(o.n))
}
func (t *tenantTarget) write(o op, data []byte) error {
	return t.tWrite(t.parentOf(o), t.vaddrOf(o), data)
}
func (t *tenantTarget) checkpoint() error {
	if c, ok := t.tenantOps.(checkpointTarget); ok {
		return c.checkpoint()
	}
	return nil
}

// poolTarget drives a shard.Pool in-process (the shard and persist rungs).
type poolTarget struct{ p *shard.Pool }

func (t poolTarget) read(o op) ([]byte, error) {
	buf := make([]byte, o.n)
	err := t.p.Read(context.Background(), layout.Addr(uint64(o.unit)*pageSize+uint64(o.off)), buf, core.Meta{})
	return buf, err
}
func (t poolTarget) write(o op, data []byte) error {
	return t.p.Write(context.Background(), layout.Addr(uint64(o.unit)*pageSize+uint64(o.off)), data, core.Meta{})
}

// coreTarget drives bare controllers laid out as the pool lays its shards
// out (page k of shard s is pool page k*shards+s), bracketing each write
// with the tree batch window the shard worker opens around a batch.
type coreTarget struct{ sms []*core.SecureMemory }

func (t coreTarget) locate(o op) (*core.SecureMemory, layout.Addr) {
	n := uint64(len(t.sms))
	page := uint64(o.unit)
	return t.sms[page%n], layout.Addr(page/n*pageSize + uint64(o.off))
}
func (t coreTarget) read(o op) ([]byte, error) {
	sm, a := t.locate(o)
	buf := make([]byte, o.n)
	sm.BeginTreeBatch()
	err := sm.Read(a, buf, core.Meta{})
	if eerr := sm.EndTreeBatch(); err == nil {
		err = eerr
	}
	return buf, err
}
func (t coreTarget) write(o op, data []byte) error {
	sm, a := t.locate(o)
	sm.BeginTreeBatch()
	err := sm.Write(a, data, core.Meta{})
	if eerr := sm.EndTreeBatch(); err == nil {
		err = eerr
	}
	return err
}

// observer receives one timing per completed request.
type observer func(c class, o op, start, end time.Time, err error)

// conn executes ops against one target, keeping the shadow current and
// checking every reply against it. Write payloads derive from key and the
// op's seq, so replaying an op list rewrites the same bytes.
type conn struct {
	t   target
	sh  *shadow
	key uint64
	buf []byte
}

func newConn(t target, sh *shadow, key uint64) *conn {
	return &conn{t: t, sh: sh, key: key, buf: make([]byte, pageSize)}
}

// do executes o and reports each wire request it made to obs. Ops the
// target cannot serve (fork cycles and checkpoints below the layer that
// implements them) are skipped silently so lower rungs replay the rest of
// the same stream.
func (c *conn) do(o op, obs observer) {
	switch o.kind {
	case opRead:
		start := time.Now()
		got, err := c.t.read(o)
		end := time.Now()
		if err == nil && !c.sh.check(o, got) {
			err = errMismatch
		}
		obs(clsRead, o, start, end, err)
	case opWrite:
		data := c.buf[:o.n]
		fillPayload(data, c.key, o.seq)
		start := time.Now()
		err := c.t.write(o, data)
		end := time.Now()
		if err == nil {
			c.sh.apply(o, data)
		}
		obs(clsWrite, o, start, end, err)
	case opFork:
		if ft, ok := c.t.(forkTarget); ok {
			c.forkCycle(ft, o, obs)
		}
	case opCheckpoint:
		if ct, ok := c.t.(checkpointTarget); ok {
			start := time.Now()
			err := ct.checkpoint()
			obs(clsCheckpoint, o, start, time.Now(), err)
		}
	}
}

// forkCycle is the paper's OS-friendly path under load: fork a tenant
// (every page goes copy-on-write), write one page of the child (the COW
// break re-encrypts a private copy under a fresh LPID), read the whole
// page back (new bytes over the parent's image), destroy the child. The
// parent's shadow is untouched; later plain reads prove the break did not
// leak into it.
func (c *conn) forkCycle(ft forkTarget, o op, obs observer) {
	parent, va := ft.parentOf(o), ft.vaddrOf(o)
	start := time.Now()
	child, err := ft.tFork(parent)
	obs(clsFork, o, start, time.Now(), err)
	if err != nil {
		return
	}
	data := c.buf[:o.n]
	fillPayload(data, c.key, o.seq)
	start = time.Now()
	err = ft.tWrite(child, va, data)
	obs(clsCowWrite, o, start, time.Now(), err)

	pageVA := va - uint64(o.off)
	start = time.Now()
	got, rerr := ft.tRead(child, pageVA, pageSize)
	end := time.Now()
	if rerr == nil && err == nil {
		want := append([]byte(nil), c.sh.mem[int(o.unit)*pageSize:(int(o.unit)+1)*pageSize]...)
		copy(want[o.off:], data)
		if !bytes.Equal(got, want) {
			rerr = errMismatch
		}
	}
	obs(clsCowRead, o, start, end, rerr)

	start = time.Now()
	err = ft.tDestroy(child)
	obs(clsDestroy, o, start, time.Now(), err)
}

// prefill writes every unit owned by (conn, nconn) with one shadowed 4KiB
// write, so no later read is served from a vacant (never-initialised) page.
func prefill(t target, sh *shadow, w *workload, seed int64, conn, nconn int) error {
	buf := make([]byte, pageSize)
	for u := conn; u < w.units(); u += nconn {
		o := op{kind: opWrite, unit: uint32(u), n: pageSize}
		fillPayload(buf, prefillKey(seed), uint64(u))
		if err := t.write(o, buf); err != nil {
			return fmt.Errorf("prefill unit %d: %w", u, err)
		}
		sh.apply(o, buf)
	}
	return nil
}
