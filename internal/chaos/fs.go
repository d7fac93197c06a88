// Package chaos is the fault-injection harness for the secure-memory
// service: it wraps the two untrusted substrates the paper's threat
// model and the durability layer depend on — off-chip physical memory
// (bit-flips, block rollback) and the backing filesystem (transient
// errors, torn writes, slow I/O) — and drives a live store through
// deterministic, seeded fault schedules while checking the service's
// three invariants: no acknowledged write is ever lost, no tampered
// data is ever served, and a fault in one shard never takes the others
// down. The in-process matrix test and cmd/chaos both build on it.
package chaos

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"time"

	"aisebmt/internal/persist"
)

// ErrInjected marks every filesystem fault this package injects, so
// tests can tell a scripted fault from a real one.
var ErrInjected = errors.New("chaos: injected I/O fault")

// FSFaults configures filesystem fault injection. Rates are
// probabilities in [0, 1] evaluated independently per operation.
type FSFaults struct {
	// PathSubstr limits injection to paths containing this substring
	// ("" hits everything). Targeting "wal-001" chaoses exactly one
	// shard's log — the fault-domain story depends on that precision.
	PathSubstr string
	// ErrRate is the probability a mutating operation fails cleanly
	// (transient device error; nothing was written).
	ErrRate float64
	// TornRate is the probability a write lands only a prefix before
	// failing — the classic torn write a power cut leaves behind.
	TornRate float64
	// SlowRate/SlowDelay stall operations without failing them.
	SlowRate  float64
	SlowDelay time.Duration
}

// FaultFS wraps a persist.FS with seeded fault injection. Reads are
// never injected (the scenarios disarm before repair runs, and clean
// reads keep the schedules deterministic); every mutating operation —
// create, rename, remove, directory sync, file write/truncate/sync —
// rolls against the armed FSFaults.
type FaultFS struct {
	base persist.FS

	mu       sync.Mutex
	rng      *rand.Rand
	f        FSFaults
	armed    bool
	injected uint64
	delayed  uint64
}

// WrapFS builds a FaultFS over base with a deterministic seed.
func WrapFS(base persist.FS, seed int64) *FaultFS {
	return &FaultFS{base: base, rng: rand.New(rand.NewSource(seed))}
}

// Arm installs a fault configuration; it replaces any previous one.
func (c *FaultFS) Arm(f FSFaults) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.f = f
	c.armed = true
}

// Disarm stops all injection (the device recovered).
func (c *FaultFS) Disarm() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed = false
}

// Injected returns how many operations failed by injection so far.
func (c *FaultFS) Injected() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.injected
}

// verdict is one dice roll's outcome for a mutating operation.
type verdict int

const (
	vOK verdict = iota
	vErr
	vTorn
)

// roll decides one mutating operation's fate and applies any slow-I/O
// delay before returning (outside the lock the delay would serialize).
func (c *FaultFS) roll(name string, canTear bool) verdict {
	c.mu.Lock()
	if !c.armed || (c.f.PathSubstr != "" && !strings.Contains(name, c.f.PathSubstr)) {
		c.mu.Unlock()
		return vOK
	}
	var delay time.Duration
	v := vOK
	switch {
	case canTear && c.rng.Float64() < c.f.TornRate:
		v = vTorn
		c.injected++
	case c.rng.Float64() < c.f.ErrRate:
		v = vErr
		c.injected++
	case c.rng.Float64() < c.f.SlowRate:
		delay = c.f.SlowDelay
		c.delayed++
	}
	c.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return v
}

func (c *FaultFS) MkdirAll(dir string) error { return c.base.MkdirAll(dir) }

func (c *FaultFS) Create(name string) (persist.File, error) {
	if c.roll(name, false) != vOK {
		return nil, ErrInjected
	}
	f, err := c.base.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: c, base: f, name: name}, nil
}

func (c *FaultFS) OpenFile(name string) (persist.File, error) {
	f, err := c.base.OpenFile(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: c, base: f, name: name}, nil
}

func (c *FaultFS) ReadFile(name string) ([]byte, error) { return c.base.ReadFile(name) }

func (c *FaultFS) Open(name string) (persist.ReadOnlyFile, int64, error) { return c.base.Open(name) }

func (c *FaultFS) Rename(oldname, newname string) error {
	if c.roll(newname, false) != vOK {
		return ErrInjected
	}
	return c.base.Rename(oldname, newname)
}

func (c *FaultFS) Remove(name string) error {
	if c.roll(name, false) != vOK {
		return ErrInjected
	}
	return c.base.Remove(name)
}

func (c *FaultFS) ReadDir(dir string) ([]string, error) { return c.base.ReadDir(dir) }

func (c *FaultFS) SyncDir(dir string) error {
	if c.roll(dir, false) != vOK {
		return ErrInjected
	}
	return c.base.SyncDir(dir)
}

// faultFile injects faults on a handle's mutating operations.
type faultFile struct {
	fs   *FaultFS
	base persist.File
	name string
}

func (h *faultFile) Write(p []byte) (int, error) {
	switch h.fs.roll(h.name, true) {
	case vErr:
		return 0, ErrInjected
	case vTorn:
		n, _ := h.base.Write(p[:len(p)/2])
		return n, ErrInjected
	}
	return h.base.Write(p)
}

func (h *faultFile) WriteAt(p []byte, off int64) (int, error) {
	switch h.fs.roll(h.name, true) {
	case vErr:
		return 0, ErrInjected
	case vTorn:
		n, _ := h.base.WriteAt(p[:len(p)/2], off)
		return n, ErrInjected
	}
	return h.base.WriteAt(p, off)
}

func (h *faultFile) Truncate(size int64) error {
	if h.fs.roll(h.name, false) != vOK {
		return ErrInjected
	}
	return h.base.Truncate(size)
}

func (h *faultFile) Sync() error {
	if h.fs.roll(h.name, false) != vOK {
		return ErrInjected
	}
	return h.base.Sync()
}

func (h *faultFile) Close() error { return h.base.Close() }
