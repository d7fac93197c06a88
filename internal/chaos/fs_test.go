package chaos

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"time"

	"aisebmt/internal/persist"
)

// errInjected marks every filesystem fault this package injects, so
// tests can tell a scripted fault from a real one.
var errInjected = errors.New("chaos: injected I/O fault")

// fsFaults configures filesystem fault injection. Rates are
// probabilities in [0, 1] evaluated independently per operation.
type fsFaults struct {
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

// faultFS wraps the OS filesystem with seeded fault injection. Reads are
// never injected (the scenarios disarm before repair runs, and clean
// reads keep the schedules deterministic); every mutating operation —
// create, rename, remove, directory sync, file write/truncate/sync —
// rolls against the armed fsFaults.
type faultFS struct {
	base persist.FS

	mu        sync.Mutex
	rng       *rand.Rand
	f         fsFaults
	armed     bool
	nInjected uint64
}

// wrapFS builds a faultFS over the OS filesystem with a deterministic
// seed.
func wrapFS(seed int64) *faultFS {
	return &faultFS{base: persist.OSFS(), rng: rand.New(rand.NewSource(seed))}
}

// arm installs a fault configuration; it replaces any previous one.
func (c *faultFS) arm(f fsFaults) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.f = f
	c.armed = true
}

// disarm stops all injection (the device recovered).
func (c *faultFS) disarm() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed = false
}

// injected returns how many operations failed by injection so far.
func (c *faultFS) injected() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nInjected
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
func (c *faultFS) roll(name string, canTear bool) verdict {
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
		c.nInjected++
	case c.rng.Float64() < c.f.ErrRate:
		v = vErr
		c.nInjected++
	case c.rng.Float64() < c.f.SlowRate:
		delay = c.f.SlowDelay
	}
	c.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return v
}

func (c *faultFS) MkdirAll(dir string) error { return c.base.MkdirAll(dir) }

func (c *faultFS) Create(name string) (persist.File, error) {
	if c.roll(name, false) != vOK {
		return nil, errInjected
	}
	f, err := c.base.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: c, base: f, name: name}, nil
}

func (c *faultFS) OpenFile(name string) (persist.File, error) {
	f, err := c.base.OpenFile(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: c, base: f, name: name}, nil
}

func (c *faultFS) ReadFile(name string) ([]byte, error) { return c.base.ReadFile(name) }

func (c *faultFS) Open(name string) (persist.ReadOnlyFile, int64, error) { return c.base.Open(name) }

func (c *faultFS) Rename(oldname, newname string) error {
	if c.roll(newname, false) != vOK {
		return errInjected
	}
	return c.base.Rename(oldname, newname)
}

func (c *faultFS) Remove(name string) error {
	if c.roll(name, false) != vOK {
		return errInjected
	}
	return c.base.Remove(name)
}

func (c *faultFS) ReadDir(dir string) ([]string, error) { return c.base.ReadDir(dir) }

func (c *faultFS) SyncDir(dir string) error {
	if c.roll(dir, false) != vOK {
		return errInjected
	}
	return c.base.SyncDir(dir)
}

// faultFile injects faults on a handle's mutating operations.
type faultFile struct {
	fs   *faultFS
	base persist.File
	name string
}

func (h *faultFile) Write(p []byte) (int, error) {
	switch h.fs.roll(h.name, true) {
	case vErr:
		return 0, errInjected
	case vTorn:
		n, _ := h.base.Write(p[:len(p)/2])
		return n, errInjected
	}
	return h.base.Write(p)
}

func (h *faultFile) WriteAt(p []byte, off int64) (int, error) {
	switch h.fs.roll(h.name, true) {
	case vErr:
		return 0, errInjected
	case vTorn:
		n, _ := h.base.WriteAt(p[:len(p)/2], off)
		return n, errInjected
	}
	return h.base.WriteAt(p, off)
}

func (h *faultFile) Truncate(size int64) error {
	if h.fs.roll(h.name, false) != vOK {
		return errInjected
	}
	return h.base.Truncate(size)
}

func (h *faultFile) Sync() error {
	if h.fs.roll(h.name, false) != vOK {
		return errInjected
	}
	return h.base.Sync()
}

func (h *faultFile) Close() error { return h.base.Close() }
