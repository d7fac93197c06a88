package persist

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// crashFS is an in-memory FS that models power loss, which a SIGKILL'd
// process on a real filesystem cannot (the page cache survives the
// process): Crash() drops every write since each file's last Sync and
// reverts every directory operation since the last SyncDir; writeback()
// instead keeps a random prefix of each file's unsynced writes, the way
// page-cache writeback reaches the disk file by file in no particular
// order. It also injects faults: after failAfter mutating operations every
// call fails, simulating the instant the power went out mid-sequence.
type crashFS struct {
	mu      sync.Mutex
	files   map[string]*memFile
	journal []func() // revert actions for un-synced directory ops, newest last
	gen     int      // bumped by writeback: handles of the dead process stop working

	failAfter  int    // countdown of mutating ops; <0 disables injection
	failOnce   bool   // fail only the op that trips failAfter, then recover
	failSubstr string // when non-empty, every op on a matching path fails
	failed     bool
}

var errInjected = errors.New("crashfs: injected power failure")

type memFile struct {
	data    []byte
	synced  []byte
	pending []func([]byte) []byte // unsynced writes and truncations, oldest first
}

// note records an unsynced mutation of f; callers hold the FS mutex.
func (f *memFile) note(op func([]byte) []byte) {
	f.data = op(f.data)
	f.pending = append(f.pending, op)
}

func newCrashFS() *crashFS {
	return &crashFS{files: make(map[string]*memFile), failAfter: -1}
}

// armFail makes the n-th mutating operation from now (1-based) and every
// operation after it fail.
func (c *crashFS) armFail(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failAfter = n
	c.failOnce = false
	c.failed = false
}

// armFailOnce makes only the n-th mutating operation from now fail — a
// transient I/O error, not a power loss: later operations succeed.
func (c *crashFS) armFailOnce(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failAfter = n
	c.failOnce = true
	c.failed = false
}

// armFailPath makes every mutating operation on a path containing substr
// fail (a device that lost one file but not the rest).
func (c *crashFS) armFailPath(substr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failSubstr = substr
}

// disarm clears every armed fault without applying the loss model — the
// device recovered while the process kept running.
func (c *crashFS) disarm() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failAfter = -1
	c.failOnce = false
	c.failSubstr = ""
	c.failed = false
}

// crash applies the loss model and clears the fault so recovery can run.
func (c *crashFS) crash() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.journal) - 1; i >= 0; i-- {
		c.journal[i]()
	}
	c.journal = nil
	for _, f := range c.files {
		f.data = append([]byte(nil), f.synced...)
		f.pending = nil
	}
	c.failAfter = -1
	c.failOnce = false
	c.failSubstr = ""
	c.failed = false
}

// writeback is a power cut under independent page-cache writeback: every
// file keeps a seeded random prefix of its unsynced writes (files are
// visited in name order, so a seed always cuts the same way), un-synced
// directory operations are reverted, and every handle open until now goes
// dead — the process that held them is gone. Half the files keep none or
// all of their writes, the extremes where one log outruns another most.
// It returns how many unsynced writes were dropped.
func (c *crashFS) writeback(seed int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.journal) - 1; i >= 0; i-- {
		c.journal[i]()
	}
	c.journal = nil
	names := make([]string, 0, len(c.files))
	for n := range c.files {
		names = append(names, n)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(seed))
	dropped := 0
	for _, n := range names {
		f := c.files[n]
		keep := 0
		switch rng.Intn(4) {
		case 0:
		case 1:
			keep = len(f.pending)
		default:
			keep = rng.Intn(len(f.pending) + 1)
		}
		dropped += len(f.pending) - keep
		f.data = append([]byte(nil), f.synced...)
		for _, op := range f.pending[:keep] {
			f.data = op(f.data)
		}
		f.synced = append([]byte(nil), f.data...)
		f.pending = nil
	}
	c.gen++
	c.failAfter = -1
	c.failOnce = false
	c.failSubstr = ""
	c.failed = false
	return dropped
}

// tick counts one mutating op on name against the fault budget; callers
// hold mu.
func (c *crashFS) tick(name string) error {
	if c.failSubstr != "" && strings.Contains(name, c.failSubstr) {
		return errInjected
	}
	if c.failed {
		return errInjected
	}
	if c.failAfter > 0 {
		c.failAfter--
		if c.failAfter == 0 {
			if c.failOnce {
				c.failOnce = false
				return errInjected
			}
			c.failed = true
			return errInjected
		}
	}
	return nil
}

func (c *crashFS) MkdirAll(string) error { return nil }

func (c *crashFS) Create(name string) (File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.tick(name); err != nil {
		return nil, err
	}
	f, ok := c.files[name]
	if ok {
		f.note(func([]byte) []byte { return nil }) // truncate in place; synced content survives a crash
	} else {
		f = &memFile{}
		c.files[name] = f
		c.journal = append(c.journal, func() { delete(c.files, name) })
	}
	return &memHandle{fs: c, f: f, name: name, gen: c.gen}, nil
}

func (c *crashFS) OpenFile(name string) (File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[name]
	if !ok {
		return nil, fmt.Errorf("crashfs: open %s: %w", name, fs.ErrNotExist)
	}
	return &memHandle{fs: c, f: f, name: name, gen: c.gen}, nil
}

func (c *crashFS) ReadFile(name string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[name]
	if !ok {
		return nil, fmt.Errorf("crashfs: read %s: %w", name, fs.ErrNotExist)
	}
	return append([]byte(nil), f.data...), nil
}

// Open reads the file's content as of the call; nothing the layer opens
// for reading is written while it is open.
func (c *crashFS) Open(name string) (ReadOnlyFile, int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[name]
	if !ok {
		return nil, 0, fmt.Errorf("crashfs: open %s: %w", name, fs.ErrNotExist)
	}
	return readOnly{bytes.NewReader(f.data)}, int64(len(f.data)), nil
}

// readOnly is an in-memory ReadOnlyFile.
type readOnly struct{ *bytes.Reader }

func (readOnly) Close() error { return nil }

func (c *crashFS) Rename(oldname, newname string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.tick(newname); err != nil {
		return err
	}
	f, ok := c.files[oldname]
	if !ok {
		return fmt.Errorf("crashfs: rename %s: %w", oldname, fs.ErrNotExist)
	}
	prev, hadPrev := c.files[newname]
	delete(c.files, oldname)
	c.files[newname] = f
	c.journal = append(c.journal, func() {
		c.files[oldname] = f
		if hadPrev {
			c.files[newname] = prev
		} else {
			delete(c.files, newname)
		}
	})
	return nil
}

func (c *crashFS) Remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.tick(name); err != nil {
		return err
	}
	f, ok := c.files[name]
	if !ok {
		return fmt.Errorf("crashfs: remove %s: %w", name, fs.ErrNotExist)
	}
	delete(c.files, name)
	c.journal = append(c.journal, func() { c.files[name] = f })
	return nil
}

func (c *crashFS) ReadDir(dir string) ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var names []string
	for n := range c.files {
		if filepath.Dir(n) == filepath.Clean(dir) {
			names = append(names, filepath.Base(n))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (c *crashFS) SyncDir(dir string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.tick(dir); err != nil {
		return err
	}
	c.journal = nil // directory entries are durable now
	return nil
}

// mutate edits a file's current content in place (tamper simulation).
func (c *crashFS) mutate(name string, fn func([]byte) []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[name]
	if !ok {
		panic("crashfs: mutate missing " + name)
	}
	f.data = fn(append([]byte(nil), f.data...))
	f.synced = append([]byte(nil), f.data...)
	f.pending = nil
}

// memHandle is an open file; Write appends at the handle's own position.
type memHandle struct {
	fs   *crashFS
	f    *memFile
	name string
	pos  int64
	gen  int // the FS generation it was opened in (see writeback)
}

// tick is crashFS.tick for an operation through h, which fails once the
// process that opened h has been power-cut away. Callers hold the FS mutex.
func (h *memHandle) tick() error {
	if h.gen != h.fs.gen {
		return errInjected
	}
	return h.fs.tick(h.name)
}

func (h *memHandle) Write(p []byte) (int, error) {
	n, err := h.WriteAt(p, h.pos)
	h.pos += int64(n)
	return n, err
}

func (h *memHandle) WriteAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.tick(); err != nil {
		return 0, err
	}
	p = append([]byte(nil), p...)
	h.f.note(func(b []byte) []byte {
		if need := off + int64(len(p)); int64(len(b)) < need {
			b = append(b, make([]byte, need-int64(len(b)))...)
		}
		copy(b[off:], p)
		return b
	})
	return len(p), nil
}

func (h *memHandle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.tick(); err != nil {
		return err
	}
	h.f.note(func(b []byte) []byte {
		if int64(len(b)) > size {
			return b[:size]
		}
		return append(b, make([]byte, size-int64(len(b)))...)
	})
	return nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.tick(); err != nil {
		return err
	}
	h.f.synced = append([]byte(nil), h.f.data...)
	h.f.pending = nil
	return nil
}

func (h *memHandle) Close() error { return nil }

// clone returns an independent copy of the durable state, for running two
// recoveries over the same post-crash disk. Call it after crash():
// unsynced writes and directory operations are not copied.
func (c *crashFS) clone() *crashFS {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := newCrashFS()
	for name, f := range c.files {
		out.files[name] = &memFile{data: append([]byte(nil), f.synced...), synced: append([]byte(nil), f.synced...)}
	}
	return out
}
