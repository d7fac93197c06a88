// Package history checks what a client may read back from the service:
// the per-key register model every acked-write test shares. An
// acknowledged write fixes a key's value; a write that failed, or whose
// outcome was lost in flight, may or may not have landed. So each key
// keeps a set of candidate values:
//
//   - an acked write replaces the key's candidates with its value;
//   - a failed or in-flight write joins them as one more candidate;
//   - a key whose every write failed may also read back zeros;
//   - a read must return one of the key's candidates.
//
// Anything else is an acknowledged write lost, or data nobody wrote. Only
// tests import this package.
package history

import (
	"bytes"
	"fmt"
)

// Model is one register history over keys of type K. Recording (Ack,
// Fail) must not overlap any other call; checking (Check, Verify) may run
// concurrently. Give each concurrent writer its own history.
type Model[K comparable] struct {
	cands map[K][][]byte
	keys  []K // first-write order, so Verify reads in a fixed order
}

// New returns an empty history.
func New[K comparable]() *Model[K] {
	return &Model[K]{cands: map[K][][]byte{}}
}

func (m *Model[K]) note(k K) {
	if _, ok := m.cands[k]; !ok {
		m.keys = append(m.keys, k)
	}
}

// Ack records an acknowledged write of val to k. The model keeps its own
// copy of val.
func (m *Model[K]) Ack(k K, val []byte) {
	m.note(k)
	m.cands[k] = [][]byte{bytes.Clone(val)}
}

// Fail records a write of val to k that failed or whose outcome is
// unknown: val may surface, and so may whatever k held before.
func (m *Model[K]) Fail(k K, val []byte) {
	m.note(k)
	if len(m.cands[k]) == 0 {
		m.cands[k] = [][]byte{make([]byte, len(val))} // never applied: zeros
	}
	m.cands[k] = append(m.cands[k], bytes.Clone(val))
}

// Has reports whether the history has seen a write to k.
func (m *Model[K]) Has(k K) bool {
	_, ok := m.cands[k]
	return ok
}

// Check returns an error unless got is a legal read of k. The history
// says nothing about a key it never saw written, so any read of one is
// legal.
func (m *Model[K]) Check(k K, got []byte) error {
	cands, ok := m.cands[k]
	if !ok {
		return nil
	}
	for _, c := range cands {
		if bytes.Equal(got, c) {
			return nil
		}
	}
	return fmt.Errorf("ACKED-WRITE LOSS at %v: read %x, want one of %d candidate(s), acked %x",
		k, got, len(cands), cands[0])
}

// Verify reads back every key written, in first-write order, and checks
// each value. It returns the number of keys read and the first read error
// or illegal value.
func (m *Model[K]) Verify(read func(K) ([]byte, error)) (int, error) {
	for i, k := range m.keys {
		got, err := read(k)
		if err != nil {
			return i, fmt.Errorf("read %v: %w", k, err)
		}
		if err := m.Check(k, got); err != nil {
			return i, err
		}
	}
	return len(m.keys), nil
}

// Clone returns an independent copy: a forked address space starts with
// its parent's history and diverges from there.
func (m *Model[K]) Clone() *Model[K] {
	c := &Model[K]{cands: make(map[K][][]byte, len(m.cands)), keys: append([]K(nil), m.keys...)}
	for k, v := range m.cands {
		c.cands[k] = append([][]byte(nil), v...)
	}
	return c
}
