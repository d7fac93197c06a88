package history

import (
	"errors"
	"strings"
	"testing"
)

func val(b byte) []byte { return []byte{b, b, b, b} }

// TestAccepts: histories the register model must accept.
func TestAccepts(t *testing.T) {
	// A failed write may surface, and so may the value it would have
	// replaced.
	m := New[int]()
	m.Ack(1, val(1))
	m.Fail(1, val(2))
	for _, got := range [][]byte{val(1), val(2)} {
		if err := m.Check(1, got); err != nil {
			t.Errorf("failed write: read %x rejected: %v", got, err)
		}
	}
	// A key never acked may read back zeros or any failed value.
	m.Fail(2, val(3))
	m.Fail(2, val(4))
	for _, got := range [][]byte{make([]byte, 4), val(3), val(4)} {
		if err := m.Check(2, got); err != nil {
			t.Errorf("never-acked key: read %x rejected: %v", got, err)
		}
	}
	// A key the history never saw constrains nothing.
	if err := m.Check(9, val(9)); err != nil {
		t.Errorf("unwritten key: %v", err)
	}
	// A fork starts from its parent's entries and diverges on its own.
	child := m.Clone()
	child.Ack(1, val(5))
	if err := child.Check(1, val(5)); err != nil {
		t.Errorf("fork's own write rejected: %v", err)
	}
	if err := child.Check(2, val(3)); err != nil {
		t.Errorf("fork lost its parent's candidates: %v", err)
	}
	if err := m.Check(1, val(1)); err != nil {
		t.Errorf("parent saw the fork's write: %v", err)
	}
	if !child.Has(2) || child.Has(9) {
		t.Error("fork's keys differ from its parent's")
	}
}

// TestRejects: histories the register model must reject.
func TestRejects(t *testing.T) {
	cases := []struct {
		name string
		hist func(m *Model[int])
		read []byte
	}{
		{"lost acked value", func(m *Model[int]) { m.Ack(1, val(1)) }, make([]byte, 4)},
		{"value never written", func(m *Model[int]) { m.Ack(1, val(1)); m.Fail(1, val(2)) }, val(3)},
		{"value older than the last ack", func(m *Model[int]) { m.Ack(1, val(1)); m.Ack(1, val(2)) }, val(1)},
		{"failed value after a later ack", func(m *Model[int]) { m.Fail(1, val(1)); m.Ack(1, val(2)) }, val(1)},
		{"zeros after an ack", func(m *Model[int]) { m.Fail(1, val(1)); m.Ack(1, val(2)) }, make([]byte, 4)},
	}
	for _, c := range cases {
		m := New[int]()
		c.hist(m)
		if err := m.Check(1, c.read); err == nil || !strings.Contains(err.Error(), "ACKED-WRITE LOSS") {
			t.Errorf("%s: read %x accepted (err %v)", c.name, c.read, err)
		}
	}
}

// TestVerify reads every key in first-write order and stops at the first
// bad read or read error.
func TestVerify(t *testing.T) {
	m := New[int]()
	for _, k := range []int{3, 1, 2} {
		m.Ack(k, val(byte(k)))
	}
	var order []int
	store := map[int][]byte{1: val(1), 2: val(2), 3: val(3)}
	read := func(k int) ([]byte, error) { order = append(order, k); return store[k], nil }
	if n, err := m.Verify(read); n != 3 || err != nil {
		t.Fatalf("Verify = %d, %v", n, err)
	}
	if order[0] != 3 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("read order %v, want first-write order [3 1 2]", order)
	}
	store[1] = val(7)
	if n, err := m.Verify(read); n != 1 || err == nil {
		t.Fatalf("Verify over a lost write = %d, %v", n, err)
	}
	boom := errors.New("boom")
	if _, err := m.Verify(func(int) ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("Verify read error = %v", err)
	}
}

// TestOwnCopies: the model keeps its own copy of every value, so a caller
// reusing its write buffer cannot rewrite history.
func TestOwnCopies(t *testing.T) {
	m := New[int]()
	buf := val(1)
	m.Ack(1, buf)
	buf[0] = 9
	if err := m.Check(1, val(1)); err != nil {
		t.Fatal(err)
	}
}
