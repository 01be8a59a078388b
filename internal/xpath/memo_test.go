package xpath

import (
	"context"
	"testing"
)

// TestMemoIDsAreStructural: equal subtrees intern to one id within and
// across calls, distinct ones to distinct ids, and a Qualified node's
// ε[q] is the same subtree as a parsed ".[q]".
func TestMemoIDsAreStructural(t *testing.T) {
	m := NewMemo()
	id := func(q string) NodeID {
		m.Begin(context.Background())
		return m.Node(m.Intern(MustParse(q))).ID
	}
	a := id(`//patient[name = "x"]/name`)
	if b := id(`//patient[name = "x"]/name`); a != b {
		t.Errorf("equal queries interned to %d and %d", a, b)
	}
	if b := id(`//patient[name = "y"]/name`); a == b {
		t.Errorf("queries differing in a constant share id %d", a)
	}
	if b := id(`//patient[name = $x]/name`); a == b {
		t.Errorf("a constant and a variable share id %d", a)
	}
	m.Begin(context.Background())
	i := m.Intern(MustParse(`patient[name]`))
	sq := m.Node(m.SelfQual(i)).ID
	if want := m.Node(m.Intern(MustParse(`.[name]`))).ID; sq != want {
		t.Errorf("ε[q] of p[q] has id %d, .[q] has %d", sq, want)
	}
	if m.SelfQual(i) != m.SelfQual(i) {
		t.Errorf("SelfQual is not cached within a call")
	}
}

// TestMemoGenerations: the current generation never exceeds
// MemoBudget, so the memo never holds more than twice it; a hit in the
// old generation promotes the cell, and the flip after that drops only
// the cells not hit in between.
func TestMemoGenerations(t *testing.T) {
	m := NewMemo()
	m.Begin(context.Background())
	s := m.State("a")
	store := func(id NodeID) { m.Store(id, s, Cell{{State: s, Plan: Self{}}}) }
	for id := NodeID(1); id <= MemoBudget; id++ {
		store(id)
	}
	if n := m.Len(); n != MemoBudget {
		t.Fatalf("after one flip: %d live cells, want %d", n, MemoBudget)
	}
	if _, ok := m.Cell(1, s); !ok {
		t.Fatal("cell 1 lost at the first flip")
	}
	for id := NodeID(MemoBudget + 1); id < 2*MemoBudget; id++ {
		store(id)
		if n := m.Len(); n > 2*MemoBudget {
			t.Fatalf("%d live cells, bound %d", n, 2*MemoBudget)
		}
	}
	// The second flip dropped the first generation except cell 1,
	// which its hit promoted.
	if _, ok := m.Cell(1, s); !ok {
		t.Error("promoted cell 1 dropped")
	}
	if _, ok := m.Cell(2, s); ok {
		t.Error("cell 2 survived two flips without a hit")
	}
}

// TestMemoIDResetClearsTable: once the id counter reaches idReset, the
// next call starts an empty table, so no id is ever issued twice while
// a cell keyed on it survives.
func TestMemoIDResetClearsTable(t *testing.T) {
	m := NewMemo()
	m.Begin(context.Background())
	id := m.Node(m.Intern(MustParse(`a/b`))).ID
	s := m.State("a")
	m.Store(id, s, Cell{{State: s, Plan: Self{}}})
	m.next = idReset
	m.Begin(context.Background())
	if m.Len() != 0 {
		t.Fatalf("%d cells survived the id reset", m.Len())
	}
	if got := m.Node(m.Intern(MustParse(`a/b`))).ID; got > 3 {
		t.Errorf("first ids after the reset reach %d", got)
	}
}
