package xpath

import (
	"context"
	"time"
)

// This file is the shared dynamic-programming table behind Algorithm
// rewrite (Fig. 6) and Algorithm optimize (Fig. 10). Both are DPs over
// (sub-query, type) cells. A Memo gives every distinct subtree it sees
// an integer id, so a cell key is the 8-byte pair (subtree id, state)
// rather than the subtree itself, and hashing a key no longer walks the
// query. Ids are assigned from flat keys — kind, name/value strings and
// child ids — in one bottom-up pass per call, only increase, and are
// never reused, so equal ids always mean equal trees.
//
// The table is bounded. Cells and ids live in two generations: a hit in
// the old generation promotes the entry to the current one, and when
// the current generation reaches MemoBudget entries the old one is
// dropped and the current one becomes old. Dropping is always safe: a
// cell is a pure function of (subtree, state, owner), so a dropped cell
// is recomputed, and a dropped id is reassigned a fresh one, on which
// no stale cell can hit.

// MemoBudget is the number of cells (and, separately, interned
// subtrees) one generation of a Memo holds before it flips, so a Memo
// keeps at most twice this many live. It is sized so a plan-cache-
// missing stream of a few thousand small queries does not flip: the
// bound is for long-running servers, not for the common case.
const MemoBudget = 1 << 16

// pollEvery is how many cells a Memo computes between checks of the
// call's context.
const pollEvery = 16

// PlanGrace is how long past its context's deadline (or, without a
// deadline, past the first poll that sees the context done) a call may
// still run. A plan that small finishes and is memoized, so a retry of a
// request whose evaluation the deadline cut off pays only evaluation; a
// plan that needs longer is abandoned within PlanGrace plus one poll
// interval of the deadline.
const PlanGrace = 50 * time.Millisecond

// NodeID names one distinct subtree of a Memo.
type NodeID uint32

// idReset is the id count at which Begin clears the whole Memo and
// numbers from 1 again, so ids never wrap around and collide: no call
// can intern anywhere near 2³¹ subtrees, and between calls no tree
// holds an id.
const idReset = 1 << 31

// TreeNode is one subtree of the query a Memo call interned: exactly one
// of Path and Qual is set, and L/R index the children in the call's
// tree (-1 when absent). Qualified nodes keep their path in L and their
// qualifier in R; QPath and QEq keep their path in L.
type TreeNode struct {
	ID   NodeID
	L, R int32
	Path Path
	Qual Qual
	// selfQual caches SelfQual's node for a Qualified node (0: none yet;
	// index 0 is always a leaf, never a synthesized ε[q]).
	selfQual int32
}

// Target is one entry of a DP cell: the plan that reaches one state.
type Target struct {
	State int32
	Plan  Path
}

// Cell is one DP cell: for a (subtree, state) pair, the translation per
// reach target. Keeping translations per target rather than as one
// union is what makes step composition sound (see package rewrite).
// A stored cell is sorted by state name, and Total unions in that
// order.
type Cell []Target

// Add unions p into the target's entry, appending a new target when
// the cell has none; ∅ adds nothing.
func (c Cell) Add(state int32, p Path) Cell {
	if IsEmpty(p) {
		return c
	}
	for i := range c {
		if c[i].State == state {
			c[i].Plan = MakeUnion(c[i].Plan, p)
			return c
		}
	}
	return append(c, Target{State: state, Plan: p})
}

// Total is the cell's whole translation: the union of its targets'
// plans in cell order (∅ for an empty cell).
func (c Cell) Total() Path {
	out := Path(Empty{})
	for _, t := range c {
		out = MakeUnion(out, t.Plan)
	}
	return out
}

// kind tags an intern key with the AST node type it describes.
type kind uint8

const (
	kEmpty kind = iota
	kSelf
	kLabel
	kWildcard
	kSeq
	kDescend
	kUnion
	kQualified
	kRec
	kQTrue
	kQFalse
	kQPath
	kQEq
	kQAnd
	kQOr
	kQNot
	kQAttrEq
	kQAttrHas
)

// internKey is the flat key of one subtree: its kind, its child ids (a
// Rec's graph and result-label ids) and its name, value or variable
// strings.
type internKey struct {
	k    kind
	l, r NodeID
	s, t string
}

type cellKey struct {
	id    NodeID
	state int32
}

// gen is a two-generation map: lookups that hit the old generation
// promote the entry, and flip drops the old generation.
type gen[K comparable, V any] struct {
	cur, old map[K]V
}

func newGen[K comparable, V any]() gen[K, V] {
	return gen[K, V]{cur: make(map[K]V)}
}

func (g *gen[K, V]) get(k K) (V, bool) {
	if v, ok := g.cur[k]; ok {
		return v, true
	}
	v, ok := g.old[k]
	if ok {
		delete(g.old, k)
		g.cur[k] = v
	}
	return v, ok
}

func (g *gen[K, V]) flip() {
	g.old, g.cur = g.cur, make(map[K]V)
}

func (g *gen[K, V]) len() int { return len(g.cur) + len(g.old) }

// Memo is one owner's DP table: interned subtrees, numbered states and
// the cells over them. It is not safe for concurrent use; rewriters and
// optimizers call it under the mutex they already hold. A call begins
// with Begin, interns its query with Intern and then reads and stores
// cells by the tree's node ids.
type Memo struct {
	ids    gen[internKey, NodeID]
	graphs gen[*RecGraph, NodeID]
	cells  gen[cellKey, Cell]
	next   NodeID

	names []string
	state map[string]int32

	// tree is the current call's interned query, reused across calls.
	tree []TreeNode

	ctx    context.Context
	err    error
	ticks  int
	doneAt time.Time

	// computed counts the cells stored and visits the nodes the intern
	// pass walked, over the Memo's lifetime.
	computed, visits uint64
}

// NewMemo returns an empty table.
func NewMemo() *Memo {
	return &Memo{
		ids:    newGen[internKey, NodeID](),
		graphs: newGen[*RecGraph, NodeID](),
		cells:  newGen[cellKey, Cell](),
		state:  make(map[string]int32),
	}
}

// Begin starts one plan construction. The call's interned tree is
// cleared, and ctx is polled every few computed cells; once it has been
// done for PlanGrace, Err reports it and no further cell is stored.
func (m *Memo) Begin(ctx context.Context) {
	if m.next >= idReset {
		m.cells = newGen[cellKey, Cell]()
		m.ids = newGen[internKey, NodeID]()
		m.graphs = newGen[*RecGraph, NodeID]()
		m.next = 0
	}
	if cap(m.tree) > 4096 {
		m.tree = nil
	}
	m.tree = m.tree[:0]
	m.ctx, m.err, m.ticks, m.doneAt = ctx, nil, 0, time.Time{}
}

// Err is the context error that cut the current call short, if any.
// Cells computed after it are incomplete; callers discard the call's
// result.
func (m *Memo) Err() error { return m.err }

// State returns the number of a state name, assigning one on first use.
func (m *Memo) State(name string) int32 {
	if i, ok := m.state[name]; ok {
		return i
	}
	i := int32(len(m.names))
	m.names = append(m.names, name)
	m.state[name] = i
	return i
}

// StateName is the name of a state number.
func (m *Memo) StateName(i int32) string { return m.names[i] }

// Node returns one node of the current call's tree.
func (m *Memo) Node(i int32) TreeNode { return m.tree[i] }

// Len is the number of live cells across both generations.
func (m *Memo) Len() int { return m.cells.len() }

// Work reports the cells computed and the intern-pass node visits over
// the Memo's lifetime.
func (m *Memo) Work() (cells, visits uint64) { return m.computed, m.visits }

// Cell returns the stored cell of (id, state).
func (m *Memo) Cell(id NodeID, state int32) (Cell, bool) {
	c, ok := m.cells.get(cellKey{id, state})
	if ok {
		m.bound()
	}
	return c, ok
}

// Compute reports whether the caller may compute one more cell. It
// counts the cell and polls the call's context every pollEvery cells;
// false means the context has been done for PlanGrace (see Err) and the
// caller must return without computing.
func (m *Memo) Compute() bool {
	if m.err != nil {
		return false
	}
	m.ticks++
	if m.ticks%pollEvery != 0 {
		return true
	}
	err := m.ctx.Err()
	if err == nil {
		return true
	}
	since, ok := m.ctx.Deadline()
	if !ok {
		if m.doneAt.IsZero() {
			m.doneAt = time.Now()
		}
		since = m.doneAt
	}
	if time.Since(since) >= PlanGrace {
		m.err = err
	}
	return m.err == nil
}

// Store sorts a computed cell by state name and, unless the call's
// context is done, records it under (id, state). It returns the sorted
// cell.
func (m *Memo) Store(id NodeID, state int32, c Cell) Cell {
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && m.names[c[j].State] < m.names[c[j-1].State]; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
	if m.err != nil {
		return c
	}
	m.computed++
	m.cells.cur[cellKey{id, state}] = c
	m.bound()
	return c
}

// bound flips every generation together once the current one is full.
func (m *Memo) bound() {
	if len(m.cells.cur) < MemoBudget && len(m.ids.cur) < MemoBudget {
		return
	}
	m.cells.flip()
	m.ids.flip()
	m.graphs.flip()
}

// id returns the id of a flat key, assigning a fresh one on a miss.
func (m *Memo) id(k internKey) NodeID {
	id, ok := m.ids.get(k)
	if !ok {
		m.next++
		id = m.next
		m.ids.cur[k] = id
	}
	m.bound()
	return id
}

func (m *Memo) graphID(g *RecGraph) NodeID {
	if id, ok := m.graphs.get(g); ok {
		return id
	}
	m.next++
	m.graphs.cur[g] = m.next
	return m.next
}

func (m *Memo) push(n TreeNode) int32 {
	m.tree = append(m.tree, n)
	return int32(len(m.tree) - 1)
}

// Intern adds p's subtrees to the current call's tree, bottom-up, and
// returns the index of p's node.
func (m *Memo) Intern(p Path) int32 {
	m.visits++
	n := TreeNode{L: -1, R: -1, Path: p}
	var k internKey
	switch p := p.(type) {
	case Empty:
		k.k = kEmpty
	case Self:
		k.k = kSelf
	case Label:
		k.k, k.s = kLabel, p.Name
	case Wildcard:
		k.k = kWildcard
	case Seq:
		n.L, n.R = m.Intern(p.Left), m.Intern(p.Right)
		k.k = kSeq
	case Descend:
		n.L = m.Intern(p.Sub)
		k.k = kDescend
	case Union:
		n.L, n.R = m.Intern(p.Left), m.Intern(p.Right)
		k.k = kUnion
	case Qualified:
		n.L, n.R = m.Intern(p.Sub), m.internQual(p.Cond)
		k.k = kQualified
	case Rec:
		k.k, k.s, k.t = kRec, p.Start, p.Accept
		k.l = m.graphID(p.G)
		k.r = m.id(internKey{k: kLabel, s: p.ResultLabel})
	default:
		// Unknown node types never share a cell: each occurrence gets
		// its own id.
		m.next++
		n.ID = m.next
		return m.push(n)
	}
	if n.L >= 0 {
		k.l = m.tree[n.L].ID
	}
	if n.R >= 0 {
		k.r = m.tree[n.R].ID
	}
	n.ID = m.id(k)
	return m.push(n)
}

func (m *Memo) internQual(q Qual) int32 {
	m.visits++
	n := TreeNode{L: -1, R: -1, Qual: q}
	var k internKey
	switch q := q.(type) {
	case QTrue:
		k.k = kQTrue
	case QFalse:
		k.k = kQFalse
	case QPath:
		n.L = m.Intern(q.Path)
		k.k = kQPath
	case QEq:
		n.L = m.Intern(q.Path)
		k.k, k.s, k.t = kQEq, q.Value, q.Var
	case QAnd:
		n.L, n.R = m.internQual(q.Left), m.internQual(q.Right)
		k.k = kQAnd
	case QOr:
		n.L, n.R = m.internQual(q.Left), m.internQual(q.Right)
		k.k = kQOr
	case QNot:
		n.L = m.internQual(q.Sub)
		k.k = kQNot
	case QAttrEq:
		k.k, k.s, k.t = kQAttrEq, q.Name, q.Value
	case QAttrHas:
		k.k, k.s = kQAttrHas, q.Name
	default:
		m.next++
		n.ID = m.next
		return m.push(n)
	}
	if n.L >= 0 {
		k.l = m.tree[n.L].ID
	}
	if n.R >= 0 {
		k.r = m.tree[n.R].ID
	}
	n.ID = m.id(k)
	return m.push(n)
}

// SelfQual returns the node of ε[q] for the Qualified node i = p[q],
// interning it on first use in the call. Both algorithms read p[q] as
// p/ε[q], so each target of p gets its own cell for the qualifier.
func (m *Memo) SelfQual(i int32) int32 {
	if j := m.tree[i].selfQual; j != 0 {
		return j
	}
	self := m.Intern(Self{})
	cond := m.tree[i].R
	j := m.push(TreeNode{
		ID:   m.id(internKey{k: kQualified, l: m.tree[self].ID, r: m.tree[cond].ID}),
		L:    self,
		R:    cond,
		Path: Qualified{Sub: Self{}, Cond: m.tree[cond].Qual},
	})
	m.tree[i].selfQual = j
	return j
}
