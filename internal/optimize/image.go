// Package optimize implements the paper's Section 5: XPath query
// optimization in the presence of a DTD. Exact optimization is
// intractable (containment with DTDs is coNP-hard to undecidable
// [Neven/Schwentick]), so the algorithms here are approximate and
// one-sided: every transformation preserves equivalence over all
// instances of the DTD, and a failed test simply leaves the query as is.
//
// Three DTD constraint classes drive the optimizer (Example 5.1):
//
//   - co-existence: a concatenation production guarantees all its children
//     exist, so provable qualifiers are removed;
//   - exclusive: a disjunction production forbids two different children
//     at once, so contradictory qualifiers collapse the query to ∅;
//   - non-existence: steps that reach no DTD node are pruned to ∅.
//
// Redundant unions and conjuncts are removed with the approximate
// containment test of Section 5.1: queries are abstracted into image
// graphs over the DTD and compared by a graph simulation that flips
// direction at qualifiers. Two refinements over the paper's literal
// definition keep the test sound (the paper's own property, Prop. 5.1,
// demands soundness): image nodes are per-occurrence rather than merged
// per label across unrelated branches (merging can manufacture label
// paths neither query has), and the simulation must map frontier
// (selected) nodes to frontier nodes — without this, the single-node
// image of ε would be "simulated by" any image rooted at the same type.
package optimize

import (
	"context"
	"slices"

	"repro/internal/dtd"
	"repro/internal/xpath"
)

// inode is one occurrence node of an image graph, an entry of a store.
// Spine nodes created for '//' steps are shared per label inside their
// spine (the descendant closure is exactly "any path", so merging is
// lossless there); all other composition keeps occurrences separate.
type inode struct {
	label    string
	kids     run // node indices in store.kids
	quals    run // entries of store.quals
	frontier bool
}

// run is one node's edge list inside a store arena: n entries from off,
// with room for cap before the run must move.
type run struct{ off, n, cap int32 }

// qualAt is a qualifier attached to an occurrence, kept as AST so that
// the simulation's qualifier rule can use a precise implication test.
type qualAt struct {
	q  xpath.Qual
	at string // DTD type the qualifier is evaluated at
}

// store holds image graphs as flat slices addressed by int32. The
// optimizer owns one scratch store that every build writes into under
// its lock: builds push nodes above whatever an enclosing build left,
// and each containment test truncates the store back to its mark, so
// after warm-up a build allocates nothing. A retained image (Image) is
// an exact-size copy in a store of its own, which nothing writes again.
type store struct {
	nodes []inode
	kids  []int32
	quals []qualAt

	// The rest is build-time scratch, nil in retained stores: per-node
	// traversal marks parallel to nodes, the stacked per-type spine
	// frames of '//' builds, and the queue retain walks.
	marks []nodeMark
	spine []int32
	queue []int32
	epoch uint64
}

// nodeMark is a node's traversal state. A traversal takes a fresh epoch, so
// marks never need clearing; live and to belong to the node's own build
// (pruneDead, then retain).
type nodeMark struct {
	ep   uint64
	live bool
	to   int32
}

// scratchMark is a stack position of the scratch store.
type scratchMark struct{ nodes, kids, quals int }

func (s *store) mark() scratchMark {
	return scratchMark{len(s.nodes), len(s.kids), len(s.quals)}
}

// truncate pops every node, edge and qualifier pushed since m.
func (s *store) truncate(m scratchMark) {
	clear(s.quals[m.quals:]) // drop the qualifier ASTs for the GC
	s.nodes, s.marks = s.nodes[:m.nodes], s.marks[:m.nodes]
	s.kids, s.quals = s.kids[:m.kids], s.quals[:m.quals]
}

func (s *store) next() uint64 {
	s.epoch++
	return s.epoch
}

// push appends vals to the run r of arena. A full run grows in place
// when it ends the arena and otherwise moves to the end with room to
// double, so appends cost amortized O(1) and no allocation once the
// arena has reached its working size.
func push[T any](arena []T, r *run, vals ...T) []T {
	need := r.n + int32(len(vals))
	if need > r.cap {
		if int(r.off+r.cap) != len(arena) {
			off := int32(len(arena))
			arena = append(arena, arena[r.off:r.off+r.n]...)
			r.off, r.cap = off, r.n
			need = max(need, 2*r.n)
		}
		arena = slices.Grow(arena, int(need-r.cap))
		arena = arena[:len(arena)+int(need-r.cap)]
		r.cap = need
	}
	copy(arena[r.off+r.n:], vals)
	r.n += int32(len(vals))
	return arena
}

func (s *store) addKid(n, k int32) {
	s.kids = push(s.kids, &s.nodes[n].kids, k)
}

// splice copies the content of src, the root of a graph built for the
// same occurrence, into n: its kids, its qualifiers and its frontier
// flag (kept when keepFrontier and n is already selected).
func (s *store) splice(n, src int32, keepFrontier bool) {
	from := s.nodes[src]
	s.kids = push(s.kids, &s.nodes[n].kids, s.kids[from.kids.off:from.kids.off+from.kids.n]...)
	s.quals = push(s.quals, &s.nodes[n].quals, s.quals[from.quals.off:from.quals.off+from.quals.n]...)
	s.nodes[n].frontier = from.frontier || keepFrontier && s.nodes[n].frontier
}

func (s *store) hasKid(n, k int32) bool {
	r := s.nodes[n].kids
	for _, c := range s.kids[r.off : r.off+r.n] {
		if c == k {
			return true
		}
	}
	return false
}

// igraph is the image graph image(p, A): root occurrence labeled A,
// frontier = occurrences selected by p. size counts the nodes the build
// created, pruned ones included.
type igraph struct {
	s    *store
	root int32 // -1: p provably selects nothing at A
	size int
}

func (g igraph) empty() bool { return g.root < 0 }

// imageBudget caps image construction; larger images abort the build and
// the caller skips the (purely optional) containment test.
const imageBudget = 4096

// builder tracks one build's allocation against the budget.
type builder struct {
	o        *Optimizer
	s        *store
	overflow bool
	size     int
}

func (b *builder) node(label string) int32 {
	b.size++
	// A large image is plan-construction work like a cell: it polls the
	// call's context too, and a cancelled build gives up like an
	// overflowing one.
	if b.size > imageBudget || b.size%256 == 0 && !b.o.memo.Compute() {
		b.overflow = true
	}
	s := b.s
	s.nodes = append(s.nodes, inode{label: label})
	s.marks = append(s.marks, nodeMark{})
	return int32(len(s.nodes) - 1)
}

func (b *builder) leaf(label string) int32 {
	n := b.node(label)
	b.s.nodes[n].frontier = true
	return n
}

// image computes image(p, A) as a call of its own: it interns p, builds
// in the scratch store and returns a retained copy. ok is false when
// construction overflowed the budget (callers must then skip containment
// tests); an empty graph with ok true means p provably selects nothing
// at A.
func (o *Optimizer) image(p xpath.Path, a string) (igraph, bool) {
	o.memo.Begin(context.Background())
	m := o.scratch.mark()
	g, ok := o.imageAt(o.memo.Intern(p), a)
	if ok && !g.empty() {
		g = o.scratch.retain(g)
	}
	o.scratch.truncate(m)
	return g, ok
}

// imageAt computes the image of the interned subtree i at A in the
// scratch store; the caller truncates the store once it is done with it.
func (o *Optimizer) imageAt(i int32, a string) (igraph, bool) {
	b := builder{o: o, s: &o.scratch}
	root := b.build(i, a)
	if b.overflow {
		return igraph{root: -1}, false
	}
	if root < 0 || !b.s.pruneDead(root) {
		return igraph{root: -1}, true
	}
	return igraph{s: b.s, root: root, size: b.size}, true
}

// build returns the root of the occurrence graph of the interned subtree
// i at type a, or -1 when empty.
func (b *builder) build(i int32, a string) int32 {
	if b.overflow {
		return -1
	}
	o, s := b.o, b.s
	tn := o.memo.Node(i)
	switch p := tn.Path.(type) {
	case xpath.Empty:
		return -1
	case xpath.Self:
		return b.leaf(a)
	case xpath.Label:
		if p.Name == xpath.TextName {
			if c, ok := o.d.Production(a); ok && c.Kind == dtd.Text {
				n := b.node(a)
				s.addKid(n, b.leaf(textNode))
				return n
			}
			return -1
		}
		if !o.d.HasChild(a, p.Name) {
			return -1
		}
		n := b.node(a)
		s.addKid(n, b.leaf(p.Name))
		return n
	case xpath.Wildcard:
		tg := o.typeGraph()
		x, ok := tg.idx[a]
		if !ok || len(tg.kids[x]) == 0 {
			return -1
		}
		n := b.node(a)
		for _, k := range tg.kids[x] {
			s.addKid(n, b.leaf(tg.names[k]))
		}
		return n
	case xpath.Seq:
		return b.seq(tn.L, tn.R, a)
	case xpath.Descend:
		return b.descend(tn.L, a)
	case xpath.Union:
		g1 := b.build(tn.L, a)
		g2 := b.build(tn.R, a)
		if g1 < 0 {
			return g2
		}
		if g2 < 0 {
			return g1
		}
		// Merge only the shared root occurrence; branches stay separate.
		s.splice(g1, g2, true)
		return g1
	case xpath.Qualified:
		if _, ok := p.Sub.(xpath.Self); !ok {
			return b.seq(tn.L, o.memo.SelfQual(i), a) // p1[q] ≡ p1/ε[q]
		}
		// The optimization proper decides (and counts) this qualifier
		// again; the image only needs the verdict.
		tv, simplified := o.optQual(tn.R, a, false)
		switch tv {
		case tvFalse:
			return -1
		case tvTrue:
			return b.leaf(a)
		}
		n := b.leaf(a)
		s.quals = push(s.quals, &s.nodes[n].quals, qualAt{q: simplified, at: a})
		return n
	case xpath.Rec:
		// An empty return means "provably empty", which simulate treats
		// as contained in everything — unsound for an automaton the
		// image abstraction cannot model. Overflow instead, which skips
		// the containment test for this branch pair.
		b.overflow = true
		return -1
	default:
		return -1
	}
}

// descend builds the image of //l at a: a spine covering every DTD edge
// on the paths from a to each type t reachable from it, with the image
// of l at t spliced at the spine node for t. The spine shares one node
// per type, held in a frame of per-type slots on the store's spine
// stack (a nested '//' pushes its own frame above).
func (b *builder) descend(l int32, a string) int32 {
	o, s := b.o, b.s
	tg := o.typeGraph()
	n := b.node(a)
	ai, indexed := tg.idx[a]
	fr := len(s.spine)
	for range tg.names {
		s.spine = append(s.spine, -1)
	}
	if indexed {
		s.spine[fr+int(ai)] = n
	}
	slot := func(x int32) int32 {
		if s.spine[fr+int(x)] < 0 {
			s.spine[fr+int(x)] = b.node(tg.names[x])
		}
		return s.spine[fr+int(x)]
	}
	for _, t := range o.reachDescend(a) {
		if t == textNode {
			continue
		}
		sub := b.build(l, t)
		if sub < 0 {
			continue
		}
		// Ensure the spine covers every DTD edge on paths a→t, then
		// splice sub at the spine node for t. Below the text leaf, the
		// one label without a type index, reachDescend yields nothing
		// but the leaf itself.
		nt := n
		if ti, ok := tg.idx[t]; ok && indexed {
			for x, fromA := range tg.reach[ai] {
				if !fromA || !tg.reach[x][ti] {
					continue
				}
				nx := slot(int32(x))
				for _, y := range tg.kids[x] {
					if !tg.reach[y][ti] {
						continue
					}
					if ny := slot(y); !s.hasKid(nx, ny) {
						s.addKid(nx, ny)
					}
				}
			}
			nt = s.spine[fr+int(ti)]
		}
		s.splice(nt, sub, true)
		if b.overflow {
			n = -1
			break
		}
	}
	s.spine = s.spine[:fr]
	return n
}

// seq builds the image of l/r at a: the image of l with each frontier
// occurrence replaced by the image of r at its label.
func (b *builder) seq(l, r int32, a string) int32 {
	g1 := b.build(l, a)
	if g1 < 0 {
		return -1
	}
	// Dead continuations leave dead branches pruned later. Spine sharing
	// makes the graph a DAG (or cyclic for recursive DTDs), so each
	// occurrence is visited exactly once — re-visiting would consume the
	// frontier of freshly spliced continuations.
	b.attach(g1, r, b.s.next())
	return g1
}

func (b *builder) attach(n, r int32, ep uint64) {
	s := b.s
	if s.marks[n].ep == ep {
		return
	}
	s.marks[n].ep = ep
	// The kids seen now: continuations spliced below are not revisited.
	kids := s.nodes[n].kids
	for j := kids.off; j < kids.off+kids.n; j++ {
		b.attach(s.kids[j], r, ep)
	}
	if !s.nodes[n].frontier {
		return
	}
	s.nodes[n].frontier = false
	g2 := b.build(r, s.nodes[n].label)
	if g2 < 0 {
		return
	}
	// g2's root is the same occurrence as n: splice its content.
	s.splice(n, g2, false)
}

// pruneDead removes branches that reach no frontier occurrence; it
// reports whether the root survives. Spine sharing can make the graph
// cyclic for recursive DTDs, so liveness is a fixpoint.
func (s *store) pruneDead(root int32) bool {
	// Iterate to a fixpoint for cyclic graphs (at most |nodes| rounds, in
	// practice one or two).
	for {
		added := 0
		s.visitLive(root, s.next(), &added)
		if added == 0 {
			break
		}
	}
	if !s.marks[root].live {
		return false
	}
	s.strip(root, s.next())
	return true
}

// visitLive is one liveness round: it reports whether n reaches a
// frontier occurrence and counts the nodes first found live. A node
// already visited this round — in progress on a cycle, or done —
// answers with its liveness so far; the outer fixpoint resolves cycles.
func (s *store) visitLive(n int32, ep uint64, added *int) bool {
	if s.marks[n].ep == ep {
		return s.marks[n].live
	}
	s.marks[n].ep = ep
	ok := s.nodes[n].frontier
	kids := s.nodes[n].kids
	for _, k := range s.kids[kids.off : kids.off+kids.n] {
		if s.visitLive(k, ep, added) {
			ok = true
		}
	}
	if ok && !s.marks[n].live {
		s.marks[n].live = true
		*added++
	}
	return ok
}

// strip drops the dead kids of every node reachable from n.
func (s *store) strip(n int32, ep uint64) {
	if s.marks[n].ep == ep {
		return
	}
	s.marks[n].ep = ep
	kids := s.nodes[n].kids
	kept := kids.off
	for j := kids.off; j < kids.off+kids.n; j++ {
		if k := s.kids[j]; s.marks[k].live {
			s.kids[kept] = k
			kept++
			s.strip(k, ep)
		}
	}
	s.nodes[n].kids.n = kept - kids.off
}

// retain copies the graph g of the scratch store into an exact-size
// store of its own, numbering the nodes reachable from its root
// breadth-first, so that it survives the scratch store's truncation.
func (s *store) retain(g igraph) igraph {
	ep := s.next()
	q := append(s.queue[:0], g.root)
	s.marks[g.root].ep, s.marks[g.root].to = ep, 0
	nkids, nquals := 0, 0
	for i := 0; i < len(q); i++ {
		n := s.nodes[q[i]]
		nkids += int(n.kids.n)
		nquals += int(n.quals.n)
		for _, k := range s.kids[n.kids.off : n.kids.off+n.kids.n] {
			if s.marks[k].ep != ep {
				s.marks[k].ep, s.marks[k].to = ep, int32(len(q))
				q = append(q, k)
			}
		}
	}
	s.queue = q
	r := &store{nodes: make([]inode, len(q)), kids: make([]int32, 0, nkids), quals: make([]qualAt, 0, nquals)}
	for i, old := range q {
		n := s.nodes[old]
		r.nodes[i] = inode{label: n.label, frontier: n.frontier,
			kids:  run{off: int32(len(r.kids)), n: n.kids.n, cap: n.kids.n},
			quals: run{off: int32(len(r.quals)), n: n.quals.n, cap: n.quals.n}}
		for _, k := range s.kids[n.kids.off : n.kids.off+n.kids.n] {
			r.kids = append(r.kids, s.marks[k].to)
		}
		r.quals = append(r.quals, s.quals[n.quals.off:n.quals.off+n.quals.n]...)
	}
	return igraph{s: r, root: 0, size: g.size}
}

// textNode is the pseudo image-graph node for text content.
const textNode = "#text"

// typeGraph is the DTD's element types as indices — children in
// content-model order and the reachability matrix — so that image
// builds walk the DTD without allocating (dtd.Children and
// dtd.Reachable build a map per call). Built on first use; the DTD
// is fixed for the optimizer's lifetime.
type typeGraph struct {
	names []string
	idx   map[string]int32
	kids  [][]int32
	// reach[x][y]: y is reachable from x (x included).
	reach [][]bool
}

func (o *Optimizer) typeGraph() *typeGraph {
	if o.types != nil {
		return o.types
	}
	tg := &typeGraph{idx: make(map[string]int32)}
	// A content model may name a type it does not declare (DTDs built
	// in code skip Check); such a type gets an index without children.
	id := func(name string) int32 {
		x, ok := tg.idx[name]
		if !ok {
			x = int32(len(tg.names))
			tg.idx[name] = x
			tg.names = append(tg.names, name)
		}
		return x
	}
	for _, name := range o.d.Types() {
		id(name)
	}
	for x := 0; x < len(tg.names); x++ {
		var kids []int32
		for _, k := range o.d.Children(tg.names[x]) {
			kids = append(kids, id(k))
		}
		tg.kids = append(tg.kids, kids)
	}
	for _, name := range tg.names {
		row := make([]bool, len(tg.names))
		for y := range o.d.Reachable(name) {
			row[tg.idx[y]] = true
		}
		tg.reach = append(tg.reach, row)
	}
	o.types = tg
	return tg
}
