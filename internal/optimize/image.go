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

	"repro/internal/dtd"
	"repro/internal/xpath"
)

// inode is one occurrence node of an image graph. Spine nodes created for
// '//' steps are shared per label inside their spine (the descendant
// closure is exactly "any path", so merging is lossless there); all other
// composition keeps occurrences separate.
type inode struct {
	label    string
	kids     []*inode
	quals    []qualAt
	frontier bool
}

// qualAt is a qualifier attached to an occurrence, kept as AST so that
// the simulation's qualifier rule can use a precise implication test.
type qualAt struct {
	q  xpath.Qual
	at string // DTD type the qualifier is evaluated at
}

// igraph is the image graph image(p, A): root occurrence labeled A,
// frontier = occurrences selected by p.
type igraph struct {
	root *inode
	size int
}

// imageBudget caps image construction; larger images abort the build and
// the caller skips the (purely optional) containment test.
const imageBudget = 4096

// builder tracks allocation against the budget.
type builder struct {
	o        *Optimizer
	overflow bool
	size     int
}

func (b *builder) node(label string) *inode {
	b.size++
	// A large image is plan-construction work like a cell: it polls the
	// call's context too, and a cancelled build gives up like an
	// overflowing one.
	if b.size > imageBudget || b.size%256 == 0 && !b.o.memo.Compute() {
		b.overflow = true
	}
	return &inode{label: label}
}

// image computes image(p, A) as a call of its own: it interns p and
// builds. ok is false when construction overflowed the budget (callers
// must then skip containment tests); a nil graph with ok true means p
// provably selects nothing at A.
func (o *Optimizer) image(p xpath.Path, a string) (*igraph, bool) {
	o.memo.Begin(context.Background())
	return o.imageAt(o.memo.Intern(p), a)
}

// imageAt computes the image of the interned subtree i at A.
func (o *Optimizer) imageAt(i int32, a string) (*igraph, bool) {
	b := &builder{o: o}
	root := b.build(i, a)
	if b.overflow {
		return nil, false
	}
	if root == nil || !pruneDead(root) {
		return nil, true
	}
	return &igraph{root: root, size: b.size}, true
}

// build returns the occurrence tree of the interned subtree i at type
// a, or nil when empty.
func (b *builder) build(i int32, a string) *inode {
	if b.overflow {
		return nil
	}
	o := b.o
	tn := o.memo.Node(i)
	switch p := tn.Path.(type) {
	case xpath.Empty:
		return nil
	case xpath.Self:
		n := b.node(a)
		n.frontier = true
		return n
	case xpath.Label:
		if p.Name == xpath.TextName {
			if c, ok := o.d.Production(a); ok && c.Kind == dtd.Text {
				n := b.node(a)
				leaf := b.node(textNode)
				leaf.frontier = true
				n.kids = append(n.kids, leaf)
				return n
			}
			return nil
		}
		if !o.d.HasChild(a, p.Name) {
			return nil
		}
		n := b.node(a)
		leaf := b.node(p.Name)
		leaf.frontier = true
		n.kids = append(n.kids, leaf)
		return n
	case xpath.Wildcard:
		kids := o.d.Children(a)
		if len(kids) == 0 {
			return nil
		}
		n := b.node(a)
		for _, k := range kids {
			leaf := b.node(k)
			leaf.frontier = true
			n.kids = append(n.kids, leaf)
		}
		return n
	case xpath.Seq:
		return b.seq(tn.L, tn.R, a)
	case xpath.Descend:
		n := b.node(a)
		fromA := o.d.Reachable(a)
		spine := make(map[string]*inode) // per-label sharing inside the spine
		spine[a] = n
		for _, t := range o.reachDescend(a) {
			if t == textNode {
				continue
			}
			sub := b.build(tn.L, t)
			if sub == nil {
				continue
			}
			// Ensure the spine covers every DTD edge on paths a→t, then
			// splice sub at the spine node for t.
			toT := o.reachingSet(t)
			for x := range fromA {
				if !toT[x] {
					continue
				}
				nx, ok := spine[x]
				if !ok {
					nx = b.node(x)
					spine[x] = nx
				}
				for _, y := range o.d.Children(x) {
					if !toT[y] {
						continue
					}
					ny, ok := spine[y]
					if !ok {
						ny = b.node(y)
						spine[y] = ny
					}
					if !hasKid(nx, ny) {
						nx.kids = append(nx.kids, ny)
					}
				}
			}
			nt := spine[t]
			nt.kids = append(nt.kids, sub.kids...)
			nt.quals = append(nt.quals, sub.quals...)
			if sub.frontier {
				nt.frontier = true
			}
			if b.overflow {
				return nil
			}
		}
		return n
	case xpath.Union:
		g1 := b.build(tn.L, a)
		g2 := b.build(tn.R, a)
		if g1 == nil {
			return g2
		}
		if g2 == nil {
			return g1
		}
		// Merge only the shared root occurrence; branches stay separate.
		g1.kids = append(g1.kids, g2.kids...)
		g1.quals = append(g1.quals, g2.quals...)
		g1.frontier = g1.frontier || g2.frontier
		return g1
	case xpath.Qualified:
		if _, ok := p.Sub.(xpath.Self); !ok {
			return b.seq(tn.L, o.memo.SelfQual(i), a) // p1[q] ≡ p1/ε[q]
		}
		tv, simplified := o.optQual(tn.R, a)
		switch tv {
		case tvFalse:
			return nil
		case tvTrue:
			n := b.node(a)
			n.frontier = true
			return n
		}
		n := b.node(a)
		n.frontier = true
		n.quals = append(n.quals, qualAt{q: simplified, at: a})
		return n
	case xpath.Rec:
		// A nil return means "provably empty", which simulate treats as
		// contained in everything — unsound for an automaton the image
		// abstraction cannot model. Overflow instead, which skips the
		// containment test for this branch pair.
		b.overflow = true
		return nil
	default:
		return nil
	}
}

// seq builds the image of l/r at a: the image of l with each frontier
// occurrence replaced by the image of r at its label.
func (b *builder) seq(l, r int32, a string) *inode {
	g1 := b.build(l, a)
	if g1 == nil {
		return nil
	}
	// Dead continuations leave dead branches pruned later. Spine sharing
	// makes the graph a DAG (or cyclic for recursive DTDs), so each
	// occurrence is visited exactly once — re-visiting would consume the
	// frontier of freshly spliced continuations.
	seen := make(map[*inode]bool)
	var attach func(n *inode)
	attach = func(n *inode) {
		if seen[n] {
			return
		}
		seen[n] = true
		kids := n.kids
		for _, k := range kids {
			attach(k)
		}
		if !n.frontier {
			return
		}
		n.frontier = false
		g2 := b.build(r, n.label)
		if g2 == nil {
			return
		}
		// g2's root is the same occurrence as n: splice its content.
		n.kids = append(n.kids, g2.kids...)
		n.quals = append(n.quals, g2.quals...)
		n.frontier = g2.frontier
	}
	attach(g1)
	return g1
}

func hasKid(n, k *inode) bool {
	for _, c := range n.kids {
		if c == k {
			return true
		}
	}
	return false
}

// pruneDead removes branches that reach no frontier occurrence; it
// reports whether the root survives. Spine sharing can make the graph
// cyclic for recursive DTDs, so liveness is a fixpoint.
func pruneDead(root *inode) bool {
	live := make(map[*inode]bool)
	state := make(map[*inode]int)
	var visit func(n *inode) bool
	visit = func(n *inode) bool {
		switch state[n] {
		case 1: // in progress (cycle): resolved by the outer fixpoint
			return live[n]
		case 2:
			return live[n]
		}
		state[n] = 1
		ok := n.frontier
		for _, k := range n.kids {
			if visit(k) {
				ok = true
			}
		}
		state[n] = 2
		if ok {
			live[n] = true
		}
		return ok
	}
	// Iterate to a fixpoint for cyclic graphs (at most |nodes| rounds, in
	// practice one or two).
	for {
		before := len(live)
		state = make(map[*inode]int)
		visit(root)
		if len(live) == before {
			break
		}
	}
	if !live[root] {
		return false
	}
	seen := make(map[*inode]bool)
	var strip func(n *inode)
	strip = func(n *inode) {
		if seen[n] {
			return
		}
		seen[n] = true
		kept := n.kids[:0]
		for _, k := range n.kids {
			if live[k] {
				kept = append(kept, k)
				strip(k)
			}
		}
		n.kids = kept
	}
	strip(root)
	return true
}

// textNode is the pseudo image-graph node for text content.
const textNode = "#text"

// reachingSet returns the DTD types from which b is reachable (b
// included), cached per target.
func (o *Optimizer) reachingSet(b string) map[string]bool {
	if s, ok := o.reaching[b]; ok {
		return s
	}
	s := make(map[string]bool)
	for _, t := range o.d.Types() {
		if o.d.Reachable(t)[b] {
			s[t] = true
		}
	}
	o.reaching[b] = s
	return s
}
