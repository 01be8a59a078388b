package xpath

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/nodeset"
	"repro/internal/xmltree"
)

// This file is the ordinal evaluation path: on compacted documents the
// evaluator's internal currency is not a []*Node but a nodeset.Set — a
// word-packed bitset over the arena's preorder ordinals. Preorder
// ordinal order is document order, so the sort/dedup work the slice
// evaluator does at every merge point disappears: union is word-wise
// OR, deduplication is structural, descendant-or-self is a bit-range
// fill over the subtree interval, and the Rec automaton's visited set
// becomes one bitset row per view state. All intermediate sets come
// from a sync.Pool.
//
// Steps are set-at-a-time; qualifiers are node-local. A p[q] step
// evaluates p as a set, then decides q at each candidate with an
// early-exit depth-first walk from that one node (exists), which
// touches only the nodes it needs instead of scanning document-sized
// sets per candidate, and compares string values with TextEquals. A
// Rec step inside a qualifier falls back to set-at-a-time evaluation
// at that node, because its product search needs visited rows. The
// sets, the bitEval and its walk stack all come back from pools, so a
// steady-state evaluation without Rec allocates only its final result
// slice, however many candidates it checks.
//
// The gate (ordinalDoc) requires every context node to carry fresh
// numbering from one compacted document. Hand-built NewDocument trees,
// detached subtrees, and mixed-document contexts keep the slice path —
// which also keeps the two implementations pinned against each other
// by every differential suite that evaluates on parsed or generated
// (always compacted) documents.

// ordinalDoc returns the compacted document that owns every context
// node, or nil when the ordinal path does not apply (empty context,
// stale numbering, uncompacted document, or mixed owners).
func ordinalDoc(nodes []*xmltree.Node) *xmltree.Document {
	if len(nodes) == 0 {
		return nil
	}
	d := nodes[0].Owner()
	if d == nil || !d.Compacted() {
		return nil
	}
	for _, n := range nodes[1:] {
		if n.Owner() != d {
			return nil
		}
	}
	return d
}

// OrdinalApplicable reports whether evaluation over doc takes the
// bitset path — the compaction gate, exported so the serving layer can
// label its metrics with the set representation actually in use.
func OrdinalApplicable(doc *xmltree.Document) bool {
	return doc != nil && doc.Compacted()
}

// evalOrdinal runs one bitset evaluation end to end: context slice in,
// result slice out, every intermediate set pooled. It shares the
// caller's seqEval so ticks and cancellation behave exactly as on the
// slice path. idx is nil for the walk evaluator.
func evalOrdinal(se *seqEval, idx *Index, d *xmltree.Document, p Path, nodes []*xmltree.Node) ([]*xmltree.Node, error) {
	b := newBitEval(se, idx, d)
	defer b.release()
	ctx := b.get()
	for _, n := range nodes {
		ctx.Add(n.Ord())
	}
	res, err := b.path(p, ctx)
	if err != nil {
		return nil, err
	}
	return b.materialize(res), nil
}

// bitEval is one ordinal evaluation. It tracks every pooled set it
// obtained (owned) so release can return each to the pool exactly once
// no matter how evaluation unwound; recycle moves a set to the free
// list for reuse within this evaluation without touching ownership.
// A bitEval is single-goroutine, like the seqEval it wraps.
//
// bitEvals themselves are pooled, so the owned and free lists and the
// walk stack keep their capacity from one evaluation to the next
// instead of regrowing per request.
type bitEval struct {
	se    *seqEval
	idx   *Index
	doc   *xmltree.Document
	owned []*nodeset.Set
	free  []*nodeset.Set
	conts []cont // node-local qualifier walk stack; see cont
}

var bitEvals = sync.Pool{New: func() any { return new(bitEval) }}

// newBitEval takes a bitEval from the pool; release returns it.
func newBitEval(se *seqEval, idx *Index, d *xmltree.Document) *bitEval {
	b := bitEvals.Get().(*bitEval)
	b.se, b.idx, b.doc = se, idx, d
	return b
}

// get returns a cleared set over the document's ordinal universe,
// reusing an evaluation-local recycled set before hitting the pool.
func (b *bitEval) get() *nodeset.Set {
	if n := len(b.free); n > 0 {
		s := b.free[n-1]
		b.free = b.free[:n-1]
		s.Reset(b.doc.Size())
		return s
	}
	s := nodeset.Get(b.doc.Size())
	b.owned = append(b.owned, s)
	return s
}

// recycle makes a set available to the next get of this evaluation.
// The set stays on the owned list; callers just stop using it.
func (b *bitEval) recycle(s *nodeset.Set) {
	b.free = append(b.free, s)
}

// release returns every owned set to the pool, then b itself. After
// release neither b nor any set handed out by get may be used —
// evalOrdinal materializes the result into a fresh slice before
// releasing.
func (b *bitEval) release() {
	for _, s := range b.owned {
		nodeset.Put(s)
	}
	clear(b.owned)
	clear(b.free)
	clear(b.conts[:cap(b.conts)])
	*b = bitEval{owned: b.owned[:0], free: b.free[:0], conts: b.conts[:0]}
	bitEvals.Put(b)
}

// materialize maps a result set back to nodes through the document's
// node table. Empty results stay nil, matching the slice evaluator.
// This is the only per-result allocation of the ordinal path.
func (b *bitEval) materialize(s *nodeset.Set) []*xmltree.Node {
	k := s.Count()
	if k == 0 {
		return nil
	}
	byOrd := b.doc.Nodes()
	out := make([]*xmltree.Node, 0, k)
	s.ForEach(func(ord int) { out = append(out, byOrd[ord]) })
	return out
}

// path mirrors seqEval.path case for case over bitsets. The context
// set is borrowed: path never mutates or retains it, and the returned
// set is always a distinct set the caller may mutate or recycle.
func (b *bitEval) path(p Path, ctx *nodeset.Set) (*nodeset.Set, error) {
	if ctx.Empty() {
		return b.get(), nil
	}
	if err := b.se.tick(); err != nil {
		return nil, err
	}
	byOrd := b.doc.Nodes()
	switch p := p.(type) {
	case Empty:
		return b.get(), nil
	case Self:
		out := b.get()
		out.Or(ctx)
		return out, nil
	case Label:
		out := b.get()
		ctx.ForEach(func(ord int) {
			for _, c := range byOrd[ord].Children {
				if c.Label == p.Name {
					out.Add(c.Ord())
				}
			}
		})
		return out, nil
	case Wildcard:
		out := b.get()
		ctx.ForEach(func(ord int) {
			for _, c := range byOrd[ord].Children {
				if c.Kind == xmltree.ElementNode {
					out.Add(c.Ord())
				}
			}
		})
		return out, nil
	case Seq:
		mid, err := b.path(p.Left, ctx)
		if err != nil {
			return nil, err
		}
		out, err := b.path(p.Right, mid)
		b.recycle(mid)
		return out, err
	case Descend:
		if out, ok, err := b.descendViaIndex(p.Sub, ctx); ok || err != nil {
			return out, err
		}
		dos, err := b.descendantOrSelf(ctx)
		if err != nil {
			return nil, err
		}
		out, err := b.path(p.Sub, dos)
		b.recycle(dos)
		return out, err
	case Union:
		left, err := b.path(p.Left, ctx)
		if err != nil {
			return nil, err
		}
		right, err := b.path(p.Right, ctx)
		if err != nil {
			return nil, err
		}
		left.Or(right)
		b.recycle(right)
		return left, nil
	case Qualified:
		mid, err := b.path(p.Sub, ctx)
		if err != nil {
			return nil, err
		}
		out := b.get()
		var loopErr error
		mid.ForEachUntil(func(ord int) bool {
			if loopErr = b.se.tick(); loopErr != nil {
				return false
			}
			hold, err := b.qual(p.Cond, byOrd[ord])
			if err != nil {
				loopErr = err
				return false
			}
			if hold {
				out.Add(ord)
			}
			return true
		})
		b.recycle(mid)
		if loopErr != nil {
			return nil, loopErr
		}
		return out, nil
	case Rec:
		return b.evalRec(p, ctx)
	default:
		return nil, fmt.Errorf("evalPath: unknown path node %T", p)
	}
}

// descendantOrSelf is the bit-range-fill form of the descendant step:
// iterate the context's ordinals ascending, skip any ordinal nested in
// the previous subtree interval (intervals are laminar, so that drops
// exactly the covered duplicates), and fill [ord, ord+desc] for each
// maximal interval. tickN keeps the nodes-visited count and the
// cancellation poll rate honest with the slice path's interval walk.
func (b *bitEval) descendantOrSelf(ctx *nodeset.Set) (*nodeset.Set, error) {
	out := b.get()
	byOrd := b.doc.Nodes()
	limit := -1
	var loopErr error
	ctx.ForEachUntil(func(ord int) bool {
		if ord <= limit {
			return true // nested inside the previous interval
		}
		hi := ord + byOrd[ord].DescendantCount()
		if loopErr = b.se.tickN(hi - ord + 1); loopErr != nil {
			return false
		}
		out.AddRange(ord, hi)
		limit = hi
		return true
	})
	if loopErr != nil {
		return nil, loopErr
	}
	return out, nil
}

// descendViaIndex is the ordinal form of the indexed //label shortcut:
// the context's descendant-or-self cover becomes a range-filled bitset,
// and the posting-list filter is one Has per candidate parent instead
// of a prefix-maxima binary search. ok is false when there is no index,
// the head is not a label step, or the selectivity heuristic prefers
// the subtree fill (context cover smaller than the posting list).
func (b *bitEval) descendViaIndex(sub Path, ctx *nodeset.Set) (*nodeset.Set, bool, error) {
	if b.idx == nil {
		return nil, false, nil
	}
	head, rest := splitHead(sub)
	label, ok := head.(Label)
	if !ok {
		return nil, false, nil
	}
	candidates := b.idx.Labeled(label.Name)
	if len(candidates) == 0 {
		return b.get(), true, nil
	}
	// Build the cover set and its size in one pass over the maximal
	// subtree intervals; the fill is O(universe/64) words, cheap enough
	// to discard if the heuristic then prefers the walk.
	cover := b.get()
	byOrd := b.doc.Nodes()
	size, limit := 0, -1
	ctx.ForEach(func(ord int) {
		if ord <= limit {
			return
		}
		hi := ord + byOrd[ord].DescendantCount()
		cover.AddRange(ord, hi)
		size += hi - ord + 1
		limit = hi
	})
	if size < len(candidates) {
		b.recycle(cover)
		return nil, false, nil
	}
	matched := b.get()
	for _, c := range candidates {
		if err := b.se.tick(); err != nil {
			return nil, true, err
		}
		if c.Parent != nil && cover.Has(c.Parent.Ord()) {
			matched.Add(c.Ord())
		}
	}
	b.recycle(cover)
	if rest == nil {
		return matched, true, nil
	}
	out, err := b.path(rest, matched)
	b.recycle(matched)
	return out, true, err
}

// qual mirrors seqEval.qual, but decides each qualifier path at the one
// candidate node it is asked about: QPath and QEq run exists, a
// depth-first walk from v that stops at the first witness, instead of
// materializing v⟦p⟧ as a document-sized set. Only a Rec step inside the
// path still evaluates set-at-a-time (pathAtNode), because its product
// search needs visited rows. String values compare through TextEquals,
// so a qualifier check allocates nothing.
func (b *bitEval) qual(q Qual, v *xmltree.Node) (bool, error) {
	switch q := q.(type) {
	case QTrue:
		return true, nil
	case QFalse:
		return false, nil
	case QPath:
		return b.exists(q.Path, v, accept)
	case QEq:
		if q.Var != "" {
			return false, fmt.Errorf("unbound variable $%s in qualifier", q.Var)
		}
		return b.within(cont{value: q.Value, eq: true, next: accept}, q.Path, v)
	case QAttrEq:
		val, ok := v.Attr(q.Name)
		return ok && val == q.Value, nil
	case QAttrHas:
		_, ok := v.Attr(q.Name)
		return ok, nil
	case QAnd:
		left, err := b.qual(q.Left, v)
		if err != nil || !left {
			return false, err
		}
		return b.qual(q.Right, v)
	case QOr:
		left, err := b.qual(q.Left, v)
		if err != nil || left {
			return left, err
		}
		return b.qual(q.Right, v)
	case QNot:
		hold, err := b.qual(q.Sub, v)
		return !hold && err == nil, err
	default:
		return false, fmt.Errorf("EvalQual: unknown qualifier node %T", q)
	}
}

// cont is what a node-local walk still owes once it reaches a node:
// walk p from it, check cond at it, or compare its string value (eq),
// then continue with next. Conts are indices into the evaluation's
// b.conts stack, which is reused by every qualifier check and, with
// the pooled bitEval, by later evaluations, so a walk allocates nothing
// once the stack has grown to the query's nesting depth; accept is the
// empty continuation.
//
// lo..hi remembers the last subtree interval from which a Descend p
// found no witness: next is the same on every resume of this cont, so
// no node inside that interval can succeed either, and nested //-steps
// skip it instead of rescanning it.
type cont struct {
	p      Path
	cond   Qual
	value  string
	eq     bool
	next   int
	lo, hi int
}

const accept = -1

// within pushes c, walks p from v with c as the continuation, and pops
// c again.
func (b *bitEval) within(c cont, p Path, v *xmltree.Node) (bool, error) {
	k := len(b.conts)
	c.hi = -1
	b.conts = append(b.conts, c)
	hold, err := b.exists(p, v, k)
	b.conts = b.conts[:k]
	return hold, err
}

// resume continues a walk at node w, reporting whether continuation k
// is satisfied there.
func (b *bitEval) resume(k int, w *xmltree.Node) (bool, error) {
	if k == accept {
		return true, nil
	}
	c := &b.conts[k]
	switch {
	case c.eq:
		return w.TextEquals(c.value), nil
	case c.cond != nil:
		next := c.next // b.qual may grow b.conts under c
		hold, err := b.qual(c.cond, w)
		if err != nil || !hold {
			return false, err
		}
		return b.resume(next, w)
	}
	if _, ok := c.p.(Descend); !ok {
		return b.exists(c.p, w, c.next)
	}
	ord := w.Ord()
	if c.lo <= ord && ord <= c.hi {
		return false, nil
	}
	hold, err := b.exists(c.p, w, c.next)
	if err == nil && !hold {
		// The walk may have grown b.conts; index afresh.
		b.conts[k].lo, b.conts[k].hi = ord, ord+w.DescendantCount()
	}
	return hold, err
}

// exists reports whether some node of v⟦p⟧ satisfies k. It walks
// depth-first in query order and returns at the first witness; it
// recurses on the query, never on the document, and ticks once per
// node it examines so cancellation stays as prompt as in the set-at-a-
// time steps.
func (b *bitEval) exists(p Path, v *xmltree.Node, k int) (bool, error) {
	switch p := p.(type) {
	case Empty:
		return false, nil
	case Self:
		return b.resume(k, v)
	case Label:
		for _, c := range v.Children {
			if err := b.se.tick(); err != nil {
				return false, err
			}
			if c.Label == p.Name {
				if hold, err := b.resume(k, c); hold || err != nil {
					return hold, err
				}
			}
		}
		return false, nil
	case Wildcard:
		for _, c := range v.Children {
			if err := b.se.tick(); err != nil {
				return false, err
			}
			if c.Kind == xmltree.ElementNode {
				if hold, err := b.resume(k, c); hold || err != nil {
					return hold, err
				}
			}
		}
		return false, nil
	case Seq:
		return b.within(cont{p: p.Right, next: k}, p.Left, v)
	case Union:
		hold, err := b.exists(p.Left, v, k)
		if hold || err != nil {
			return hold, err
		}
		return b.exists(p.Right, v, k)
	case Qualified:
		return b.within(cont{cond: p.Cond, next: k}, p.Sub, v)
	case Descend:
		return b.descendExists(p.Sub, v, k)
	case Rec:
		res, err := b.pathAtNode(p, v)
		if err != nil {
			return false, err
		}
		byOrd := b.doc.Nodes()
		hold := false
		res.ForEachUntil(func(ord int) bool {
			hold, err = b.resume(k, byOrd[ord])
			return !hold && err == nil
		})
		b.recycle(res)
		return hold, err
	default:
		return false, fmt.Errorf("evalPath: unknown path node %T", p)
	}
}

// descendExists is exists for //sub: it iterates v's subtree interval
// [ord, ord+DescendantCount] in the node table. A label or wildcard sub
// selects exactly the strict descendants it matches, so those scan the
// interval once in document order; any other sub is walked from every
// node of the interval.
func (b *bitEval) descendExists(sub Path, v *xmltree.Node, k int) (bool, error) {
	lo := v.Ord()
	nodes := b.doc.Nodes()[lo : lo+v.DescendantCount()+1]
	for _, w := range nodes {
		if err := b.se.tick(); err != nil {
			return false, err
		}
		var hold bool
		var err error
		switch sub := sub.(type) {
		case Label:
			if w == v || w.Label != sub.Name {
				continue
			}
			hold, err = b.resume(k, w)
		case Wildcard:
			if w == v || w.Kind != xmltree.ElementNode {
				continue
			}
			hold, err = b.resume(k, w)
		default:
			hold, err = b.exists(sub, w, k)
		}
		if hold || err != nil {
			return hold, err
		}
	}
	return false, nil
}

// pathAtNode evaluates a path set-at-a-time at one context node: the
// fallback for a Rec step inside a qualifier.
func (b *bitEval) pathAtNode(p Path, v *xmltree.Node) (*nodeset.Set, error) {
	ctx := b.get()
	ctx.Add(v.Ord())
	res, err := b.path(p, ctx)
	b.recycle(ctx)
	return res, err
}

// evalRec is the product reachability of rec.go over bitset rows: the
// visited set keeps one row per view state (visited[s].Has(ord) ⇔
// (node, s) seen), and frontiers are sets, so per-level dedup against
// everything already visited is one AndNot instead of a map probe per
// (node, state) pair. States iterate in sorted order like the slice
// form, keeping σ evaluation order — and therefore tick counts —
// deterministic.
func (b *bitEval) evalRec(p Rec, ctx *nodeset.Set) (*nodeset.Set, error) {
	out := b.get()
	if p.G == nil {
		return out, nil
	}
	visited := make(map[string]*nodeset.Set, len(p.G.states))
	row := func(state string) *nodeset.Set {
		r := visited[state]
		if r == nil {
			r = b.get()
			visited[state] = r
		}
		return r
	}
	start := b.get()
	start.Or(ctx)
	row(p.Start).Or(ctx)
	frontier := map[string]*nodeset.Set{p.Start: start}
	states := make([]string, 0, len(p.G.states))
	for len(frontier) > 0 {
		states = states[:0]
		for s := range frontier {
			states = append(states, s)
		}
		sort.Strings(states)
		next := map[string]*nodeset.Set{}
		for _, s := range states {
			nodes := frontier[s]
			if s == p.Accept {
				out.Or(nodes)
			}
			for _, edge := range p.G.edges[s] {
				hit, err := b.path(edge.Sig, nodes)
				if err != nil {
					return nil, err
				}
				hit.AndNot(row(edge.To))
				if !hit.Empty() {
					row(edge.To).Or(hit)
					ns := next[edge.To]
					if ns == nil {
						ns = b.get()
						next[edge.To] = ns
					}
					ns.Or(hit)
				}
				b.recycle(hit)
			}
			b.recycle(nodes)
		}
		frontier = next
	}
	for _, r := range visited {
		b.recycle(r)
	}
	return out, nil
}
