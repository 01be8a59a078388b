package xpath

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/xmltree"
)

// Index is a per-document label index: for each element label (and the
// text pseudo-label) the document's nodes in document order. It speeds up
// descendant steps the way the paper's "state-of-the-art" evaluator [17]
// avoids full scans: //l becomes an index lookup plus an ancestor filter
// instead of a subtree walk. Build one per document and reuse it across
// queries; it becomes stale if the document mutates.
type Index struct {
	doc     *xmltree.Document
	byLabel map[string][]*xmltree.Node
}

// NewIndex builds the label index in one pass. Renumbered documents are
// indexed straight off their node table (already in document order);
// trees without one fall back to a walk.
func NewIndex(doc *xmltree.Document) *Index {
	idx := &Index{doc: doc, byLabel: make(map[string][]*xmltree.Node)}
	if nodes := doc.Nodes(); nodes != nil {
		for _, n := range nodes {
			idx.byLabel[n.Label] = append(idx.byLabel[n.Label], n)
		}
		return idx
	}
	doc.Root.Walk(func(n *xmltree.Node) bool {
		idx.byLabel[n.Label] = append(idx.byLabel[n.Label], n)
		return true
	})
	return idx
}

// Doc returns the indexed document.
func (idx *Index) Doc() *xmltree.Document { return idx.doc }

// Labeled returns all nodes with the given label in document order. The
// slice is shared; callers must not mutate it.
func (idx *Index) Labeled(label string) []*xmltree.Node {
	return idx.byLabel[label]
}

// EvalIndexed evaluates a query at the document root using the index.
// Results are identical to EvalDoc. It panics on unbound $variables;
// untrusted queries should go through EvalIndexedErr.
func EvalIndexed(p Path, idx *Index) []*xmltree.Node {
	out, err := EvalIndexedErr(p, idx)
	if err != nil {
		panic("xpath: " + err.Error())
	}
	return out
}

// EvalIndexedErr is EvalIndexed returning an error instead of panicking
// on unbound $variables or malformed AST nodes — the same contract as
// EvalDocErr.
func EvalIndexedErr(p Path, idx *Index) ([]*xmltree.Node, error) {
	return EvalIndexedCtx(nil, p, idx)
}

// EvalIndexedCtx is EvalIndexedErr honoring a context: evaluation polls
// for cancellation cooperatively — at every path step and periodically
// inside posting-list scans, descendant walks, and qualifier-filter
// loops — and returns ctx.Err() once the context is done, exactly like
// EvalDocCtx. A nil context disables the checks.
func EvalIndexedCtx(ctx context.Context, p Path, idx *Index) ([]*xmltree.Node, error) {
	return EvalIndexedAtCtx(ctx, p, idx, []*xmltree.Node{idx.doc.Root})
}

// EvalIndexedCtxCounted is EvalIndexedCtx additionally reporting the
// evaluation's cooperation ticks as a nodes-visited proxy, mirroring
// EvalDocCtxCounted. The count is maintained only when ctx is non-nil.
func EvalIndexedCtxCounted(ctx context.Context, p Path, idx *Index) ([]*xmltree.Node, uint64, error) {
	e := indexedEvaluator{idx: idx, se: newSeqEval(ctx)}
	if err := e.se.cancelled(); err != nil {
		return nil, 0, err
	}
	root := []*xmltree.Node{idx.doc.Root}
	if d := ordinalDoc(root); d == idx.doc {
		out, err := evalOrdinal(e.se, idx, d, p, root)
		return out, uint64(e.se.ticks), err
	}
	out, err := e.eval(p, root)
	if err != nil {
		return nil, uint64(e.se.ticks), err
	}
	return xmltree.SortDocOrder(out), uint64(e.se.ticks), nil
}

// EvalIndexedAt evaluates at a set of context nodes using the index. It
// panics on unbound $variables; see EvalIndexedAtCtx.
func EvalIndexedAt(p Path, idx *Index, ctx []*xmltree.Node) []*xmltree.Node {
	out, err := EvalIndexedAtCtx(nil, p, idx, ctx)
	if err != nil {
		panic("xpath: " + err.Error())
	}
	return out
}

// EvalIndexedAtCtx is the context-honoring, error-returning form of
// EvalIndexedAt; see EvalIndexedCtx.
func EvalIndexedAtCtx(goCtx context.Context, p Path, idx *Index, ctx []*xmltree.Node) ([]*xmltree.Node, error) {
	e := indexedEvaluator{idx: idx, se: newSeqEval(goCtx)}
	if err := e.se.cancelled(); err != nil {
		return nil, err
	}
	// The ordinal path additionally requires the context to be owned by
	// the indexed document itself — posting lists from one document must
	// not filter against another's ordinals.
	if d := ordinalDoc(ctx); d != nil && d == idx.doc {
		return evalOrdinal(e.se, idx, d, p, ctx)
	}
	out, err := e.eval(p, ctx)
	if err != nil {
		return nil, err
	}
	return xmltree.SortDocOrder(out), nil
}

// indexedEvaluator evaluates with the label index, sharing the
// sequential evaluator's cancellation/tick machinery (se) so indexed
// evaluation honors the same deadline-promptness and nodes-visited
// contracts as the walk evaluator.
type indexedEvaluator struct {
	idx *Index
	se  *seqEval
}

func (e indexedEvaluator) eval(p Path, ctx []*xmltree.Node) ([]*xmltree.Node, error) {
	if len(ctx) == 0 {
		return nil, nil
	}
	if err := e.se.tick(); err != nil {
		return nil, err
	}
	switch p := p.(type) {
	case Empty:
		return nil, nil
	case Self:
		return append([]*xmltree.Node(nil), ctx...), nil
	case Label:
		var out []*xmltree.Node
		for _, v := range ctx {
			for _, c := range v.Children {
				if c.Label == p.Name {
					out = append(out, c)
				}
			}
		}
		return out, nil
	case Wildcard:
		var out []*xmltree.Node
		for _, v := range ctx {
			for _, c := range v.Children {
				if c.Kind == xmltree.ElementNode {
					out = append(out, c)
				}
			}
		}
		return out, nil
	case Seq:
		mid, err := e.eval(p.Left, ctx)
		if err != nil {
			return nil, err
		}
		return e.eval(p.Right, xmltree.SortDocOrder(mid))
	case Descend:
		// The index shortcut: //l and //l[...] pull the label's posting
		// list and keep entries with an ancestor-or-self in the context.
		hit, ok, err := e.descendViaIndex(p.Sub, ctx)
		if err != nil {
			return nil, err
		}
		if ok {
			return hit, nil
		}
		dos, err := e.se.descendantOrSelf(ctx)
		if err != nil {
			return nil, err
		}
		return e.eval(p.Sub, dos)
	case Union:
		left, err := e.eval(p.Left, ctx)
		if err != nil {
			return nil, err
		}
		right, err := e.eval(p.Right, ctx)
		if err != nil {
			return nil, err
		}
		return xmltree.SortDocOrder(append(left, right...)), nil
	case Qualified:
		mid, err := e.eval(p.Sub, ctx)
		if err != nil {
			return nil, err
		}
		var out []*xmltree.Node
		for _, v := range xmltree.SortDocOrder(mid) {
			if err := e.se.tick(); err != nil {
				return nil, err
			}
			hold, err := e.evalQual(p.Cond, v)
			if err != nil {
				return nil, err
			}
			if hold {
				out = append(out, v)
			}
		}
		return out, nil
	case Rec:
		// σ edges evaluate through e.eval, so residual descendant steps
		// inside them still benefit from the posting lists.
		return evalRec(p, ctx, e.eval)
	default:
		return nil, fmt.Errorf("evalPath: unknown path node %T", p)
	}
}

// descendViaIndex answers //sub when sub starts with a label step:
// posting-list lookup + ord-range context filter + evaluation of the
// remaining steps. ok is false when sub's head is not index-friendly or
// when walking the context subtrees is estimated cheaper than scanning
// the posting list (an index lookup inside a per-node qualifier would
// otherwise scan a global list for every candidate node).
func (e indexedEvaluator) descendViaIndex(sub Path, ctx []*xmltree.Node) ([]*xmltree.Node, bool, error) {
	head, rest := splitHead(sub)
	label, ok := head.(Label)
	if !ok {
		return nil, false, nil
	}
	candidates := e.idx.Labeled(label.Name)
	if len(candidates) == 0 {
		return nil, true, nil
	}
	// Selectivity heuristic: the walk visits every node under the context
	// once; the index path scans the whole posting list. Prefer the walk
	// when the context covers fewer nodes. Sizing must not double-count
	// overlapping context nodes (an ancestor plus its descendant), so use
	// CoverSize over the sorted, deduplicated set — the raw
	// DescendantCount sum over-estimated exactly there and steered
	// nested-qualifier evaluations onto full posting-list scans.
	sorted := xmltree.SortDocOrder(append([]*xmltree.Node(nil), ctx...))
	if xmltree.CoverSize(sorted) < len(candidates) {
		return nil, false, nil
	}
	matched, err := e.underContext(candidates, sorted)
	if err != nil {
		return nil, false, err
	}
	if rest == nil {
		return matched, true, nil
	}
	// matched is a subsequence of the posting list: already in document
	// order and duplicate-free, so no re-sort before the remaining steps.
	out, err := e.eval(rest, matched)
	return out, true, err
}

// underContext filters candidates whose parent lies at-or-under one of
// the context nodes, using the contiguous ord ranges of subtrees:
// contexts must arrive sorted in document order (SortDocOrder), and a
// candidate parent belongs to the last context starting at or before it
// iff that context's range covers it.
func (e indexedEvaluator) underContext(candidates, ctx []*xmltree.Node) ([]*xmltree.Node, error) {
	if len(ctx) == 1 && ctx[0] == e.idx.doc.Root {
		// Whole-document queries: every candidate except the root itself
		// has a parent under the root.
		var out []*xmltree.Node
		for _, c := range candidates {
			if err := e.se.tick(); err != nil {
				return nil, err
			}
			if c.Parent != nil {
				out = append(out, c)
			}
		}
		return out, nil
	}
	// Coverage test via prefix maxima: some context covers ord iff among
	// contexts starting at or before ord, the furthest-reaching subtree
	// end reaches ord.
	maxEnd := make([]int, len(ctx))
	for i, v := range ctx {
		end := v.Ord() + v.DescendantCount()
		if i > 0 && maxEnd[i-1] > end {
			end = maxEnd[i-1]
		}
		maxEnd[i] = end
	}
	var out []*xmltree.Node
	for _, c := range candidates {
		if err := e.se.tick(); err != nil {
			return nil, err
		}
		if c.Parent == nil {
			continue
		}
		ord := c.Parent.Ord()
		i := sort.Search(len(ctx), func(i int) bool { return ctx[i].Ord() > ord }) - 1
		if i >= 0 && maxEnd[i] >= ord {
			out = append(out, c)
		}
	}
	return out, nil
}

// splitHead splits a path into its first step and the remainder (nil when
// the path is a single step). Sequences are left-deep, so the head is the
// leftmost non-Seq node.
func splitHead(p Path) (Path, Path) {
	seq, ok := p.(Seq)
	if !ok {
		return p, nil
	}
	head, mid := splitHead(seq.Left)
	if mid == nil {
		return head, seq.Right
	}
	return head, Seq{Left: mid, Right: seq.Right}
}

func (e indexedEvaluator) evalQual(q Qual, v *xmltree.Node) (bool, error) {
	switch q := q.(type) {
	case QTrue:
		return true, nil
	case QFalse:
		return false, nil
	case QPath:
		res, err := e.eval(q.Path, []*xmltree.Node{v})
		return len(res) > 0, err
	case QEq:
		if q.Var != "" {
			return false, fmt.Errorf("unbound variable $%s in qualifier", q.Var)
		}
		res, err := e.eval(q.Path, []*xmltree.Node{v})
		if err != nil {
			return false, err
		}
		for _, n := range res {
			if n.TextEquals(q.Value) {
				return true, nil
			}
		}
		return false, nil
	case QAttrEq:
		val, ok := v.Attr(q.Name)
		return ok && val == q.Value, nil
	case QAttrHas:
		_, ok := v.Attr(q.Name)
		return ok, nil
	case QAnd:
		left, err := e.evalQual(q.Left, v)
		if err != nil || !left {
			return false, err
		}
		return e.evalQual(q.Right, v)
	case QOr:
		left, err := e.evalQual(q.Left, v)
		if err != nil || left {
			return left, err
		}
		return e.evalQual(q.Right, v)
	case QNot:
		hold, err := e.evalQual(q.Sub, v)
		return !hold && err == nil, err
	default:
		return false, fmt.Errorf("EvalQual: unknown qualifier node %T", q)
	}
}

// Ensure deterministic iteration in tests that inspect the index.
func (idx *Index) labels() []string {
	out := make([]string, 0, len(idx.byLabel))
	for l := range idx.byLabel {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}
