package xpath

import (
	"context"

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
// untrusted queries should go through EvalIndexedCtx.
func EvalIndexed(p Path, idx *Index) []*xmltree.Node {
	out, err := EvalIndexedCtx(nil, p, idx)
	if err != nil {
		panic("xpath: " + err.Error())
	}
	return out
}

// EvalIndexedCtx is EvalIndexed returning an error instead of panicking
// and honoring a context exactly like EvalDocCtx. When the indexed
// document is compacted, evaluation takes the bitset path and answers
// label-headed descendant steps from the posting lists; otherwise it is
// the plain slice walk, which gives the same answers. A nil context
// disables the cancellation checks.
func EvalIndexedCtx(ctx context.Context, p Path, idx *Index) ([]*xmltree.Node, error) {
	out, _, err := evalNodes(ctx, p, []*xmltree.Node{idx.doc.Root}, idx)
	return out, err
}

// EvalIndexedCtxCounted is EvalIndexedCtx additionally reporting the
// evaluation's cooperation ticks as a nodes-visited proxy, mirroring
// EvalDocCtxCounted. The count is maintained only when ctx is non-nil.
func EvalIndexedCtxCounted(ctx context.Context, p Path, idx *Index) ([]*xmltree.Node, uint64, error) {
	return evalNodes(ctx, p, []*xmltree.Node{idx.doc.Root}, idx)
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
