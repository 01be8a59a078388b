package xpath

import (
	"context"
	"fmt"
	"time"

	"repro/internal/xmltree"
)

// Eval evaluates the query at a single context node and returns the
// selected nodes in document order without duplicates (the paper's v⟦p⟧).
// The query must not contain unbound variables; bind them first with
// BindVars. Eval panics on unbound variables — untrusted queries should
// go through EvalAtCtx instead.
func Eval(p Path, ctx *xmltree.Node) []*xmltree.Node {
	out, err := EvalAtCtx(nil, p, []*xmltree.Node{ctx})
	if err != nil {
		panic("xpath: " + err.Error())
	}
	return out
}

// EvalDoc evaluates a query over a whole document, using the document
// root as the context node. Queries written with a leading '/' or '//'
// behave as in standard XPath because Parse treats the root element as
// the context: //a finds every a including the root itself. It panics on
// unbound variables; see EvalDocErr.
func EvalDoc(p Path, doc *xmltree.Document) []*xmltree.Node {
	return Eval(p, doc.Root)
}

// EvalDocErr is EvalDoc returning an error instead of panicking.
func EvalDocErr(p Path, doc *xmltree.Document) ([]*xmltree.Node, error) {
	return EvalDocCtx(nil, p, doc)
}

// EvalDocCtx is EvalDocErr honoring a context: evaluation checks for
// cancellation cooperatively (at every path step, and periodically inside
// descendant walks and qualifier-filter loops) and returns ctx.Err() once
// the context is done. A nil context disables the checks.
func EvalDocCtx(ctx context.Context, p Path, doc *xmltree.Document) ([]*xmltree.Node, error) {
	out, _, err := evalNodes(ctx, p, []*xmltree.Node{doc.Root}, nil)
	return out, err
}

// EvalDocCtxCounted is EvalDocCtx additionally reporting the
// evaluation's cooperation ticks — one per path step plus one per node
// in the hot loops (descendant walks, qualifier filtering) — as a
// nodes-visited proxy for observability. The count is maintained only
// when ctx is non-nil (the tick counter rides the cancellation
// machinery); the serving layer always passes a real context.
func EvalDocCtxCounted(ctx context.Context, p Path, doc *xmltree.Document) ([]*xmltree.Node, uint64, error) {
	return evalNodes(ctx, p, []*xmltree.Node{doc.Root}, nil)
}

// EvalAtCtx evaluates at a set of context nodes and returns the union of
// the per-node results in document order without duplicates, honoring
// ctx like EvalDocCtx.
func EvalAtCtx(ctx context.Context, p Path, nodes []*xmltree.Node) ([]*xmltree.Node, error) {
	out, _, err := evalNodes(ctx, p, nodes, nil)
	return out, err
}

// evalNodes is the one evaluation routine behind every entry point.
// Contexts whose nodes all carry fresh numbering from one compacted
// document take the ordinal (bitset) path — same results, same
// cancellation behavior, near-zero intermediate allocation; see
// bitset_eval.go — and answer label-headed descendant steps from idx's
// posting lists when idx indexes that document. Every other context is
// the slice walk (seqEval.path), which is also the reference the
// differential suites check the bitset path against.
func evalNodes(ctx context.Context, p Path, nodes []*xmltree.Node, idx *Index) ([]*xmltree.Node, uint64, error) {
	e := newSeqEval(ctx)
	if err := e.cancelled(); err != nil {
		return nil, 0, err
	}
	if d := ordinalDoc(nodes); d != nil {
		if idx != nil && idx.doc != d {
			idx = nil // posting lists must not filter another document's ordinals
		}
		out, err := evalOrdinal(e, idx, d, p, nodes)
		return out, uint64(e.ticks), err
	}
	out, err := e.path(p, nodes)
	if err != nil {
		return nil, uint64(e.ticks), err
	}
	return xmltree.SortDocOrder(out), uint64(e.ticks), nil
}

// tickMask sets the cooperative cancellation poll rate: one ctx.Done()
// check per tickMask+1 ticks. Ticks fire once per path step and once per
// node in the hot loops (descendant collection, qualifier filtering), so
// a 1ms deadline is noticed within microseconds even mid-step on a large
// document, while the common uncancellable evaluation pays one counter
// increment per tick.
const tickMask = 127

// seqEval is one evaluation's cancellation state: the optional context
// and the tick counter that rate-limits polling it. It is also the slice
// walk itself (path, qual). A seqEval is used by a single goroutine.
type seqEval struct {
	ctx      context.Context
	ticks    uint
	deadline time.Time
	timed    bool
}

// newSeqEval captures the context's deadline once so every poll can
// compare against the clock directly; see pollCtx.
func newSeqEval(ctx context.Context) *seqEval {
	e := &seqEval{ctx: ctx}
	if ctx != nil {
		e.deadline, e.timed = ctx.Deadline()
	}
	return e
}

// pollCtx reports whether the context is done, without blocking. Beyond
// the ctx.Done() select it also checks an expired deadline against the
// clock: the runtime timer that closes Done can lag the deadline by tens
// of milliseconds when a CPU-bound evaluation monopolizes a single-P
// scheduler, and a deadline the caller set must cut the query off even
// then.
func pollCtx(ctx context.Context, deadline time.Time, timed bool) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	if timed && !time.Now().Before(deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// tick advances the poll counter and reports ctx.Err() when the context
// is done. It is cheap enough for per-node loops.
func (e *seqEval) tick() error {
	if e.ctx == nil {
		return nil
	}
	e.ticks++
	if e.ticks&tickMask != 0 {
		return nil
	}
	return e.cancelled()
}

// cancelled polls the context immediately (no tick rate limit).
func (e *seqEval) cancelled() error {
	if e.ctx == nil {
		return nil
	}
	return pollCtx(e.ctx, e.deadline, e.timed)
}

// tickN advances the poll counter by n at once — the bulk form of tick
// for interval fast paths that take whole subtrees per operation instead
// of visiting nodes one by one. It polls the context iff the jump
// crossed a poll boundary, preserving tick's at-least-once-per-128-ticks
// cancellation granularity and keeping the ticks count an honest
// nodes-visited proxy.
func (e *seqEval) tickN(n int) error {
	if e.ctx == nil || n <= 0 {
		return nil
	}
	old := e.ticks
	e.ticks += uint(n)
	if old>>7 == e.ticks>>7 {
		return nil
	}
	return e.cancelled()
}

func (e *seqEval) path(p Path, ctx []*xmltree.Node) ([]*xmltree.Node, error) {
	if len(ctx) == 0 {
		return nil, nil
	}
	if err := e.tick(); err != nil {
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
		mid, err := e.path(p.Left, ctx)
		if err != nil {
			return nil, err
		}
		return e.path(p.Right, xmltree.SortDocOrder(mid))
	case Descend:
		// descendant-or-self, then p.Sub.
		dos, err := e.descendantOrSelf(ctx)
		if err != nil {
			return nil, err
		}
		return e.path(p.Sub, dos)
	case Union:
		left, err := e.path(p.Left, ctx)
		if err != nil {
			return nil, err
		}
		right, err := e.path(p.Right, ctx)
		if err != nil {
			return nil, err
		}
		// Dedup eagerly: overlapping branches would otherwise hand
		// duplicate nodes to an enclosing context, and while every
		// consumer re-sorts today, keeping the invariant local makes it
		// impossible to leak duplicates through a new consumer.
		return xmltree.SortDocOrder(append(left, right...)), nil
	case Qualified:
		mid, err := e.path(p.Sub, ctx)
		if err != nil {
			return nil, err
		}
		var out []*xmltree.Node
		for _, v := range xmltree.SortDocOrder(mid) {
			if err := e.tick(); err != nil {
				return nil, err
			}
			hold, err := e.qual(p.Cond, v)
			if err != nil {
				return nil, err
			}
			if hold {
				out = append(out, v)
			}
		}
		return out, nil
	case Rec:
		return e.rec(p, ctx)
	default:
		return nil, fmt.Errorf("evalPath: unknown path node %T", p)
	}
}

// descendantOrSelf collects the context nodes and all their descendants
// in document order without duplicates, polling for cancellation as it
// walks.
//
// On renumbered documents it is interval arithmetic, not a walk: each
// node's subtree is the contiguous byOrd range [ord, ord+desc], so a
// single context node's descendant-or-self set IS Subtree() — a shared
// subslice of the document's node table, returned with zero copying —
// and a multi-node context concatenates the maximal (non-nested)
// subtree intervals in document order. Subtree intervals are laminar
// (nested or disjoint, never partially overlapping), so skipping any
// context node whose ord lies inside the previous interval drops
// exactly the covered duplicates. Callers never mutate context slices
// (path's Self case copies), which is what makes sharing byOrd safe.
func (e *seqEval) descendantOrSelf(ctx []*xmltree.Node) ([]*xmltree.Node, error) {
	if len(ctx) == 1 {
		if sub := ctx[0].Subtree(); sub != nil {
			return sub, e.tickN(len(sub))
		}
	}
	if sorted, ok := subtreeIntervals(ctx); ok {
		var dos []*xmltree.Node
		limit := -1
		for _, v := range sorted {
			if v.Ord() <= limit {
				continue // nested inside the previous interval
			}
			sub := v.Subtree()
			if err := e.tickN(len(sub)); err != nil {
				return nil, err
			}
			dos = append(dos, sub...)
			limit = v.Ord() + v.DescendantCount()
		}
		return dos, nil
	}
	var walkErr error
	var dos []*xmltree.Node
	seen := make(map[*xmltree.Node]bool)
	for _, v := range ctx {
		v.Walk(func(n *xmltree.Node) bool {
			if walkErr != nil || seen[n] {
				return false
			}
			if walkErr = e.tick(); walkErr != nil {
				return false
			}
			seen[n] = true
			dos = append(dos, n)
			return true
		})
		if walkErr != nil {
			return nil, walkErr
		}
	}
	return xmltree.SortDocOrder(dos), nil
}

// subtreeIntervals prepares a context for interval-based descendant
// collection: every node must carry fresh numbering from the same
// document (Owner non-nil and shared). It returns a sorted,
// deduplicated copy of the context, or ok=false to demand the walk
// fallback.
func subtreeIntervals(ctx []*xmltree.Node) ([]*xmltree.Node, bool) {
	if len(ctx) == 0 {
		return nil, false
	}
	d := ctx[0].Owner()
	if d == nil {
		return nil, false
	}
	for _, v := range ctx[1:] {
		if v.Owner() != d {
			return nil, false
		}
	}
	return xmltree.SortDocOrder(append([]*xmltree.Node(nil), ctx...)), true
}

// EvalQual evaluates a qualifier at a context node (the paper's "[q]
// holds at v"). It panics on unbound $variables; untrusted qualifiers
// should go through EvalQualErr.
func EvalQual(q Qual, v *xmltree.Node) bool {
	hold, err := EvalQualErr(q, v)
	if err != nil {
		panic("xpath: " + err.Error())
	}
	return hold
}

// EvalQualErr is EvalQual returning an error instead of panicking on
// unbound $variables or malformed AST nodes.
func EvalQualErr(q Qual, v *xmltree.Node) (bool, error) {
	return (&seqEval{}).qual(q, v)
}

func (e *seqEval) qual(q Qual, v *xmltree.Node) (bool, error) {
	switch q := q.(type) {
	case QTrue:
		return true, nil
	case QFalse:
		return false, nil
	case QPath:
		res, err := e.path(q.Path, []*xmltree.Node{v})
		return len(res) > 0, err
	case QEq:
		if q.Var != "" {
			return false, fmt.Errorf("unbound variable $%s in qualifier", q.Var)
		}
		res, err := e.path(q.Path, []*xmltree.Node{v})
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
		left, err := e.qual(q.Left, v)
		if err != nil || !left {
			return false, err
		}
		return e.qual(q.Right, v)
	case QOr:
		left, err := e.qual(q.Left, v)
		if err != nil || left {
			return left, err
		}
		return e.qual(q.Right, v)
	case QNot:
		hold, err := e.qual(q.Sub, v)
		return !hold && err == nil, err
	default:
		return false, fmt.Errorf("EvalQual: unknown qualifier node %T", q)
	}
}
