// Package rewrite implements the paper's Algorithm rewrite (Section 4,
// Fig. 6): given a security view V = (D_v, σ) and an XPath query p of the
// fragment C posed over the view, it computes an equivalent query p_t
// over the original document, so that p over the materialized view T_v
// and p_t over the document T return the same answer — completely
// bypassing view materialization.
//
// The algorithm is a dynamic program over (sub-query, view-DTD node)
// pairs: rw(p', A) is the local translation of p' at view type A and
// reach(p', A) the set of view types reachable from A via p'. The fixed
// query '//' is handled by the precomputation recProc, which derives for
// every pair (A, B) an XPath query recrw(A, B) capturing all label paths
// from A to B in the view DTD with σ spliced in; symbolic sharing of
// sub-expressions keeps recrw(A, B) linear in |D_v| even when the DAG has
// exponentially many paths.
//
// Recursive view DTDs admit two treatments. Section 4.2 unfolds the view
// DTD to the height of the concrete document, yielding a DAG the document
// is guaranteed to conform to — but plan size and identity then depend on
// document height (ForViewWithHeight keeps this path as a differential
// oracle). The default is height-free: following Mahfoud–Imine's
// standard-XPath-based technique, recursive '//' regions rewrite to a
// single Rec automaton node over the view's σ transition system
// (see recproc.go), so one plan per query serves documents of any height.
package rewrite

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/dtd"
	"repro/internal/obs"
	"repro/internal/secview"
	"repro/internal/xpath"
)

// Rewriter holds the per-view precomputation shared by all queries: the
// effective (possibly unfolded) DAG view DTD and the recProc tables. A
// Rewriter is safe for concurrent use; the DP memo is shared across
// queries under a mutex.
type Rewriter struct {
	mu   sync.Mutex
	view *secview.View
	dv   *dtd.DTD // effective DAG view DTD (unfolded copy when recursive)

	// orig maps effective type names to original view labels (identity for
	// non-recursive views; strips the @level suffix after unfolding).
	orig map[string]string
	// sigma maps effective production edges to σ queries over the document.
	sigma map[[2]string]xpath.Path

	// recProc results, computed lazily per source node.
	recReach map[string][]string
	recPaths map[string]map[string]xpath.Path

	// recGraph is the view's σ transition system, built lazily the first
	// time recProc meets a cyclic region (height-free mode only) and
	// shared by pointer across all Rec nodes the rewriter emits.
	recGraph *xpath.RecGraph

	// memo is the DP table: cells keyed on (subtree id, view type),
	// bounded by xpath.MemoBudget.
	memo *xpath.Memo

	// unfolded/height record whether this rewriter's view DTD was
	// unfolded (recursive view) and to what document height — pure
	// observability; the algorithm never reads them back.
	unfolded bool
	height   int
}

// ForView builds a rewriter for a security view. Recursive view DTDs are
// handled height-free: recursive '//' regions rewrite to Rec automaton
// nodes over the view's σ transition system, so the same plan is valid
// for documents of any height and never needs unfolding. Use
// ForViewWithHeight for the Section 4.2 unfolding path (kept as the
// differential oracle).
func ForView(v *secview.View) (*Rewriter, error) {
	return newRewriter(v, v.DTD, identityOrig(v.DTD)), nil
}

// ForViewWithHeight builds a rewriter that handles recursive view DTDs by
// unfolding them to the given document height (the number of edges on the
// longest root-to-leaf path of the concrete document, Section 4.2).
// Non-recursive views are used as-is regardless of height.
func ForViewWithHeight(v *secview.View, height int) (*Rewriter, error) {
	if !v.IsRecursive() {
		return newRewriter(v, v.DTD, identityOrig(v.DTD)), nil
	}
	if height < 0 {
		return nil, fmt.Errorf("rewrite: negative document height %d", height)
	}
	unfolded, orig, sigma := unfold(v, height)
	r := newRewriter(v, unfolded, orig)
	r.sigma = sigma
	r.unfolded = true
	r.height = height
	return r, nil
}

// Unfolded reports whether the view DTD was unfolded (recursive view);
// Height is the document height it was unfolded to (0 otherwise).
func (r *Rewriter) Unfolded() bool { return r.unfolded }

// Height returns the unfolding height; see Unfolded.
func (r *Rewriter) Height() int { return r.height }

// Mode names the rewriting strategy: "flat" for a non-recursive view,
// "height-free" for a recursive view rewritten via Rec automata, and
// "unfold" for the Section 4.2 oracle path.
func (r *Rewriter) Mode() string {
	switch {
	case r.unfolded:
		return "unfold"
	case r.view.IsRecursive():
		return "height-free"
	default:
		return "flat"
	}
}

// MemoLen returns the number of DP cells currently memoized, across
// both generations of the bounded memo — a proxy for the rewriter's
// working-set size, exposed for observability. It never exceeds
// 2·xpath.MemoBudget.
func (r *Rewriter) MemoLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.memo.Len()
}

func newRewriter(v *secview.View, dv *dtd.DTD, orig map[string]string) *Rewriter {
	r := &Rewriter{
		view:     v,
		dv:       dv,
		orig:     orig,
		sigma:    make(map[[2]string]xpath.Path),
		recReach: make(map[string][]string),
		recPaths: make(map[string]map[string]xpath.Path),
		memo:     xpath.NewMemo(),
	}
	for _, a := range dv.Types() {
		c := dv.MustProduction(a)
		if c.Kind == dtd.Text {
			if p, ok := v.Sigma(orig[a], dtd.TextLabel); ok {
				r.sigma[[2]string{a, dtd.TextLabel}] = p
			}
			continue
		}
		for _, it := range c.Items {
			if p, ok := v.Sigma(orig[a], orig[it.Name]); ok {
				r.sigma[[2]string{a, it.Name}] = p
			}
		}
	}
	return r
}

func identityOrig(d *dtd.DTD) map[string]string {
	m := make(map[string]string, d.Len())
	for _, t := range d.Types() {
		m[t] = t
	}
	return m
}

// Rewrite translates a view query into an equivalent document query
// p_t = rw(p, r) and simplifies it. A query that can select nothing on
// any view instance rewrites to ∅.
func (r *Rewriter) Rewrite(p xpath.Path) (xpath.Path, error) {
	return r.rewrite(context.Background(), p)
}

// rewrite interns p in one bottom-up pass and runs the DP from the view
// root, polling ctx (when non-nil) every few cells.
func (r *Rewriter) rewrite(ctx context.Context, p xpath.Path) (xpath.Path, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.memo.Begin(ctx)
	res := r.rw(r.memo.Intern(p), r.memo.State(r.dv.Root()))
	if err := r.memo.Err(); err != nil {
		return nil, err
	}
	return xpath.Simplify(res.Total()), nil
}

// RewriteCtx is Rewrite honoring a context: the DP polls it every few
// cells and returns ctx.Err() once it is done, storing no cell of the
// cut-short call. When the context carries a trace span, the rewrite is
// recorded as a child span carrying the input and output query sizes,
// the memo working set, and (for unfolded recursive views) the
// unfolding height.
func (r *Rewriter) RewriteCtx(ctx context.Context, p xpath.Path) (xpath.Path, error) {
	_, sp := obs.StartSpan(ctx, "rewrite")
	pt, err := r.rewrite(ctx, p)
	if sp != nil {
		sp.SetAttr("input_size", xpath.Size(p))
		if err == nil {
			sp.SetAttr("output_size", xpath.Size(pt))
		}
		if r.unfolded {
			sp.SetAttr("unfold_height", r.height)
		}
		sp.SetAttr("memo_cells", r.MemoLen())
		sp.Finish()
	}
	return pt, err
}

// RewriteString parses, rewrites, and prints in one step.
func (r *Rewriter) RewriteString(query string) (string, error) {
	p, err := xpath.Parse(query)
	if err != nil {
		return "", err
	}
	pt, err := r.Rewrite(p)
	if err != nil {
		return "", err
	}
	return xpath.String(pt), nil
}

// attrVisible reports whether a view type exposes the attribute: the
// type is not a dummy (a dummy's document node is hidden, attributes
// included) and the view DTD declares the attribute (derive drops denied
// ones during attlist projection).
func (r *Rewriter) attrVisible(a, name string) bool {
	orig := r.orig[a]
	if r.view.IsDummy(orig) {
		return false
	}
	_, ok := r.view.DTD.Attr(orig, name)
	return ok
}

// textType is the pseudo view type occupied after a text() step; it has
// no children and no σ edges.
const textType = "#text"

// rw computes the local translation rw(p', A) and reach(p', A) for the
// interned subtree i at view type a; results are memoized on (subtree
// id, view type), which is exactly the paper's DP table.
//
// A cell keeps the local translation *per reach target*. Keeping
// translations per target — rather than the single union rw(p', A) of
// Fig. 6 — is what makes step composition sound: in p1/p2, the
// continuation rewritten for target v is composed only onto the paths
// that lead to v, so a qualifier that is, say, false at v1 but true at
// v2 cannot leak across (see DESIGN.md, "Mixed-target step
// composition"). The union of the per-target translations, Cell.Total,
// is exactly the paper's rw(p', A).
func (r *Rewriter) rw(i, a int32) xpath.Cell {
	id := r.memo.Node(i).ID
	if res, ok := r.memo.Cell(id, a); ok {
		return res
	}
	if !r.memo.Compute() {
		return nil
	}
	return r.memo.Store(id, a, r.compute(i, a))
}

func (r *Rewriter) compute(i, ai int32) xpath.Cell {
	var res xpath.Cell
	n := r.memo.Node(i)
	a := r.memo.StateName(ai)
	switch p := n.Path.(type) {
	case xpath.Empty:
		return res
	case xpath.Self: // case 1
		return res.Add(ai, xpath.Self{})
	case xpath.Label: // case 2
		if p.Name == xpath.TextName {
			if sig, ok := r.sigma[[2]string{a, dtd.TextLabel}]; ok {
				res = res.Add(r.memo.State(textType), sig)
			}
			return res
		}
		for _, child := range r.children(a) {
			if r.orig[child] == p.Name {
				res = res.Add(r.memo.State(child), r.sigmaOf(a, child))
			}
		}
		return res
	case xpath.Wildcard: // case 3
		for _, child := range r.children(a) {
			res = res.Add(r.memo.State(child), r.sigmaOf(a, child))
		}
		return res
	case xpath.Seq: // case 4, per target
		return r.seq(n.L, n.R, ai)
	case xpath.Descend: // case 5, per target
		for _, b := range r.reachDescend(a) {
			for _, w := range r.rw(n.L, r.memo.State(b)) {
				res = res.Add(w.State, xpath.MakeSeq(r.recrw(a, b), w.Plan))
			}
		}
		return res
	case xpath.Union: // case 6
		for _, sub := range [2]int32{n.L, n.R} {
			for _, w := range r.rw(sub, ai) {
				res = res.Add(w.State, w.Plan)
			}
		}
		return res
	case xpath.Qualified:
		if _, ok := p.Sub.(xpath.Self); ok { // case 7: ε[q]
			q := r.rwQual(n.R, ai)
			if _, isFalse := q.(xpath.QFalse); isFalse {
				return res
			}
			return res.Add(ai, xpath.MakeQualified(xpath.Self{}, q))
		}
		// p1[q] ≡ p1/ε[q]: case 4 then gives each reach target its own
		// locally rewritten qualifier.
		return r.seq(n.L, r.memo.SelfQual(i), ai)
	default:
		return res
	}
}

// seq is case 4 for the subtrees l/r at view type a: the continuation
// rewritten for each target v of l composes only onto l's paths to v.
func (r *Rewriter) seq(l, rt, a int32) xpath.Cell {
	var res xpath.Cell
	for _, v := range r.rw(l, a) {
		for _, w := range r.rw(rt, v.State) {
			res = res.Add(w.State, xpath.MakeSeq(v.Plan, w.Plan))
		}
	}
	return res
}

// rwQual rewrites the interned qualifier i at view type A (Fig. 6 cases
// 8-12).
func (r *Rewriter) rwQual(i, a int32) xpath.Qual {
	n := r.memo.Node(i)
	switch q := n.Qual.(type) {
	case xpath.QTrue, xpath.QFalse:
		return q
	case xpath.QPath: // case 8
		res := r.rw(n.L, a)
		if len(res) == 0 {
			return xpath.QFalse{}
		}
		return xpath.QPath{Path: res.Total()}
	case xpath.QEq: // case 9
		res := r.rw(n.L, a)
		if len(res) == 0 {
			return xpath.QFalse{}
		}
		return xpath.QEq{Path: res.Total(), Value: q.Value, Var: q.Var}
	case xpath.QAnd: // case 10
		return xpath.MakeAnd(r.rwQual(n.L, a), r.rwQual(n.R, a))
	case xpath.QOr: // case 11
		return xpath.MakeOr(r.rwQual(n.L, a), r.rwQual(n.R, a))
	case xpath.QNot: // case 12
		return xpath.MakeNot(r.rwQual(n.L, a))
	case xpath.QAttrEq: // attribute extension: same attribute on the
		// corresponding document node when the view exposes it
		if r.attrVisible(r.memo.StateName(a), q.Name) {
			return q
		}
		return xpath.QFalse{}
	case xpath.QAttrHas:
		if r.attrVisible(r.memo.StateName(a), q.Name) {
			return q
		}
		return xpath.QFalse{}
	default:
		return xpath.QFalse{}
	}
}

// children returns the distinct child types of an effective view type.
func (r *Rewriter) children(a string) []string {
	if a == textType {
		return nil
	}
	return r.dv.Children(a)
}

// sigmaOf returns σ for an effective production edge; derived views
// define σ on every edge, so a missing entry only arises for hand-built
// views, where the child label itself is the natural default.
func (r *Rewriter) sigmaOf(parent, child string) xpath.Path {
	if p, ok := r.sigma[[2]string{parent, child}]; ok {
		return p
	}
	return xpath.L(r.orig[child])
}
