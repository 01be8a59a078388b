package rewrite

import (
	"sort"

	"repro/internal/dtd"
	"repro/internal/xpath"
)

// reachDescend returns reach(//, A): the effective view types reachable
// from A via descendant-or-self, A itself included (so //p at A also
// covers p at A). Results are cached per source node; with the recrw
// table this is the paper's procedure recProc (Fig. 6).
func (r *Rewriter) reachDescend(a string) []string {
	if reach, ok := r.recReach[a]; ok {
		return reach
	}
	r.runRecProc(a)
	return r.recReach[a]
}

// recrw returns recrw(A, B): a query over the document capturing all
// label paths from A to B in the effective view DTD, with σ spliced in.
// recrw(A, A) is ε.
func (r *Rewriter) recrw(a, b string) xpath.Path {
	if _, ok := r.recPaths[a]; !ok {
		r.runRecProc(a)
	}
	if p, ok := r.recPaths[a][b]; ok {
		return p
	}
	return xpath.Empty{}
}

// runRecProc computes reach(//, a) and recrw(a, ·) for one source node.
//
// The paper's recProc uses symbolic variables Z_x so that each
// intermediate path segment is included exactly once, then substitutes in
// topological order; the equivalent here is to compute
//
//	recrw(a, y) = ⋃ over DAG edges (x, y) of recrw(a, x)/σ(x, y)
//
// in topological order while sharing the already-built recrw(a, x)
// sub-expressions (Go interface values alias the same underlying nodes),
// which keeps the construction linear in |D_v| per target.
//
// When the view DTD is recursive (height-free mode) and the sub-graph
// below a contains a cycle, the label-path enumeration would be infinite;
// recrw(a, b) is then the single automaton node Rec{G, a, b} over the
// view's shared σ transition system, which is height-independent by
// construction. Sources whose reachable region is acyclic keep the DAG
// expansion even in height-free mode — it exposes more structure to the
// optimizer.
func (r *Rewriter) runRecProc(a string) {
	// One table costs O(|D_v|²) at most; it counts as one cell towards
	// the context poll, and a cut-short call stores no table.
	if !r.memo.Compute() {
		return
	}
	// Collect the sub-graph reachable from a.
	reachable := map[string]bool{a: true}
	var stack []string
	stack = append(stack, a)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, y := range r.children(x) {
			if !reachable[y] {
				reachable[y] = true
				stack = append(stack, y)
			}
		}
	}

	if r.cyclicBelow(a, reachable) {
		r.runRecProcCyclic(a, reachable)
		return
	}

	// Topological order of the sub-DAG (acyclic region: either a
	// non-recursive/unfolded view DTD, or a recursion-free corner of a
	// recursive one).
	state := make(map[string]int)
	var order []string
	var visit func(string)
	visit = func(x string) {
		if state[x] != 0 {
			return
		}
		state[x] = 1
		for _, y := range r.children(x) {
			visit(y)
		}
		state[x] = 2
		order = append(order, x)
	}
	visit(a)
	// Reverse post-order = parents before children.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}

	paths := map[string]xpath.Path{a: xpath.Self{}}
	for _, x := range order {
		px, ok := paths[x]
		if !ok {
			continue
		}
		for _, y := range r.children(x) {
			step := xpath.MakeSeq(px, r.sigmaOf(x, y))
			if prev, seen := paths[y]; seen {
				paths[y] = xpath.MakeUnion(prev, step)
			} else {
				paths[y] = step
			}
		}
	}

	// Text nodes are in the descendant-or-self set too: give them a single
	// pseudo target so queries like //. and //text() cover them.
	// The union runs in topological order: ranging over the paths map
	// would print the same plan differently from run to run.
	var textPaths xpath.Path = xpath.Empty{}
	for _, b := range order {
		if sig, ok := r.sigma[[2]string{b, dtd.TextLabel}]; ok {
			textPaths = xpath.MakeUnion(textPaths, xpath.MakeSeq(paths[b], sig))
		}
	}
	if !xpath.IsEmpty(textPaths) {
		paths[textType] = textPaths
	}

	reach := make([]string, 0, len(paths))
	for b := range paths {
		reach = append(reach, b)
	}
	sort.Strings(reach)
	r.recReach[a] = reach
	r.recPaths[a] = paths
}

// runRecProcCyclic is the height-free branch of recProc: every reachable
// target b gets the automaton query Rec{G, a, b}, one AST node over the
// shared σ transition system. Rec includes the length-0 chain, so
// recrw(a, a) still covers ε exactly like the DAG branch's Self{}.
func (r *Rewriter) runRecProcCyclic(a string, reachable map[string]bool) {
	g := r.graph()
	paths := make(map[string]xpath.Path, len(reachable)+1)
	text := false
	for b := range reachable {
		paths[b] = xpath.Rec{G: g, Start: a, Accept: b, ResultLabel: r.resultLabel(b)}
		if _, ok := r.sigma[[2]string{b, dtd.TextLabel}]; ok {
			text = true
		}
	}
	if text {
		paths[textType] = xpath.Rec{G: g, Start: a, Accept: textType, ResultLabel: xpath.TextName}
	}

	reach := make([]string, 0, len(paths))
	for b := range paths {
		reach = append(reach, b)
	}
	sort.Strings(reach)
	r.recReach[a] = reach
	r.recPaths[a] = paths
}

// cyclicBelow reports whether the sub-graph induced by the reachable set
// contains a cycle.
func (r *Rewriter) cyclicBelow(a string, reachable map[string]bool) bool {
	state := make(map[string]int)
	var visit func(string) bool
	visit = func(x string) bool {
		switch state[x] {
		case 1:
			return true
		case 2:
			return false
		}
		state[x] = 1
		for _, y := range r.children(x) {
			if reachable[y] && visit(y) {
				return true
			}
		}
		state[x] = 2
		return false
	}
	return visit(a)
}

// graph lazily builds the view's shared σ transition system: one state
// per view type plus the "#text" pseudo-state, one edge per production
// edge carrying its σ query. Built once per Rewriter (callers hold r.mu)
// and shared by pointer across every Rec node, so all Rec values of one
// plan stay comparable and the per-plan weight is a single graph.
func (r *Rewriter) graph() *xpath.RecGraph {
	if r.recGraph != nil {
		return r.recGraph
	}
	edges := make(map[string][]xpath.RecEdge, r.dv.Len())
	for _, x := range r.dv.Types() {
		for _, y := range r.children(x) {
			edges[x] = append(edges[x], xpath.RecEdge{To: y, Sig: r.sigmaOf(x, y)})
		}
		if sig, ok := r.sigma[[2]string{x, dtd.TextLabel}]; ok {
			edges[x] = append(edges[x], xpath.RecEdge{To: textType, Sig: sig})
		}
	}
	r.recGraph = xpath.NewRecGraph(edges)
	return r.recGraph
}

// resultLabel is the document label carried by every node a σ chain
// ending in view type b selects: the hidden document type when b is a
// dummy (the dummy stands in for it), otherwise b's original label.
func (r *Rewriter) resultLabel(b string) string {
	orig := r.orig[b]
	if hidden, ok := r.view.DummyOf[orig]; ok {
		return hidden
	}
	return orig
}
