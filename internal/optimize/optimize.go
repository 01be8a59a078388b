package optimize

import (
	"context"
	"sync"

	"repro/internal/dtd"
	"repro/internal/obs"
	"repro/internal/xpath"
)

// Optimizer rewrites XPath queries into equivalent, cheaper queries over
// instances of one document DTD (Algorithm optimize, Fig. 10). It is
// stateful only as a cache: reach sets, recProc tables for '//', and the
// DP memo are shared across queries under a mutex, so an Optimizer is
// safe for concurrent use.
type Optimizer struct {
	mu sync.Mutex
	d  *dtd.DTD

	// memo is the DP table: cells keyed on (subtree id, DTD type),
	// bounded by xpath.MemoBudget.
	memo     *xpath.Memo
	recReach map[string][]string
	recPaths map[string]map[string]xpath.Path

	// scratch holds the image graphs of the union cells' containment
	// tests, truncated back after each test; types indexes the DTD for
	// image builds.
	scratch store
	types   *typeGraph

	// rules counts DTD-driven simplification decisions (impossible /
	// guaranteed qualifiers, exclusive or implied conjuncts, union
	// containment); pruned counts the subtrees those decisions removed
	// (union branches dropped, qualifier subtrees decided outright).
	// Memoized cells fire their rules once, on first computation. Both
	// are guarded by mu like the memo they describe.
	rules  uint64
	pruned uint64
}

// New returns an optimizer for the DTD. Recursive DTDs are supported: the
// '//' expansion simply keeps the descendant step instead of enumerating
// paths when the sub-DAG below a node is cyclic.
func New(d *dtd.DTD) *Optimizer {
	return &Optimizer{
		d:        d,
		memo:     xpath.NewMemo(),
		recReach: make(map[string][]string),
		recPaths: make(map[string]map[string]xpath.Path),
	}
}

// Optimize rewrites p (evaluated at root elements of the DTD) into an
// equivalent query. Queries proved empty by DTD constraints return ∅.
func (o *Optimizer) Optimize(p xpath.Path) xpath.Path {
	return o.OptimizeAt(p, o.d.Root())
}

// OptimizeAt rewrites p as evaluated at elements of type a.
func (o *Optimizer) OptimizeAt(p xpath.Path, a string) xpath.Path {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.memo.Begin(context.Background())
	return o.optimizeAtLocked(o.memo.Intern(p), a)
}

// optimizeAtLocked optimizes the interned subtree i at type a.
func (o *Optimizer) optimizeAtLocked(i int32, a string) xpath.Path {
	return xpath.Simplify(o.opt(i, o.memo.State(a)).Total())
}

// OptimizeCtx is Optimize honoring a context: the DP polls it every few
// cells and returns ctx.Err() once it is done, storing no cell of the
// cut-short call. When the context carries a trace span, the pass is
// recorded as a child span carrying the output size and the per-call
// delta of rules fired and branches pruned.
func (o *Optimizer) OptimizeCtx(ctx context.Context, p xpath.Path) (xpath.Path, error) {
	_, sp := obs.StartSpan(ctx, "optimize")
	o.mu.Lock()
	r0, p0 := o.rules, o.pruned
	o.memo.Begin(ctx)
	out := o.optimizeAtLocked(o.memo.Intern(p), o.d.Root())
	err := o.memo.Err()
	dr, dp := o.rules-r0, o.pruned-p0
	o.mu.Unlock()
	if err != nil {
		out = nil
	}
	if sp != nil {
		sp.SetAttr("input_size", xpath.Size(p))
		if err == nil {
			sp.SetAttr("output_size", xpath.Size(out))
		}
		sp.SetAttr("rules_fired", dr)
		sp.SetAttr("pruned_branches", dp)
		sp.Finish()
	}
	return out, err
}

// Stats reports the optimizer's cumulative counters: DTD-driven
// simplification rules fired and subtrees pruned by them.
func (o *Optimizer) Stats() (rulesFired, prunedBranches uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.rules, o.pruned
}

// OptimizeString parses, optimizes at the root, and prints.
func (o *Optimizer) OptimizeString(query string) (string, error) {
	p, err := xpath.Parse(query)
	if err != nil {
		return "", err
	}
	return xpath.String(o.Optimize(p)), nil
}

// targets returns reach(p, a) for the interned subtree i: the DTD types
// reachable from a via p, as a DP cell.
func (o *Optimizer) targets(i int32, a string) xpath.Cell {
	return o.opt(i, o.memo.State(a))
}

// Reach returns reach(p, root): the element types a root-context query
// can select over instances of the DTD (sorted; the pseudo type "#text"
// marks text results). Static analyses build on this.
func (o *Optimizer) Reach(p xpath.Path) []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.memo.Begin(context.Background())
	var out []string
	for _, t := range o.targets(o.memo.Intern(p), o.d.Root()) {
		out = append(out, o.memo.StateName(t.State))
	}
	return out
}

// opt optimizes the interned subtree i at DTD type a; results are
// memoized on (subtree id, type). A cell holds the optimized
// translation per reach target (see package rewrite for why per-target
// composition is the sound variant of the paper's union form).
func (o *Optimizer) opt(i, a int32) xpath.Cell {
	id := o.memo.Node(i).ID
	if res, ok := o.memo.Cell(id, a); ok {
		return res
	}
	if !o.memo.Compute() {
		return nil
	}
	return o.memo.Store(id, a, o.compute(i, a))
}

func (o *Optimizer) compute(i, ai int32) xpath.Cell {
	var res xpath.Cell
	n := o.memo.Node(i)
	a := o.memo.StateName(ai)
	switch p := n.Path.(type) {
	case xpath.Empty:
		return res
	case xpath.Self: // case (1)
		return res.Add(ai, xpath.Self{})
	case xpath.Label: // case (2)
		if p.Name == xpath.TextName {
			if c, ok := o.d.Production(a); ok && c.Kind == dtd.Text {
				res = res.Add(o.memo.State(textNode), p)
			}
			return res
		}
		if o.d.HasChild(a, p.Name) {
			res = res.Add(o.memo.State(p.Name), p)
		}
		return res
	case xpath.Wildcard: // case (3): expand to the concrete child labels
		for _, b := range o.d.Children(a) {
			res = res.Add(o.memo.State(b), xpath.L(b))
		}
		return res
	case xpath.Seq: // case (4), per target
		return o.seq(n.L, n.R, ai)
	case xpath.Descend: // case (5): expand '//' through recProc
		for _, b := range o.reachDescend(a) {
			for _, w := range o.opt(n.L, o.memo.State(b)) {
				res = res.Add(w.State, xpath.MakeSeq(o.recrw(a, b), w.Plan))
			}
		}
		return res
	case xpath.Union: // case (6): drop a branch contained in the other
		m := o.scratch.mark()
		g1, ok1 := o.imageAt(n.L, a)
		g2, ok2 := o.imageAt(n.R, a)
		keep := int32(-1) // the branch that contains the other
		if ok1 && ok2 {
			if o.simulate(g1, g2) {
				keep = n.R
			} else if o.simulate(g2, g1) {
				keep = n.L
			}
		}
		o.scratch.truncate(m)
		if keep >= 0 {
			o.rules++
			o.pruned++
			return o.opt(keep, ai)
		}
		for _, sub := range [2]int32{n.L, n.R} {
			for _, w := range o.opt(sub, ai) {
				res = res.Add(w.State, w.Plan)
			}
		}
		return res
	case xpath.Qualified:
		if _, ok := p.Sub.(xpath.Self); ok { // case (7)
			tv, q := o.optQual(n.R, a, true)
			switch tv {
			case tvTrue:
				res = res.Add(ai, xpath.Self{})
			case tvFalse:
				// ∅
			default:
				res = res.Add(ai, xpath.Qualified{Sub: xpath.Self{}, Cond: q})
			}
			return res
		}
		// p1[q] ≡ p1/ε[q].
		return o.seq(n.L, o.memo.SelfQual(i), ai)
	case xpath.Rec:
		// Height-free rewrite of a recursive view region (package rewrite).
		// The automaton is opaque to the optimizer, but its results are
		// typed: every selected node carries ResultLabel. Keep the node,
		// pruning it only when the DTD proves that label unreachable from
		// the evaluation context (Reachable includes a itself, and every
		// context a Rec is evaluated at carries its Start type's label by
		// plan construction, so self-reach is covered).
		if p.ResultLabel == xpath.TextName {
			if o.textReachable(o.d.Reachable(a)) {
				res = res.Add(o.memo.State(textNode), p)
			}
			return res
		}
		if o.d.Reachable(a)[p.ResultLabel] {
			res = res.Add(o.memo.State(p.ResultLabel), p)
		}
		return res
	default:
		return res
	}
}

// seq is case (4) for the subtrees l/r at type a, per target of l.
func (o *Optimizer) seq(l, r, a int32) xpath.Cell {
	var res xpath.Cell
	for _, v := range o.opt(l, a) {
		for _, w := range o.opt(r, v.State) {
			res = res.Add(w.State, xpath.MakeSeq(v.Plan, w.Plan))
		}
	}
	return res
}

// optQual is the paper's evaluate([q], A) for the interned qualifier i:
// it decides the qualifier where DTD constraints fix its truth and
// otherwise returns an equivalent, simplified qualifier. count says
// whether its decisions go into the rule counters: image construction
// decides qualifiers it does not keep, so it passes false.
func (o *Optimizer) optQual(i int32, a string, count bool) (triBool, xpath.Qual) {
	fire := func(pruned bool) {
		if count {
			o.rules++
			if pruned {
				o.pruned++
			}
		}
	}
	n := o.memo.Node(i)
	switch q := n.Qual.(type) {
	case xpath.QTrue:
		return tvTrue, q
	case xpath.QFalse:
		return tvFalse, q
	case xpath.QPath:
		if o.impossible(n.L, a) {
			fire(true)
			return tvFalse, xpath.QFalse{}
		}
		if o.guaranteed(n.L, a) {
			fire(true)
			return tvTrue, xpath.QTrue{}
		}
		return tvUnknown, xpath.QPath{Path: o.optimizeAtLocked(n.L, a)}
	case xpath.QEq:
		if o.impossible(n.L, a) {
			fire(true)
			return tvFalse, xpath.QFalse{}
		}
		return tvUnknown, xpath.QEq{Path: o.optimizeAtLocked(n.L, a), Value: q.Value, Var: q.Var}
	case xpath.QAnd:
		t1, q1 := o.optQual(n.L, a, count)
		t2, q2 := o.optQual(n.R, a, count)
		if t1 == tvFalse || t2 == tvFalse {
			return tvFalse, xpath.QFalse{}
		}
		if t1 == tvTrue {
			return t2, q2
		}
		if t2 == tvTrue {
			return t1, q1
		}
		if o.exclusive(a, q1, q2) {
			fire(true)
			return tvFalse, xpath.QFalse{}
		}
		if o.qualImplies(q1, q2, a) {
			fire(false)
			return tvUnknown, q1
		}
		if o.qualImplies(q2, q1, a) {
			fire(false)
			return tvUnknown, q2
		}
		return tvUnknown, xpath.QAnd{Left: q1, Right: q2}
	case xpath.QOr:
		t1, q1 := o.optQual(n.L, a, count)
		t2, q2 := o.optQual(n.R, a, count)
		if t1 == tvTrue || t2 == tvTrue {
			return tvTrue, xpath.QTrue{}
		}
		if t1 == tvFalse {
			return t2, q2
		}
		if t2 == tvFalse {
			return t1, q1
		}
		return tvUnknown, xpath.QOr{Left: q1, Right: q2}
	case xpath.QNot:
		t, sub := o.optQual(n.L, a, count)
		if t != tvUnknown {
			return t.not(), xpath.MakeNot(sub)
		}
		return tvUnknown, xpath.MakeNot(sub)
	default:
		return tvUnknown, q
	}
}
