package optimize

import (
	"sort"

	"repro/internal/dtd"
	"repro/internal/xpath"
)

// reachDescend returns reach(//, a) over the document DTD: a itself, all
// its DTD descendants, and the pseudo text target when text content is
// reachable.
func (o *Optimizer) reachDescend(a string) []string {
	if r, ok := o.recReach[a]; ok {
		return r
	}
	o.runRecProc(a)
	return o.recReach[a]
}

// recrw returns recrw(a, b): a query equivalent to "descend from a to b"
// over instances of the DTD. On a DAG it enumerates the label paths (with
// sub-expression sharing); when the sub-graph below a is cyclic the
// enumeration would be infinite, so the descendant step //b is kept — a
// precision fallback, never a correctness one. This is the recProc
// variant used by Algorithm optimize (no σ substitution).
func (o *Optimizer) recrw(a, b string) xpath.Path {
	if _, ok := o.recPaths[a]; !ok {
		o.runRecProc(a)
	}
	if p, ok := o.recPaths[a][b]; ok {
		return p
	}
	return xpath.Empty{}
}

func (o *Optimizer) runRecProc(a string) {
	// One table counts as one cell towards the context poll, and a
	// cut-short call stores no table.
	if !o.memo.Compute() {
		return
	}
	reachable := o.d.Reachable(a)
	paths := make(map[string]xpath.Path)

	if o.cyclicBelow(a, reachable) {
		// Fallback for recursive regions: //b reaches exactly the b
		// descendants (and self for b == a).
		for b := range reachable {
			p := xpath.Path(xpath.MakeDescend(xpath.L(b)))
			if b == a {
				p = xpath.MakeUnion(xpath.Self{}, p)
			}
			paths[b] = p
		}
		if o.textReachable(reachable) {
			paths[textNode] = xpath.MakeDescend(xpath.L(xpath.TextName))
		}
	} else {
		// Topological order of the sub-DAG, parents first.
		state := make(map[string]int)
		var order []string
		var visit func(string)
		visit = func(x string) {
			if state[x] != 0 {
				return
			}
			state[x] = 1
			for _, y := range o.d.Children(x) {
				visit(y)
			}
			state[x] = 2
			order = append(order, x)
		}
		visit(a)
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
		paths[a] = xpath.Self{}
		for _, x := range order {
			px, ok := paths[x]
			if !ok {
				continue
			}
			for _, y := range o.d.Children(x) {
				step := xpath.MakeSeq(px, xpath.L(y))
				if prev, seen := paths[y]; seen {
					paths[y] = xpath.MakeUnion(prev, step)
				} else {
					paths[y] = step
				}
			}
		}
		// Topological order keeps the union's text stable across runs
		// (see package rewrite's runRecProc).
		var textPaths xpath.Path = xpath.Empty{}
		for _, b := range order {
			if c, ok := o.d.Production(b); ok && c.Kind == dtd.Text {
				textPaths = xpath.MakeUnion(textPaths, xpath.MakeSeq(paths[b], xpath.L(xpath.TextName)))
			}
		}
		if !xpath.IsEmpty(textPaths) {
			paths[textNode] = textPaths
		}
	}

	reach := make([]string, 0, len(paths))
	for b := range paths {
		reach = append(reach, b)
	}
	sort.Strings(reach)
	o.recReach[a] = reach
	o.recPaths[a] = paths
}

// cyclicBelow reports whether the sub-graph induced by the reachable set
// contains a cycle.
func (o *Optimizer) cyclicBelow(a string, reachable map[string]bool) bool {
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
		for _, y := range o.d.Children(x) {
			if reachable[y] && visit(y) {
				return true
			}
		}
		state[x] = 2
		return false
	}
	return visit(a)
}

func (o *Optimizer) textReachable(reachable map[string]bool) bool {
	for b := range reachable {
		if c, ok := o.d.Production(b); ok && c.Kind == dtd.Text {
			return true
		}
	}
	return false
}
