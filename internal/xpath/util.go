package xpath

import "fmt"

// Equal reports structural equality of two paths.
func Equal(p1, p2 Path) bool {
	switch a := p1.(type) {
	case Empty:
		_, ok := p2.(Empty)
		return ok
	case Self:
		_, ok := p2.(Self)
		return ok
	case Wildcard:
		_, ok := p2.(Wildcard)
		return ok
	case Label:
		b, ok := p2.(Label)
		return ok && a.Name == b.Name
	case Seq:
		b, ok := p2.(Seq)
		return ok && Equal(a.Left, b.Left) && Equal(a.Right, b.Right)
	case Descend:
		b, ok := p2.(Descend)
		return ok && Equal(a.Sub, b.Sub)
	case Union:
		b, ok := p2.(Union)
		return ok && Equal(a.Left, b.Left) && Equal(a.Right, b.Right)
	case Qualified:
		b, ok := p2.(Qualified)
		return ok && Equal(a.Sub, b.Sub) && QualEqual(a.Cond, b.Cond)
	case Rec:
		b, ok := p2.(Rec)
		return ok && a.Start == b.Start && a.Accept == b.Accept &&
			a.ResultLabel == b.ResultLabel && a.G.equal(b.G)
	default:
		return false
	}
}

// QualEqual reports structural equality of two qualifiers.
func QualEqual(q1, q2 Qual) bool {
	switch a := q1.(type) {
	case QTrue:
		_, ok := q2.(QTrue)
		return ok
	case QFalse:
		_, ok := q2.(QFalse)
		return ok
	case QPath:
		b, ok := q2.(QPath)
		return ok && Equal(a.Path, b.Path)
	case QEq:
		b, ok := q2.(QEq)
		return ok && Equal(a.Path, b.Path) && a.Value == b.Value && a.Var == b.Var
	case QAttrEq:
		b, ok := q2.(QAttrEq)
		return ok && a.Name == b.Name && a.Value == b.Value
	case QAttrHas:
		b, ok := q2.(QAttrHas)
		return ok && a.Name == b.Name
	case QAnd:
		b, ok := q2.(QAnd)
		return ok && QualEqual(a.Left, b.Left) && QualEqual(a.Right, b.Right)
	case QOr:
		b, ok := q2.(QOr)
		return ok && QualEqual(a.Left, b.Left) && QualEqual(a.Right, b.Right)
	case QNot:
		b, ok := q2.(QNot)
		return ok && QualEqual(a.Sub, b.Sub)
	default:
		return false
	}
}

// Size returns the number of AST nodes of the path, including qualifier
// nodes (the paper's |p|).
func Size(p Path) int {
	switch p := p.(type) {
	case Empty, Self, Label, Wildcard:
		return 1
	case Seq:
		return 1 + Size(p.Left) + Size(p.Right)
	case Descend:
		return 1 + Size(p.Sub)
	case Union:
		return 1 + Size(p.Left) + Size(p.Right)
	case Qualified:
		return 1 + Size(p.Sub) + QualSize(p.Cond)
	case Rec:
		// One node plus the transition system's weight. The graph is
		// shared between a plan's Rec nodes, so summing it per occurrence
		// over-counts memory, but the total stays independent of document
		// height — which is the property plan-size accounting must keep.
		return 1 + p.G.Size()
	default:
		return 1
	}
}

// QualSize returns the number of AST nodes of a qualifier.
func QualSize(q Qual) int {
	switch q := q.(type) {
	case QTrue, QFalse, QAttrEq, QAttrHas:
		return 1
	case QPath:
		return 1 + Size(q.Path)
	case QEq:
		return 1 + Size(q.Path)
	case QAnd:
		return 1 + QualSize(q.Left) + QualSize(q.Right)
	case QOr:
		return 1 + QualSize(q.Left) + QualSize(q.Right)
	case QNot:
		return 1 + QualSize(q.Sub)
	default:
		return 1
	}
}

// Subqueries returns all sub-paths of p in ascending order: every
// sub-query precedes the queries containing it, with p itself last. Paths
// nested inside qualifiers are included. This is the list Q of the
// paper's Algorithm rewrite (Fig. 6).
func Subqueries(p Path) []Path {
	var out []Path
	var walkPath func(Path)
	var walkQual func(Qual)
	walkPath = func(p Path) {
		switch n := p.(type) {
		case Seq:
			walkPath(n.Left)
			walkPath(n.Right)
		case Descend:
			walkPath(n.Sub)
		case Union:
			walkPath(n.Left)
			walkPath(n.Right)
		case Qualified:
			walkPath(n.Sub)
			walkQual(n.Cond)
		}
		// The argument's own interface value: appending the type
		// switch's variable would box a copy of every composite node.
		out = append(out, p)
	}
	walkQual = func(q Qual) {
		switch q := q.(type) {
		case QPath:
			walkPath(q.Path)
		case QEq:
			walkPath(q.Path)
		case QAnd:
			walkQual(q.Left)
			walkQual(q.Right)
		case QOr:
			walkQual(q.Left)
			walkQual(q.Right)
		case QNot:
			walkQual(q.Sub)
		}
	}
	walkPath(p)
	return out
}

// Labels returns the distinct element-type names mentioned by the query
// (including inside qualifiers), in first-occurrence order.
func Labels(p Path) []string {
	var out []string
	seen := make(map[string]bool)
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	var walkPath func(Path)
	var walkQual func(Qual)
	walkPath = func(p Path) {
		switch p := p.(type) {
		case Label:
			add(p.Name)
		case Seq:
			walkPath(p.Left)
			walkPath(p.Right)
		case Descend:
			walkPath(p.Sub)
		case Union:
			walkPath(p.Left)
			walkPath(p.Right)
		case Qualified:
			walkPath(p.Sub)
			walkQual(p.Cond)
		case Rec:
			for _, s := range p.G.States() {
				for _, e := range p.G.EdgesFrom(s) {
					walkPath(e.Sig)
				}
			}
		}
	}
	walkQual = func(q Qual) {
		switch q := q.(type) {
		case QPath:
			walkPath(q.Path)
		case QEq:
			walkPath(q.Path)
		case QAnd:
			walkQual(q.Left)
			walkQual(q.Right)
		case QOr:
			walkQual(q.Left)
			walkQual(q.Right)
		case QNot:
			walkQual(q.Sub)
		}
	}
	walkPath(p)
	return out
}

// BindVars substitutes specification parameters ($name) with the values
// in env, returning a variable-free query. It fails when a variable has
// no binding.
func BindVars(p Path, env map[string]string) (Path, error) {
	switch p := p.(type) {
	case Empty, Self, Label, Wildcard:
		return p, nil
	case Seq:
		l, err := BindVars(p.Left, env)
		if err != nil {
			return nil, err
		}
		r, err := BindVars(p.Right, env)
		if err != nil {
			return nil, err
		}
		return Seq{Left: l, Right: r}, nil
	case Descend:
		s, err := BindVars(p.Sub, env)
		if err != nil {
			return nil, err
		}
		return Descend{Sub: s}, nil
	case Union:
		l, err := BindVars(p.Left, env)
		if err != nil {
			return nil, err
		}
		r, err := BindVars(p.Right, env)
		if err != nil {
			return nil, err
		}
		return Union{Left: l, Right: r}, nil
	case Qualified:
		s, err := BindVars(p.Sub, env)
		if err != nil {
			return nil, err
		}
		q, err := BindQualVars(p.Cond, env)
		if err != nil {
			return nil, err
		}
		return Qualified{Sub: s, Cond: q}, nil
	case Rec:
		// Plans are normally built from bound views, so the common case
		// keeps the shared graph pointer intact.
		if !p.G.hasVars() {
			return p, nil
		}
		g, err := p.G.bindVars(env)
		if err != nil {
			return nil, err
		}
		return Rec{G: g, Start: p.Start, Accept: p.Accept, ResultLabel: p.ResultLabel}, nil
	default:
		return nil, fmt.Errorf("xpath: BindVars: unknown path node %T", p)
	}
}

// BindQualVars substitutes parameters inside a qualifier.
func BindQualVars(q Qual, env map[string]string) (Qual, error) {
	switch q := q.(type) {
	case QTrue, QFalse, QAttrEq, QAttrHas:
		return q, nil
	case QPath:
		p, err := BindVars(q.Path, env)
		if err != nil {
			return nil, err
		}
		return QPath{Path: p}, nil
	case QEq:
		p, err := BindVars(q.Path, env)
		if err != nil {
			return nil, err
		}
		if q.Var == "" {
			return QEq{Path: p, Value: q.Value}, nil
		}
		val, ok := env[q.Var]
		if !ok {
			return nil, fmt.Errorf("xpath: unbound parameter $%s", q.Var)
		}
		return QEq{Path: p, Value: val}, nil
	case QAnd:
		l, err := BindQualVars(q.Left, env)
		if err != nil {
			return nil, err
		}
		r, err := BindQualVars(q.Right, env)
		if err != nil {
			return nil, err
		}
		return QAnd{Left: l, Right: r}, nil
	case QOr:
		l, err := BindQualVars(q.Left, env)
		if err != nil {
			return nil, err
		}
		r, err := BindQualVars(q.Right, env)
		if err != nil {
			return nil, err
		}
		return QOr{Left: l, Right: r}, nil
	case QNot:
		s, err := BindQualVars(q.Sub, env)
		if err != nil {
			return nil, err
		}
		return QNot{Sub: s}, nil
	default:
		return nil, fmt.Errorf("xpath: BindQualVars: unknown qualifier node %T", q)
	}
}

// Vars returns the distinct parameter names occurring in the query, in
// the order of the Qualified and Rec nodes that bind them ascending the
// parse tree (the order of Subqueries). It walks the tree in place and
// allocates only when it finds a parameter, so the per-request call on
// a variable-free query is free.
func Vars(p Path) []string {
	var vs varSet
	vs.path(p)
	return vs.names
}

// varSet collects distinct parameter names in first-occurrence order.
// Its set is made on the first name, so a variable-free walk allocates
// nothing; it is a map because query text, and with it the number of
// distinct names, comes from the client.
type varSet struct {
	names []string
	seen  map[string]bool
}

func (vs *varSet) add(name string) {
	if vs.seen == nil {
		vs.seen = make(map[string]bool)
	}
	if !vs.seen[name] {
		vs.seen[name] = true
		vs.names = append(vs.names, name)
	}
}

// path visits p's sub-queries in Subqueries order: children (including
// the paths inside a qualifier) before the node itself.
func (vs *varSet) path(p Path) {
	switch p := p.(type) {
	case Seq:
		vs.path(p.Left)
		vs.path(p.Right)
	case Descend:
		vs.path(p.Sub)
	case Union:
		vs.path(p.Left)
		vs.path(p.Right)
	case Qualified:
		vs.path(p.Sub)
		vs.qualPaths(p.Cond)
		vs.qualVars(p.Cond)
	case Rec:
		p.G.collectVars(vs)
	}
}

// qualPaths visits the paths nested in a qualifier.
func (vs *varSet) qualPaths(q Qual) {
	switch q := q.(type) {
	case QPath:
		vs.path(q.Path)
	case QEq:
		vs.path(q.Path)
	case QAnd:
		vs.qualPaths(q.Left)
		vs.qualPaths(q.Right)
	case QOr:
		vs.qualPaths(q.Left)
		vs.qualPaths(q.Right)
	case QNot:
		vs.qualPaths(q.Sub)
	}
}

// qualVars adds the parameters a qualifier compares against, without
// descending into its paths (qualPaths has visited those).
func (vs *varSet) qualVars(q Qual) {
	switch q := q.(type) {
	case QEq:
		if q.Var != "" {
			vs.add(q.Var)
		}
	case QAnd:
		vs.qualVars(q.Left)
		vs.qualVars(q.Right)
	case QOr:
		vs.qualVars(q.Left)
		vs.qualVars(q.Right)
	case QNot:
		vs.qualVars(q.Sub)
	}
}

// InCMinus reports whether the query is in the conjunctive fragment C⁻ of
// the paper's Section 5.1: paths over //, /, *, ∪ with qualifiers
// restricted to conjunctions of paths.
func InCMinus(p Path) bool {
	switch p := p.(type) {
	case Empty, Self, Label, Wildcard:
		return true
	case Seq:
		return InCMinus(p.Left) && InCMinus(p.Right)
	case Descend:
		return InCMinus(p.Sub)
	case Union:
		return InCMinus(p.Left) && InCMinus(p.Right)
	case Qualified:
		return InCMinus(p.Sub) && qualInCMinus(p.Cond)
	default:
		return false
	}
}

func qualInCMinus(q Qual) bool {
	switch q := q.(type) {
	case QTrue, QFalse:
		return true
	case QPath:
		return InCMinus(q.Path)
	case QAnd:
		return qualInCMinus(q.Left) && qualInCMinus(q.Right)
	default:
		return false
	}
}

// HasDescend reports whether the path contains a descendant step (//),
// in the main path or inside a qualifier. Mode selection uses it: the
// structural index only pays off on queries with descendant steps —
// child-axis-only queries touch the same nodes either way, so the walk
// evaluator serves them without the index lookup overhead.
func HasDescend(p Path) bool {
	switch p := p.(type) {
	case Seq:
		return HasDescend(p.Left) || HasDescend(p.Right)
	case Descend:
		return true
	case Union:
		return HasDescend(p.Left) || HasDescend(p.Right)
	case Qualified:
		return HasDescend(p.Sub) || qualHasDescend(p.Cond)
	case Rec:
		// The automaton selects nodes at arbitrary depth — the defining
		// property of a descendant-class construct.
		return true
	default:
		return false
	}
}

func qualHasDescend(q Qual) bool {
	switch q := q.(type) {
	case QPath:
		return HasDescend(q.Path)
	case QEq:
		return HasDescend(q.Path)
	case QAnd:
		return qualHasDescend(q.Left) || qualHasDescend(q.Right)
	case QOr:
		return qualHasDescend(q.Left) || qualHasDescend(q.Right)
	case QNot:
		return qualHasDescend(q.Sub)
	default:
		return false
	}
}
